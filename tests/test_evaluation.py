"""Disclosure-coverage and value-extraction metrics, checked against a recount."""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esgpipe.agent import ExtractionRecord
from esgpipe.errors import EvaluationError, ProviderError
from esgpipe.evaluation import (
    EvaluationReport,
    LabelSet,
    UnitAliases,
    acc_dc,
    acc_de,
    aggregate_reports,
    comparison_table,
    dc_rows,
    de_rows,
    disclosed_recall,
    evaluate_document,
    load_labels,
    mean,
    report_to_json,
    run_ablation,
    validate_label_set,
)
from esgpipe.metadata import MetadataRegistry
from esgpipe.pipeline import ABLATION_ARMS
from esgpipe.providers import HashEmbedder

# alias groups mirrored from the bundled table, used to build random pairs
ALIAS_GROUPS = [
    ["tCO2e", "tonnes CO2e", "tonnes of CO2 equivalent"],
    ["kg", "kilograms", "kilogram"],
    ["MWh", "megawatt hours", "mwh"],
    ["%", "percent"],
    ["persons", "people", "employees", "headcount"],
]


def _rec(doc, ind, topic, disclosure, value=None, unit=None):
    return ExtractionRecord(
        doc_id=doc, indicator_id=ind, disclosure=disclosure, kpi="k",
        topic=topic, value=value, unit=unit,
    )


def _mini_registry(registry, n):
    return MetadataRegistry(
        standard_name=registry.standard_name,
        indicators=registry.indicators[:n],
        expressions=registry.expressions,
    )


def _labels(registry, doc_id="doc", disclosed=(), values=None):
    return LabelSet(
        doc_id=doc_id,
        disclosure_labels={s.id: s.id in disclosed for s in registry.indicators},
        value_labels=dict(values or {}),
    )


# ------------------------------------------------------------------- oracles


def oracle_acc_dc(labels, records, registry):
    predicted = {}
    for r in records:
        predicted[r.indicator_id] = predicted.get(r.indicator_id, False) or r.disclosure
    hits = sum(
        1
        for s in registry.indicators
        if labels.disclosure_labels[s.id] == predicted.get(s.id, False)
    )
    return hits / len(registry.indicators)


def oracle_acc_de(labels, records, aliases, rel_tol=None):
    if not labels.value_labels:
        return None
    matches = 0
    for (ind, topic), (lv, lu) in labels.value_labels.items():
        rec = next(
            (r for r in records
             if r.indicator_id == ind and r.topic.strip() == topic and r.disclosure),
            None,
        )
        ok = False
        if rec is not None and rec.value is not None and aliases.equivalent(lu, rec.unit):
            if rel_tol is None:
                ok = rec.value == lv
            elif lv == 0:
                ok = rec.value == 0
            else:
                ok = abs(float((rec.value - lv) / lv)) <= rel_tol
        matches += ok
    return matches / len(labels.value_labels)


# ------------------------------------------------------------ worked examples


def test_acc_dc_worked_example(registry):
    mini = _mini_registry(registry, 4)
    ids = [s.id for s in mini.indicators]
    labels = _labels(mini, disclosed=ids[:3])  # labeled 1,1,1,0
    records = [  # predicted 1,0,1,1
        _rec("doc", ids[0], "t", True),
        _rec("doc", ids[2], "t", True),
        _rec("doc", ids[3], "t", True),
    ]
    assert acc_dc(labels, records, mini) == 0.5


def test_acc_de_worked_example(registry):
    ids = [s.id for s in registry.indicators[:3]]
    values = {
        (ids[0], "T0"): (Decimal("10"), "kg"),
        (ids[1], "T1"): (Decimal("20"), "kg"),
        (ids[2], "T2"): (Decimal("30"), "kg"),
    }
    labels = _labels(registry, disclosed=ids, values=values)
    records = [
        _rec("doc", ids[0], "T0", True, Decimal("10"), "kg"),
        _rec("doc", ids[1], "T1", True, Decimal("20"), "kg"),
        _rec("doc", ids[2], "T2", True, Decimal("31"), "kg"),
    ]
    assert acc_de(labels, records, registry) == pytest.approx(2 / 3)


def test_acc_de_undefined_when_no_value_labels(registry):
    labels = _labels(registry)
    report = evaluate_document(labels, [], registry)
    assert report.acc_de is None
    assert report.n_v == 0
    assert acc_de(labels, [], registry) is None


def test_acc_dc_counts_every_registry_indicator(registry):
    labels = _labels(registry)  # nothing disclosed
    assert acc_dc(labels, [], registry) == 1.0
    rows = dc_rows(labels, [], registry)
    assert len(rows) == len(registry.indicators)

    thirty = [s.id for s in registry.indicators[:30]]
    labels = _labels(registry, disclosed=thirty)
    assert acc_dc(labels, [], registry) == pytest.approx(40 / 70)


def test_predicted_disclosure_is_or_over_records(registry):
    ind = registry.indicators[0].id
    labels = _labels(registry, disclosed=[ind])
    records = [_rec("doc", ind, "a", False), _rec("doc", ind, "b", True)]
    assert acc_dc(labels, records, registry) == 1.0


def test_first_disclosed_record_wins_value_match(registry):
    ind = registry.indicators[0].id
    labels = _labels(registry, disclosed=[ind],
                     values={(ind, "T"): (Decimal("5"), "kg")})
    good_first = [_rec("d", ind, "T", True, Decimal("5"), "kg"),
                  _rec("d", ind, "T", True, Decimal("9"), "kg")]
    bad_first = list(reversed(good_first))
    assert acc_de(labels, good_first, registry) == 1.0
    assert acc_de(labels, bad_first, registry) == 0.0


def test_non_disclosed_records_never_match_values(registry):
    ind = registry.indicators[0].id
    labels = _labels(registry, disclosed=[ind],
                     values={(ind, "T"): (Decimal("5"), "kg")})
    records = [_rec("d", ind, "T", False, Decimal("5"), "kg")]
    assert acc_de(labels, records, registry) == 0.0


def test_unit_alias_equivalence(registry):
    ind = registry.indicators[0].id
    labels = _labels(registry, disclosed=[ind],
                     values={(ind, "T"): (Decimal("5"), "tCO2e")})
    assert acc_de(labels, [_rec("d", ind, "T", True, Decimal("5"),
                                "tonnes CO2e")], registry) == 1.0
    assert acc_de(labels, [_rec("d", ind, "T", True, Decimal("5"),
                                "TCO2E")], registry) == 1.0
    assert acc_de(labels, [_rec("d", ind, "T", True, Decimal("5"),
                                "kg")], registry) == 0.0


def test_value_match_is_exact_by_default(registry):
    ind = registry.indicators[0].id
    labels = _labels(registry, disclosed=[ind],
                     values={(ind, "T"): (Decimal("100"), "kg")})
    close = [_rec("d", ind, "T", True, Decimal("100.4"), "kg")]
    assert acc_de(labels, close, registry) == 0.0
    assert acc_de(labels, close, registry, rel_tol=0.005) == 1.0
    assert acc_de(labels, close, registry, rel_tol=0.001) == 0.0


def test_rel_tol_zero_label_requires_exact_zero(registry):
    ind = registry.indicators[0].id
    labels = _labels(registry, disclosed=[ind],
                     values={(ind, "T"): (Decimal("0"), "cases")})
    assert acc_de(labels, [_rec("d", ind, "T", True, Decimal("0"), "cases")],
                  registry, rel_tol=0.01) == 1.0
    assert acc_de(labels, [_rec("d", ind, "T", True, Decimal("0.001"), "cases")],
                  registry, rel_tol=0.01) == 0.0


def test_decimal_comparison_ignores_representation(registry):
    ind = registry.indicators[0].id
    labels = _labels(registry, disclosed=[ind],
                     values={(ind, "T"): (Decimal("12500"), "kg")})
    records = [_rec("d", ind, "T", True, Decimal("1.25E+4"), "kg")]
    assert acc_de(labels, records, registry) == 1.0


def test_disclosed_recall_ignores_false_positives(registry):
    ids = [s.id for s in registry.indicators]
    labels = _labels(registry, disclosed=ids[:2])
    records = [_rec("d", ids[0], "t", True), _rec("d", ids[5], "t", True)]
    assert disclosed_recall(labels, records, registry) == 0.5
    # acc_dc penalizes the false positive that recall ignores
    assert acc_dc(labels, records, registry) == pytest.approx(68 / 70)


def test_disclosed_recall_none_when_nothing_disclosed(registry):
    labels = _labels(registry)
    assert disclosed_recall(labels, [], registry) is None


# --------------------------------------------------------- oracle equivalence


def _random_pair(rng, registry):
    numeric = [s for s in registry.indicators if s.topics]
    disclosed = {s.id for s in registry.indicators if rng.random() < 0.4}
    values = {}
    for spec in rng.sample(numeric, k=rng.randrange(0, 12)):
        if spec.id not in disclosed:
            continue
        topic = rng.choice(spec.topics)
        unit = rng.choice(rng.choice(ALIAS_GROUPS))
        values[(spec.id, topic)] = (Decimal(rng.randrange(0, 10**6)), unit)
    labels = _labels(registry, disclosed=disclosed, values=values)

    records = []
    for spec in registry.indicators:
        if rng.random() < 0.25:
            continue  # indicator absent from predictions
        for _ in range(rng.randrange(1, 3)):
            topic = rng.choice(spec.topics)
            disclosure = rng.random() < 0.6
            value = unit = None
            if disclosure and rng.random() < 0.8:
                key = (spec.id, topic)
                if key in values and rng.random() < 0.6:
                    lv, lu = values[key]
                    value = lv if rng.random() < 0.7 else lv + 1
                    group = next(
                        (g for g in ALIAS_GROUPS
                         if lu.lower() in [u.lower() for u in g]), [lu]
                    )
                    unit = rng.choice(group) if rng.random() < 0.7 else "furlongs"
                else:
                    value = Decimal(rng.randrange(0, 10**6))
                    unit = rng.choice(rng.choice(ALIAS_GROUPS))
            records.append(_rec("doc", spec.id, topic, disclosure, value, unit))
    rng.shuffle(records)
    return labels, records


def test_metrics_match_recount_oracle(registry):
    rng = random.Random(20240814)
    aliases = UnitAliases.bundled()
    for _ in range(200):
        labels, records = _random_pair(rng, registry)
        got_dc = acc_dc(labels, records, registry)
        assert got_dc == pytest.approx(oracle_acc_dc(labels, records, registry),
                                       abs=1e-12)
        got_de = acc_de(labels, records, registry, aliases)
        want_de = oracle_acc_de(labels, records, aliases)
        if want_de is None:
            assert got_de is None
        else:
            assert got_de == pytest.approx(want_de, abs=1e-12)


# ------------------------------------------------------------------ reporting


def test_evaluate_document_report_shape(registry):
    ind = registry.indicators[0].id
    labels = _labels(registry, doc_id="doc42", disclosed=[ind],
                     values={(ind, "T"): (Decimal("5"), "kg")})
    records = [_rec("doc42", ind, "T", True, Decimal("5"), "kg")]
    report = evaluate_document(labels, records, registry, config_id="armX",
                               provider_name="mock")
    assert report.scope == "doc42"
    assert report.config_id == "armX"
    assert report.n_mq == len(registry.indicators)
    assert report.n_v == 1
    assert len(report.dc_table) == report.n_mq
    assert len(report.de_table) == 1
    assert report.acc_dc == 1.0 and report.acc_de == 1.0
    # json form must be serializable as-is
    json.dumps(report_to_json(report))


def test_aggregate_is_document_mean(registry):
    def rep(doc, dc, de, n_v):
        return EvaluationReport(
            scope=doc, config_id="c", provider_name="p", acc_dc=dc,
            acc_de=de, disclosed_recall=None, n_mq=70, n_v=n_v,
        )

    agg = aggregate_reports([rep("a", 1.0, 1.0, 3), rep("b", 0.5, None, 0)])
    assert agg.scope == "aggregate"
    assert agg.acc_dc == pytest.approx(0.75)
    assert agg.acc_de == 1.0  # mean over docs where defined
    assert agg.n_mq == 140 and agg.n_v == 3
    assert len(agg.per_document) == 2

    all_na = aggregate_reports([rep("a", 1.0, None, 0), rep("b", 0.5, None, 0)])
    assert all_na.acc_de is None


_RATES = st.floats(0, 1).map(lambda x: float(Fraction(x).limit_denominator(200)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_RATES, st.one_of(st.none(), _RATES), st.one_of(st.none(), _RATES)),
             min_size=1, max_size=12),
    st.randoms(use_true_random=False),
)
def test_aggregate_does_not_depend_on_document_order(rows, rng):
    """Every order of the same document reports gives a bit-identical
    aggregate, the correctly rounded mean of each metric."""
    reports = [
        EvaluationReport(scope=f"d{i}", config_id="c", provider_name="p", acc_dc=dc,
                         acc_de=de, disclosed_recall=recall, n_mq=70, n_v=1)
        for i, (dc, de, recall) in enumerate(rows)
    ]

    def exact(values):
        values = [v for v in values if v is not None]
        return float(sum(map(Fraction, values)) / len(values)) if values else None

    want = tuple(exact(column) for column in zip(*rows))
    for _ in range(5):
        shuffled = rng.sample(reports, len(reports))
        agg = aggregate_reports(shuffled)
        assert (agg.acc_dc, agg.acc_de, agg.disclosed_recall) == want


def test_aggregate_of_equal_rates_is_that_rate():
    """166 documents that each score 67/70 aggregate to 67/70, where a
    float sum drifts in its last bits."""
    rate = 67 / 70
    assert sum([rate] * 166) / 166 != rate
    reports = [
        EvaluationReport(scope=f"d{i}", config_id="c", provider_name="p", acc_dc=rate,
                         acc_de=None, disclosed_recall=None, n_mq=70, n_v=0)
        for i in range(166)
    ]
    assert aggregate_reports(reports).acc_dc == rate


def test_mean_of_values_that_are_not_finite_is_the_float_mean():
    """An intensity from a record value too large for a float is infinite:
    it has no exact fraction, so such a mean is the float one."""
    inf, nan = float("inf"), float("nan")
    assert mean([inf, 1.0]) == inf and mean([-inf, -inf]) == -inf
    assert math.isnan(mean([inf, -inf])) and math.isnan(mean([nan, 1.0]))


def test_aggregate_rejects_empty():
    with pytest.raises(EvaluationError):
        aggregate_reports([])


def test_comparison_table_marks_na(registry):
    report = EvaluationReport(
        scope="aggregate", config_id="benchmark", provider_name="p",
        acc_dc=0.5, acc_de=None, disclosed_recall=None, n_mq=70, n_v=0,
    )
    table = comparison_table([report])
    assert "benchmark" in table
    assert "N/A" in table
    assert "0.500" in table


# ------------------------------------------------------------------- labels


def test_load_labels_round_trip(fixture_root, registry, corpus_labels):
    assert len(corpus_labels) == 10
    labels = corpus_labels["doc00"]
    assert len(labels.disclosure_labels) == len(registry.indicators)
    assert all(isinstance(v, Decimal) for v, _ in labels.value_labels.values())


def _write_labels(tmp_path, objs):
    path = tmp_path / "labels.jsonl"
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n",
                    encoding="utf-8")
    return path


def _full_disclosure_map(registry, disclosed=()):
    return {s.id: s.id in disclosed for s in registry.indicators}


def test_labels_must_cover_registry(tmp_path, registry):
    partial = {registry.indicators[0].id: True}
    path = _write_labels(tmp_path, [
        {"doc_id": "d", "disclosure_labels": partial, "value_labels": []},
    ])
    with pytest.raises(EvaluationError, match="cover the registry"):
        load_labels(path, registry)


def test_labels_reject_unknown_indicator(tmp_path, registry):
    full = _full_disclosure_map(registry)
    full["Z9.99-made-up"] = True
    path = _write_labels(tmp_path, [
        {"doc_id": "d", "disclosure_labels": full, "value_labels": []},
    ])
    with pytest.raises(EvaluationError, match="unknown"):
        load_labels(path, registry)


def test_labels_reject_value_without_disclosure(tmp_path, registry):
    ind = registry.indicators[0].id
    path = _write_labels(tmp_path, [
        {
            "doc_id": "d",
            "disclosure_labels": _full_disclosure_map(registry),
            "value_labels": [
                {"indicator_id": ind, "topic": "T", "value": 5, "unit": "kg"},
            ],
        },
    ])
    with pytest.raises(EvaluationError, match="disclosure label is false"):
        load_labels(path, registry)


def test_labels_reject_duplicate_doc(tmp_path, registry):
    obj = {
        "doc_id": "d",
        "disclosure_labels": _full_disclosure_map(registry),
        "value_labels": [],
    }
    path = _write_labels(tmp_path, [obj, obj])
    with pytest.raises(EvaluationError, match="duplicate doc_id"):
        load_labels(path, registry)


def test_labels_reject_duplicate_value_key(tmp_path, registry):
    ind = registry.indicators[0].id
    entry = {"indicator_id": ind, "topic": "T", "value": 5, "unit": "kg"}
    path = _write_labels(tmp_path, [
        {
            "doc_id": "d",
            "disclosure_labels": _full_disclosure_map(registry, disclosed=[ind]),
            "value_labels": [entry, dict(entry, value=6)],
        },
    ])
    with pytest.raises(EvaluationError, match="duplicate value label"):
        load_labels(path, registry)


def test_labels_reject_bad_values(tmp_path, registry):
    ind = registry.indicators[0].id
    base = {
        "doc_id": "d",
        "disclosure_labels": _full_disclosure_map(registry, disclosed=[ind]),
    }
    for raw, pat in ((["not-a-number"], "a finite number or a numeric string, got 'not-a"),
                     (["NaN"], "a finite number or a numeric string, got 'NaN'")):
        path = _write_labels(tmp_path, [
            dict(base, value_labels=[
                {"indicator_id": ind, "topic": "T", "value": raw[0], "unit": "kg"},
            ]),
        ])
        with pytest.raises(EvaluationError, match=pat):
            load_labels(path, registry)


@pytest.mark.parametrize(
    "edit, message",
    [
        # once bool("false"): a gold label flipped to disclosed
        (lambda o, ind: o["disclosure_labels"].update({ind: "false"}),
         "disclosure_labels['A1.1-nox'] must be true or false, got 'false'"),
        (lambda o, ind: o["disclosure_labels"].update({ind: 0}),
         "disclosure_labels['A1.1-nox'] must be true or false, got 0"),
        (lambda o, ind: o.update(doc_id=7), "doc_id must be a string, got 7"),
        (lambda o, ind: o["value_labels"][0].update(unit=None),
         "value_labels[0].unit must be a string, got None"),
        (lambda o, ind: o["value_labels"][0].update(topic=["T"]),
         "value_labels[0].topic must be a string, got ['T']"),
        (lambda o, ind: o.update(value_labels={}), "value_labels must be an array, got {}"),
        (lambda o, ind: o["value_labels"][0].update(note="x"),
         "value_labels[0] has unknown fields ['note']"),
    ],
)
def test_labels_reject_fields_of_the_wrong_type(tmp_path, registry, edit, message):
    """Each once taken through str() or bool()."""
    ind = "A1.1-nox"
    obj = {
        "doc_id": "d",
        "disclosure_labels": _full_disclosure_map(registry, disclosed=[ind]),
        "value_labels": [{"indicator_id": ind, "topic": "T", "value": "1", "unit": "kg"}],
    }
    edit(obj, ind)
    path = _write_labels(tmp_path, [obj])
    with pytest.raises(EvaluationError) as caught:
        load_labels(path, registry)
    assert str(caught.value) == f"{path}:1: {message}"


def test_labels_reject_unknown_fields_and_bad_json(tmp_path, registry):
    path = _write_labels(tmp_path, [
        {"doc_id": "d", "disclosure_labels": {}, "value_labels": [],
         "surprise": 1},
    ])
    with pytest.raises(EvaluationError, match="unknown fields"):
        load_labels(path, registry)

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    with pytest.raises(EvaluationError, match="invalid JSON"):
        load_labels(bad, registry)


def test_labels_reject_empty_file(tmp_path, registry):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n", encoding="utf-8")
    with pytest.raises(EvaluationError, match="no documents"):
        load_labels(empty, registry)


def test_labels_file_that_is_not_utf8(tmp_path, registry):
    """Once an uncaught UnicodeDecodeError."""
    path = tmp_path / "labels.jsonl"
    path.write_bytes(b'{"doc_id": "\xff"}\n')
    with pytest.raises(EvaluationError, match="cannot read labels file"):
        load_labels(path, registry)


def test_labels_missing_file(tmp_path, registry):
    with pytest.raises(EvaluationError, match="cannot read"):
        load_labels(tmp_path / "absent.jsonl", registry)


def test_validate_label_set_direct(registry):
    good = _labels(registry)
    validate_label_set(good, registry)
    bad = LabelSet(doc_id="d", disclosure_labels={}, value_labels={})
    with pytest.raises(EvaluationError):
        validate_label_set(bad, registry)


# ---------------------------------------------------------------- run_ablation


class _SelectiveEmbedder(HashEmbedder):
    """Fails whenever asked to embed text mentioning the poisoned marker."""

    name = "selective-hash"

    def __init__(self, marker):
        super().__init__()
        self.marker = marker

    def embed(self, texts, out=None):
        if any(self.marker in t for t in texts):
            raise ProviderError(f"refusing text containing {self.marker!r}")
        return super().embed(texts, out)


def test_run_ablation_requires_labels(registry, corpus_docs, corpus_labels,
                                      offline_providers):
    partial = {k: v for k, v in corpus_labels.items() if k != "doc00"}
    with pytest.raises(EvaluationError, match="doc00"):
        run_ablation(corpus_docs[:1], registry, partial,
                     [ABLATION_ARMS["benchmark"]], offline_providers)


def test_run_ablation_isolates_document_failures(registry, corpus_docs,
                                                 corpus_labels,
                                                 offline_providers):
    import dataclasses

    docs = corpus_docs[:3]
    poisoned = docs[2].company
    providers = dataclasses.replace(
        offline_providers, embedder=_SelectiveEmbedder(poisoned)
    )
    reports = run_ablation(docs, registry, corpus_labels,
                           [ABLATION_ARMS["enhanced_rag_knowledge"]], providers)
    (report,) = reports
    assert len(report.per_document) == 2
    assert len(report.errors) == 1
    assert docs[2].doc_id in report.errors[0]


def test_run_ablation_zero_successes_yields_empty_report(registry, corpus_docs,
                                                         corpus_labels,
                                                         offline_providers):
    import dataclasses

    docs = corpus_docs[2:3]
    providers = dataclasses.replace(
        offline_providers, embedder=_SelectiveEmbedder(docs[0].company)
    )
    # structured arm: the company name survives block-level chunking intact
    (report,) = run_ablation(docs, registry, corpus_labels,
                             [ABLATION_ARMS["enhanced_rag_knowledge"]], providers)
    assert report.acc_dc == 0.0
    assert report.acc_de is None
    assert report.n_mq == 0
    assert report.errors


def test_evaluate_document_validates_labels_once(registry, corpus_labels, monkeypatch):
    from esgpipe import evaluation

    calls = []
    real = evaluation.validate_label_set
    monkeypatch.setattr(
        evaluation, "validate_label_set", lambda *a: calls.append(1) or real(*a)
    )
    labels = corpus_labels["doc00"]
    report = evaluate_document(labels, [], registry)
    assert len(calls) == 1
    assert report.disclosed_recall == disclosed_recall(labels, [], registry)
