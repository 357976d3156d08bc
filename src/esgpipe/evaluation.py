"""Accuracy metrics against annotated labels, and the ablation runner.

Two metrics drive everything:

- disclosure-coverage accuracy (acc_dc): the agreement rate between
  predicted and labeled disclosure booleans over ALL registry
  indicators. The companion `disclosed_recall` restricts the view to
  indicators actually labeled disclosed, for comparison.
- data-extraction accuracy (acc_de): the exact-match rate of predicted
  numeric values over the labeled disclosed values; a value matches
  only if the numbers are equal after canonicalization and the units
  are equivalent under the bundled alias table. With zero labeled
  values the metric is undefined and reported as N/A, never as 0.

Labels ship as one JSON object per document (one per line) with the
map ``disclosure_labels`` and the list ``value_labels``, typed as
README's "Input files" table says; disclosure labels must cover the
registry exactly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import _read
from .agent import ExtractionRecord
from .errors import EvaluationError, PipelineError
from .metadata import MetadataRegistry
from .pipeline import AblationConfig, KbSource, PipelineConfig, run_corpus
from .providers import ProviderSet

logger = logging.getLogger(__name__)


@dataclass
class LabelSet:
    doc_id: str
    disclosure_labels: dict[str, bool]
    value_labels: dict[tuple[str, str], tuple[Decimal, str]]


def validate_label_set(labels: LabelSet, registry: MetadataRegistry) -> None:
    registry_ids = {spec.id for spec in registry.indicators}
    labeled_ids = set(labels.disclosure_labels)
    missing = registry_ids - labeled_ids
    extra = labeled_ids - registry_ids
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)[:5]}")
        if extra:
            parts.append(f"unknown {sorted(extra)[:5]}")
        raise EvaluationError(
            f"labels for {labels.doc_id!r} do not cover the registry exactly: "
            + "; ".join(parts)
        )
    for indicator_id, topic in labels.value_labels:
        if not labels.disclosure_labels.get(indicator_id, False):
            raise EvaluationError(
                f"labels for {labels.doc_id!r}: value label for {indicator_id!r} "
                f"({topic!r}) but disclosure label is false"
            )


_LABEL_FIELDS = frozenset({"doc_id", "disclosure_labels", "value_labels"})
_VALUE_FIELDS = frozenset({"indicator_id", "topic", "value", "unit"})


def load_labels(path: str | Path, registry: MetadataRegistry) -> dict[str, LabelSet]:
    """Read the one-object-per-line labels file, validated."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise EvaluationError(f"cannot read labels file {path}: {exc}") from exc
    out: dict[str, LabelSet] = {}
    E = EvaluationError
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise E(f"{where}: invalid JSON: {exc}") from exc
        obj = _read.obj(obj, (where,), E, _LABEL_FIELDS, _LABEL_FIELDS)
        doc_id = _read.text(obj["doc_id"], (where, "doc_id"), E)
        flags = _read.obj(obj["disclosure_labels"], (where, "disclosure_labels"), E)
        disclosure = {k: _read.flag(v, (where, "disclosure_labels", k), E) for k, v in flags.items()}
        values: dict[tuple[str, str], tuple[Decimal, str]] = {}
        for i, entry in enumerate(_read.array(obj["value_labels"], (where, "value_labels"), E)):
            at = (where, "value_labels", i)
            entry = _read.obj(entry, at, E, _VALUE_FIELDS, _VALUE_FIELDS)
            key = (
                _read.text(entry["indicator_id"], (*at, "indicator_id"), E),
                _read.text(entry["topic"], (*at, "topic"), E).strip(),
            )
            if key in values:
                raise E(f"{where}: duplicate value label {key}")
            values[key] = (
                _read.decimal(entry["value"], (*at, "value"), E),
                _read.text(entry["unit"], (*at, "unit"), E).strip(),
            )
        if doc_id in out:
            raise E(f"{where}: duplicate doc_id {doc_id!r}")
        labels = LabelSet(doc_id=doc_id, disclosure_labels=disclosure, value_labels=values)
        validate_label_set(labels, registry)
        out[doc_id] = labels
    if not out:
        raise EvaluationError(f"{path}: labels file contains no documents")
    return out


class UnitAliases:
    """Unit equivalence via the bundled alias groups (case-insensitive)."""

    def __init__(self, groups: Sequence[Sequence[str]]):
        self._group_of: dict[str, int] = {}
        for gid, group in enumerate(groups):
            for unit in group:
                self._group_of[unit.strip().lower()] = gid

    @classmethod
    def bundled(cls) -> "UnitAliases":
        data = json.loads(
            resources.files("esgpipe").joinpath("data/unit_aliases.json").read_text("utf-8")
        )
        return cls(data["groups"])

    def equivalent(self, a: str | None, b: str | None) -> bool:
        na = (a or "").strip().lower()
        nb = (b or "").strip().lower()
        if na == nb:
            return True
        ga = self._group_of.get(na)
        return ga is not None and ga == self._group_of.get(nb)


def _predicted_disclosure(records: Sequence[ExtractionRecord]) -> dict[str, bool]:
    out: dict[str, bool] = {}
    for r in records:
        out[r.indicator_id] = out.get(r.indicator_id, False) or r.disclosure
    return out


def dc_rows(
    labels: LabelSet, records: Sequence[ExtractionRecord], registry: MetadataRegistry
) -> list[dict]:
    """Per-indicator disclosure match table."""
    validate_label_set(labels, registry)
    predicted = _predicted_disclosure(records)
    rows = []
    for spec in registry.indicators:
        labeled = labels.disclosure_labels[spec.id]
        pred = predicted.get(spec.id, False)
        rows.append(
            {
                "indicator_id": spec.id,
                "labeled": labeled,
                "predicted": pred,
                "match": labeled == pred,
            }
        )
    return rows


def _share(rows: Sequence[dict], key: str = "match") -> float | None:
    """The share of `rows` whose `key` is true; None for no rows."""
    return sum(r[key] for r in rows) / len(rows) if rows else None


def acc_dc(
    labels: LabelSet, records: Sequence[ExtractionRecord], registry: MetadataRegistry
) -> float | None:
    """None (undefined) when the registry has no indicators."""
    return _share(dc_rows(labels, records, registry))


def disclosed_recall(
    labels: LabelSet, records: Sequence[ExtractionRecord], registry: MetadataRegistry
) -> float | None:
    """Agreement restricted to indicators labeled disclosed (the prose
    reading of the coverage metric); None when nothing is labeled
    disclosed."""
    return _recall_from_dc(dc_rows(labels, records, registry))


def _recall_from_dc(rows: Sequence[dict]) -> float | None:
    return _share([r for r in rows if r["labeled"]], "predicted")


def _values_match(
    labeled: tuple[Decimal, str],
    predicted: tuple[Decimal | None, str | None] | None,
    aliases: UnitAliases,
    rel_tol: float | None,
) -> bool:
    if predicted is None or predicted[0] is None:
        return False
    lv, lu = labeled
    pv, pu = predicted
    if not aliases.equivalent(lu, pu):
        return False
    if rel_tol is None:
        return pv == lv
    if lv == 0:
        return pv == 0
    return abs(float((pv - lv) / lv)) <= rel_tol


def de_rows(
    labels: LabelSet,
    records: Sequence[ExtractionRecord],
    registry: MetadataRegistry,
    aliases: UnitAliases | None = None,
    rel_tol: float | None = None,
) -> list[dict]:
    """Per-(indicator, topic) value match table over the labeled values."""
    aliases = aliases or UnitAliases.bundled()
    by_key: dict[tuple[str, str], ExtractionRecord] = {}
    for r in records:
        key = (r.indicator_id, r.topic.strip())
        if key not in by_key and r.disclosure:
            by_key[key] = r
    rows = []
    for (indicator_id, topic), (lv, lu) in sorted(labels.value_labels.items()):
        record = by_key.get((indicator_id, topic))
        predicted = (record.value, record.unit) if record is not None else None
        rows.append(
            {
                "indicator_id": indicator_id,
                "topic": topic,
                "labeled_value": lv,
                "labeled_unit": lu,
                "predicted_value": record.value if record else None,
                "predicted_unit": record.unit if record else None,
                "match": _values_match((lv, lu), predicted, aliases, rel_tol),
            }
        )
    return rows


def acc_de(
    labels: LabelSet,
    records: Sequence[ExtractionRecord],
    registry: MetadataRegistry,
    aliases: UnitAliases | None = None,
    rel_tol: float | None = None,
) -> float | None:
    """None (undefined, reported N/A) when no values are labeled."""
    return _share(de_rows(labels, records, registry, aliases, rel_tol))


@dataclass
class EvaluationReport:
    scope: str  # doc_id, or "aggregate"
    config_id: str
    provider_name: str
    acc_dc: float
    acc_de: float | None
    disclosed_recall: float | None
    n_mq: int
    n_v: int
    dc_table: list[dict] = field(default_factory=list)
    de_table: list[dict] = field(default_factory=list)
    per_document: list["EvaluationReport"] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def evaluate_document(
    labels: LabelSet,
    records: Sequence[ExtractionRecord],
    registry: MetadataRegistry,
    config_id: str = "",
    provider_name: str = "",
    aliases: UnitAliases | None = None,
    rel_tol: float | None = None,
) -> EvaluationReport:
    aliases = aliases or UnitAliases.bundled()
    dc = dc_rows(labels, records, registry)
    de = de_rows(labels, records, registry, aliases, rel_tol)
    return EvaluationReport(
        scope=labels.doc_id,
        config_id=config_id,
        provider_name=provider_name,
        acc_dc=_share(dc),
        acc_de=_share(de),
        disclosed_recall=_recall_from_dc(dc),
        n_mq=len(dc),
        n_v=len(de),
        dc_table=dc,
        de_table=de,
    )


def mean(values: Sequence[float]) -> float:
    """The mean of `values`, correctly rounded: exact sums of the floats
    as fractions, so the result does not depend on their order."""
    try:
        return float(sum(map(Fraction, values)) / len(values))
    except (OverflowError, ValueError):  # an infinity or NaN, which no fraction holds
        return sum(values) / len(values)


def aggregate_reports(
    reports: Sequence[EvaluationReport],
    config_id: str = "",
    provider_name: str = "",
    errors: Sequence[str] = (),
) -> EvaluationReport:
    """Document-mean aggregate. acc_de averages only documents where it
    is defined; it is None when no document defines it."""
    if not reports:
        raise EvaluationError("cannot aggregate zero document reports")
    de_values = [r.acc_de for r in reports if r.acc_de is not None]
    recalls = [r.disclosed_recall for r in reports if r.disclosed_recall is not None]
    return EvaluationReport(
        scope="aggregate",
        config_id=config_id,
        provider_name=provider_name,
        acc_dc=mean([r.acc_dc for r in reports]),
        acc_de=mean(de_values) if de_values else None,
        disclosed_recall=mean(recalls) if recalls else None,
        n_mq=sum(r.n_mq for r in reports),
        n_v=sum(r.n_v for r in reports),
        per_document=list(reports),
        errors=list(errors),
    )


def evaluate_arm(
    config_id: str,
    provider_name: str,
    outcomes: Iterable[tuple[str, Sequence[ExtractionRecord] | PipelineError]],
    labels_by_doc: dict[str, LabelSet],
    registry: MetadataRegistry,
    rel_tol: float | None = None,
) -> EvaluationReport:
    """One arm's aggregate report over (doc_id, its records, or the error
    that stopped the arm there) pairs. A document that failed, or whose
    scoring fails, is listed in `errors` and left out of the means; with
    no document scored the report is empty."""
    aliases = UnitAliases.bundled()
    reports: list[EvaluationReport] = []
    errors: list[str] = []
    for doc_id, outcome in outcomes:
        if not isinstance(outcome, PipelineError):
            try:
                labels = labels_by_doc[doc_id]
                reports.append(evaluate_document(
                    labels, outcome, registry, config_id, provider_name, aliases, rel_tol
                ))
                continue
            except PipelineError as exc:
                outcome = exc
        logger.error("arm %s failed on %s: %s", config_id, doc_id, outcome)
        errors.append(f"{doc_id}: {outcome}")
    if reports:
        return aggregate_reports(reports, config_id, provider_name, errors)
    return EvaluationReport(
        "aggregate", config_id, provider_name, acc_dc=0.0, acc_de=None,
        disclosed_recall=None, n_mq=0, n_v=0, errors=errors,
    )


def run_ablation(
    docs: Sequence[Any],
    registry: MetadataRegistry,
    labels_by_doc: dict[str, LabelSet],
    configs: Sequence[AblationConfig],
    providers: ProviderSet,
    base_cfg: PipelineConfig | None = None,
    records_sink: dict[str, list[ExtractionRecord]] | None = None,
    rel_tol: float | None = None,
    jobs: int = 1,
    source_kb: KbSource | None = None,
) -> list[EvaluationReport]:
    """Run each arm over the corpus; one aggregate report per arm, from
    `evaluate_arm`.

    A document failing inside one arm is reported in that report's
    errors list and excluded from its means; other documents and arms
    proceed. `records_sink`, when given, receives config_id -> all
    records. `source_kb` gives each document's KB once per preprocessing
    mode, as in `run_corpus`: by default it builds a StructuredDocument's
    in memory, and the CLI's reads `kb_cache/`. `rel_tol` is the relative
    tolerance for value matches (None: exact); `jobs` is the number of
    extraction threads.
    """
    missing = [d.doc_id for d in docs if d.doc_id not in labels_by_doc]
    if missing:
        raise EvaluationError(f"no labels for documents: {missing}")

    cfg = base_cfg or PipelineConfig()
    outcomes: dict[str, list] = {a.config_id: [] for a in configs}
    for result in run_corpus(docs, registry, providers, cfg, configs, jobs=jobs,
                             source_kb=source_kb):
        for arm_id, arm_outcomes in outcomes.items():
            outcome = result.errors.get(arm_id) or result.records[arm_id]
            arm_outcomes.append((result.doc_id, outcome))
    if records_sink is not None:
        for arm_id, arm_outcomes in outcomes.items():
            records_sink[arm_id] = [
                r for _doc, o in arm_outcomes if not isinstance(o, PipelineError) for r in o
            ]
    return [
        evaluate_arm(a.config_id, providers.chat.name, outcomes[a.config_id], labels_by_doc,
                     registry, rel_tol)
        for a in configs
    ]


def _fmt(metric: float | None) -> str:
    return "N/A" if metric is None else f"{metric:.3f}"


def comparison_table(reports: Sequence[EvaluationReport]) -> str:
    """Human-readable arm comparison (config, Acc_DC, Acc_DE, N docs)."""
    header = f"{'config':<26} {'Acc_DC':>8} {'Acc_DE':>8} {'N docs':>7}"
    lines = [header, "-" * len(header)]
    for r in reports:
        n_docs = len(r.per_document) if r.per_document else (0 if r.scope == "aggregate" else 1)
        lines.append(
            f"{r.config_id:<26} {_fmt(r.acc_dc):>8} {_fmt(r.acc_de):>8} {n_docs:>7}"
        )
    return "\n".join(lines)


def report_to_json(report: EvaluationReport) -> dict:
    """JSON-safe dict; Decimal values become strings."""

    def row(d: dict) -> dict:
        return {
            k: (str(v) if isinstance(v, Decimal) else v) for k, v in d.items()
        }

    return {
        "scope": report.scope,
        "config_id": report.config_id,
        "provider_name": report.provider_name,
        "acc_dc": report.acc_dc,
        "acc_de": report.acc_de,
        "disclosed_recall": report.disclosed_recall,
        "n_mq": report.n_mq,
        "n_v": report.n_v,
        "dc_table": [row(r) for r in report.dc_table],
        "de_table": [row(r) for r in report.de_table],
        "per_document": [report_to_json(r) for r in report.per_document],
        "errors": report.errors,
    }
