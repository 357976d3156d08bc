"""Disclosure-rate tiers, emission intensity, and key-action theme tables."""

from __future__ import annotations

import json
import random
from decimal import Decimal

import pytest

from esgpipe.agent import ExtractionRecord
from esgpipe.analytics import (
    UNCATEGORIZED_THEME,
    ThemeMap,
    Tier,
    disclosure_csv_rows,
    disclosure_stats,
    emission_intensity,
    frequency_csv_rows,
    industry_mean_intensity,
    intensity_csv_rows,
    key_action_frequencies,
    stats_to_json,
    tier_for_rate,
)
from esgpipe.docmodel import StructuredDocument
from esgpipe.errors import AnalyticsError
from esgpipe.metadata import Category, Kind


def _rec(doc, ind, disclosure=True, value=None, unit=None, action=None,
         topic="T"):
    return ExtractionRecord(
        doc_id=doc, indicator_id=ind, disclosure=disclosure, kpi="k",
        topic=topic, value=value, unit=unit, action=action,
    )


def _doc(doc_id, industry="Utilities", cap=1000.0):
    return StructuredDocument(
        doc_id=doc_id, company=f"{doc_id} Ltd", industry=industry,
        market_cap_mhkd=cap, outline=None, blocks=(), tables=(),
    )


def _numeric_ids(registry, category=None):
    return [
        s.id for s in registry.indicators
        if s.kind is Kind.NUMERICAL and (category is None or s.category is category)
    ]


# ---------------------------------------------------------------------- tiers


def test_tier_boundaries_are_strict():
    assert tier_for_rate(1.0) == Tier.EXCELLENT
    assert tier_for_rate(0.8001) == Tier.EXCELLENT
    assert tier_for_rate(0.8) == Tier.MODERATE
    assert tier_for_rate(0.6001) == Tier.MODERATE
    assert tier_for_rate(0.6) == Tier.POOR
    assert tier_for_rate(0.4001) == Tier.POOR
    assert tier_for_rate(0.4) == Tier.INSUFFICIENT
    assert tier_for_rate(0.0) == Tier.INSUFFICIENT


def test_tier_rejects_out_of_range():
    for rate in (-0.1, 1.1):
        with pytest.raises(AnalyticsError):
            tier_for_rate(rate)


# ----------------------------------------------------------- disclosure rates


def test_disclosure_rates_recount(registry):
    env = _numeric_ids(registry, Category.E)
    soc = _numeric_ids(registry, Category.S)
    assert len(env) == 12 and len(soc) == 18
    total = len(_numeric_ids(registry))
    assert total == 34

    records = [_rec("docA", i) for i in env[:6] + soc[:9]]
    records += [_rec("docB", i) for i in env]
    (stat,) = disclosure_stats(records, registry)
    assert stat.scope == "corpus"
    assert stat.n_companies == 2
    assert stat.env_rate == pytest.approx((6 / 12 + 12 / 12) / 2)
    assert stat.soc_rate == pytest.approx((9 / 18 + 0) / 2)
    assert stat.overall_rate == pytest.approx((15 / total + 12 / total) / 2)
    assert stat.tier == tier_for_rate(stat.overall_rate)


def test_disclosure_ignores_textual_and_negative_records(registry):
    env = _numeric_ids(registry, Category.E)
    textual = next(s.id for s in registry.indicators if s.kind is Kind.TEXTUAL)
    records = [
        _rec("docA", env[0]),
        _rec("docA", textual),               # textual: excluded from rates
        _rec("docA", env[1], disclosure=False),  # negative: not disclosed
        _rec("docA", env[0]),                # duplicate: counted once
    ]
    (stat,) = disclosure_stats(records, registry)
    assert stat.env_rate == pytest.approx(1 / 12)


def test_disclosure_textual_only_doc_scores_zero(registry):
    textual = next(s.id for s in registry.indicators if s.kind is Kind.TEXTUAL)
    (stat,) = disclosure_stats([_rec("docA", textual)], registry)
    assert stat.n_companies == 1
    assert stat.overall_rate == 0.0
    assert stat.tier == Tier.INSUFFICIENT


def test_disclosure_empty_records(registry):
    assert disclosure_stats([], registry) == []


def test_disclosure_by_industry(registry):
    env = _numeric_ids(registry, Category.E)
    docs = [_doc("d1", "Utilities"), _doc("d2", "Utilities"),
            _doc("d3", "Financials")]
    records = [_rec("d1", i) for i in env]
    records += [_rec("d2", i) for i in env[:6]]
    records += [_rec("d3", i) for i in env[:3]]
    stats = disclosure_stats(records, registry, grouping="by-industry",
                             docs=docs)
    by_scope = {s.scope: s for s in stats}
    assert set(by_scope) == {"Utilities", "Financials"}
    assert by_scope["Utilities"].n_companies == 2
    assert by_scope["Utilities"].env_rate == pytest.approx((1.0 + 0.5) / 2)
    assert by_scope["Financials"].env_rate == pytest.approx(3 / 12)


def test_disclosure_by_industry_requires_docs(registry):
    records = [_rec("d1", _numeric_ids(registry)[0])]
    with pytest.raises(AnalyticsError, match="document list"):
        disclosure_stats(records, registry, grouping="by-industry")
    with pytest.raises(AnalyticsError, match="unknown documents"):
        disclosure_stats(records, registry, grouping="by-industry",
                         docs=[_doc("other")])
    with pytest.raises(AnalyticsError, match="unknown grouping"):
        disclosure_stats(records, registry, grouping="sideways")


def test_disclosure_stats_random_recount(registry):
    env = set(_numeric_ids(registry, Category.E))
    soc = set(_numeric_ids(registry, Category.S))
    numeric = set(_numeric_ids(registry))
    rng = random.Random(424242)
    all_ids = [s.id for s in registry.indicators]
    for _ in range(30):
        records = []
        expected = {}
        for d in range(rng.randrange(1, 5)):
            doc = f"doc{d}"
            chosen = set(rng.sample(all_ids, k=rng.randrange(0, 40)))
            for ind in sorted(chosen):
                records.append(_rec(doc, ind))
            # noise that keeps the doc in scope without moving the rates
            records.append(_rec(doc, all_ids[0], disclosure=False))
            got = chosen & numeric
            expected[doc] = (
                len(got & env) / len(env),
                len(got & soc) / len(soc),
                len(got) / len(numeric),
            )
        (stat,) = disclosure_stats(records, registry)
        n = len(expected)
        assert stat.env_rate == pytest.approx(
            sum(e[0] for e in expected.values()) / n, abs=1e-12)
        assert stat.soc_rate == pytest.approx(
            sum(e[1] for e in expected.values()) / n, abs=1e-12)
        assert stat.overall_rate == pytest.approx(
            sum(e[2] for e in expected.values()) / n, abs=1e-12)


# ------------------------------------------------------------------ intensity


def test_intensity_scale(registry):
    docs = [_doc("d1", cap=2000.0)]
    records = [
        _rec("d1", "A1.2-scope1", value=Decimal("5000"), unit="tCO2e"),
        _rec("d1", "A1.2-scope2", value=Decimal("1000"), unit="tCO2e"),
    ]
    (stat,) = emission_intensity(records, docs)
    assert stat.scope1_intensity == pytest.approx(2.5)
    assert stat.scope2_intensity == pytest.approx(0.5)
    # intensity times cap recovers the emission value
    assert stat.scope1_intensity * 2000.0 == pytest.approx(5000.0)


def test_intensity_missing_emission_is_none_not_zero(registry):
    docs = [_doc("d1", cap=100.0)]
    records = [_rec("d1", "A1.2-scope1", value=Decimal("50"), unit="tCO2e")]
    (stat,) = emission_intensity(records, docs)
    assert stat.scope1_intensity == pytest.approx(0.5)
    assert stat.scope2_intensity is None


def test_intensity_skips_docs_without_market_cap():
    docs = [_doc("d1", cap=None), _doc("d2", cap=10.0)]
    stats = emission_intensity([], docs)
    assert [s.doc_id for s in stats] == ["d2"]


def test_intensity_rejects_non_positive_cap():
    for cap in (0.0, -5.0):
        with pytest.raises(AnalyticsError, match="d1"):
            emission_intensity([], [_doc("d1", cap=cap)])


def test_intensity_ignores_unusable_records():
    docs = [_doc("d1", cap=10.0)]
    records = [
        _rec("d1", "A1.2-scope1", disclosure=False),
        _rec("d1", "A1.2-scope1", value=None),
        _rec("d2", "A1.2-scope1", value=Decimal("7"), unit="tCO2e"),
    ]
    (stat,) = emission_intensity(records, docs)
    assert stat.scope1_intensity is None


def test_industry_mean_intensity():
    docs = [_doc("d1", "Utilities", 10.0), _doc("d2", "Utilities", 10.0),
            _doc("d3", "Financials", 10.0)]
    records = [
        _rec("d1", "A1.2-scope1", value=Decimal("10"), unit="tCO2e"),
        _rec("d2", "A1.2-scope1", value=Decimal("30"), unit="tCO2e"),
        _rec("d3", "A1.2-scope2", value=Decimal("50"), unit="tCO2e"),
    ]
    stats = emission_intensity(records, docs)
    means = industry_mean_intensity(stats, docs)
    assert means["Utilities"][0] == pytest.approx(2.0)  # mean(1.0, 3.0)
    assert means["Utilities"][1] is None
    assert means["Financials"] == (None, pytest.approx(5.0))


# ------------------------------------------------------------------- themes


def test_theme_assignment_first_match_wins():
    tm = ThemeMap({"First": ["solar"], "Second": ["solar", "wind"]})
    assert tm.assign("New SOLAR farm") == "First"
    assert tm.assign("offshore wind build-out") == "Second"
    assert tm.assign("nothing relevant") == UNCATEGORIZED_THEME


def test_theme_shares_sum_to_one_before_cut():
    tm = ThemeMap({"GHG": ["greenhouse gas", "decarbonisation", "carbon"]})
    records = [
        _rec("d", "x", action="cut greenhouse gas output via decarbonisation"),
        _rec("d", "x", action="carbon programme"),
    ]
    (table,) = key_action_frequencies(records, tm, top_n=10)
    shares = [share for _, share in table.entries]
    assert sum(shares) == pytest.approx(1.0)
    assert table.n_actions == 2
    # hits: greenhouse gas 1, decarbonisation 1, carbon 2 (substring of both)
    assert dict(table.entries)["carbon"] == pytest.approx(0.5)


def test_theme_tables_ordering_and_cut():
    tm = ThemeMap({"Busy": ["alpha", "beta", "gamma"], "Quiet": ["delta"]})
    records = [_rec("d", "x", action="alpha beta gamma") for _ in range(3)]
    records += [_rec("d", "x", action="delta")]
    records += [_rec("d", "x", action="unmatched action text")]
    tables = key_action_frequencies(records, tm, top_n=2)
    assert [t.theme for t in tables] == ["Busy", "Quiet", UNCATEGORIZED_THEME]
    busy = tables[0]
    assert len(busy.entries) == 2  # top-2 cut of three equal shares
    assert busy.entries == [("alpha", pytest.approx(1 / 3)),
                            ("beta", pytest.approx(1 / 3))]
    assert tables[2].entries == []
    assert tables[2].n_actions == 1


def test_theme_frequencies_ignore_non_disclosures():
    tm = ThemeMap({"GHG": ["carbon"]})
    records = [
        _rec("d", "x", disclosure=False, action="carbon plan"),
        _rec("d", "x", action=None),
    ]
    assert key_action_frequencies(records, tm) == []


def test_bundled_theme_map_loads():
    tm = ThemeMap.bundled()
    assert tm.assign("installing solar panels") != UNCATEGORIZED_THEME


# --------------------------------------------------------------- csv and json


def test_csv_row_shapes(registry):
    docs = [_doc("d1", cap=10.0)]
    records = [
        _rec("d1", "A1.2-scope1", value=Decimal("10"), unit="tCO2e",
             action="solar rollout"),
    ]
    disclosure = disclosure_stats(records, registry)
    intensity = emission_intensity(records, docs)
    freq = key_action_frequencies(records)

    d_rows = disclosure_csv_rows(disclosure)
    assert d_rows[0] == ["scope", "env_rate", "soc_rate", "overall_rate",
                         "tier", "n_companies"]
    assert all(len(r) == 6 for r in d_rows)

    i_rows = intensity_csv_rows(intensity)
    assert i_rows[0] == ["doc_id", "scope1_intensity", "scope2_intensity"]
    assert i_rows[1][1] == "1.000000"
    assert i_rows[1][2] == ""  # missing value stays blank, never zero

    f_rows = frequency_csv_rows(freq)
    assert f_rows[0] == ["theme", "phrase", "share", "n_actions"]
    assert all(len(r) == 4 for r in f_rows)

    json.dumps(stats_to_json(disclosure, intensity, freq))
