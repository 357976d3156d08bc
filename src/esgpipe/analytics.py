"""Corpus-level analyses over extraction records.

Three views: disclosure rates with rating tiers, market-cap-normalized
emission intensity, and key-action theme frequencies. Disclosure rates
use numeric indicators only (12 environmental, 18 social, 34 in all
including the 4 governance ones) with equal weight per indicator, per
company, then per industry. Tiers rate the overall numeric rate:
Excellent above 0.8, Moderate above 0.6, Poor above 0.4, Insufficient
otherwise; every boundary is strict.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .agent import ExtractionRecord
from .docmodel import StructuredDocument
from .errors import AnalyticsError
from .metadata import Category, Kind, MetadataRegistry

logger = logging.getLogger(__name__)

UNCATEGORIZED_THEME = "Uncategorized"

SCOPE1_INDICATOR = "A1.2-scope1"
SCOPE2_INDICATOR = "A1.2-scope2"


class Tier:
    EXCELLENT = "Excellent"
    MODERATE = "Moderate"
    POOR = "Poor"
    INSUFFICIENT = "Insufficient"


def tier_for_rate(rate: float) -> str:
    if not 0.0 <= rate <= 1.0:
        raise AnalyticsError(f"rate {rate!r} outside [0, 1]")
    if rate > 0.8:
        return Tier.EXCELLENT
    if rate > 0.6:
        return Tier.MODERATE
    if rate > 0.4:
        return Tier.POOR
    return Tier.INSUFFICIENT


@dataclass
class DisclosureStats:
    scope: str  # industry name, or "corpus"
    env_rate: float
    soc_rate: float
    overall_rate: float
    tier: str
    n_companies: int


@dataclass
class IntensityStat:
    doc_id: str
    scope1_intensity: float | None
    scope2_intensity: float | None


@dataclass
class TermFrequencyTable:
    theme: str
    entries: list[tuple[str, float]]  # (phrase, share), top_n, desc
    top_n: int
    n_actions: int


def _numeric_ids(registry: MetadataRegistry, category: Category | None = None) -> set[str]:
    return {
        spec.id
        for spec in registry.indicators
        if spec.kind is Kind.NUMERICAL and (category is None or spec.category is category)
    }


def _company_rates(
    records: Sequence[ExtractionRecord], registry: MetadataRegistry
) -> dict[str, tuple[float, float, float]]:
    """doc_id -> (env_rate, soc_rate, overall_rate) over numeric indicators."""
    env_ids = _numeric_ids(registry, Category.E)
    soc_ids = _numeric_ids(registry, Category.S)
    all_ids = _numeric_ids(registry)
    disclosed: dict[str, set[str]] = {}
    for r in records:
        if r.disclosure and r.indicator_id in all_ids:
            disclosed.setdefault(r.doc_id, set()).add(r.indicator_id)
    doc_ids = sorted({r.doc_id for r in records})
    out = {}
    for doc_id in doc_ids:
        got = disclosed.get(doc_id, set())
        out[doc_id] = (
            len(got & env_ids) / len(env_ids),
            len(got & soc_ids) / len(soc_ids),
            len(got & all_ids) / len(all_ids),
        )
    return out


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def disclosure_stats(
    records: Sequence[ExtractionRecord],
    registry: MetadataRegistry,
    grouping: str = "overall",
    docs: Sequence[StructuredDocument] | None = None,
) -> list[DisclosureStats]:
    """Disclosure rates per industry or for the whole corpus.

    grouping="by-industry" needs `docs` for the doc -> industry map.
    """
    rates = _company_rates(records, registry)
    if not rates:
        return []
    if grouping == "overall":
        groups = {"corpus": sorted(rates)}
    elif grouping == "by-industry":
        if docs is None:
            raise AnalyticsError("by-industry grouping requires the document list")
        industry_of = {d.doc_id: d.industry or "Unknown" for d in docs}
        missing = sorted(set(rates) - set(industry_of))
        if missing:
            raise AnalyticsError(f"records reference unknown documents: {missing[:5]}")
        groups = {}
        for doc_id in sorted(rates):
            groups.setdefault(industry_of[doc_id], []).append(doc_id)
    else:
        raise AnalyticsError(f"unknown grouping {grouping!r}")

    stats = []
    for scope in sorted(groups):
        members = groups[scope]
        env = _mean([rates[d][0] for d in members])
        soc = _mean([rates[d][1] for d in members])
        overall = _mean([rates[d][2] for d in members])
        stats.append(
            DisclosureStats(
                scope=scope,
                env_rate=env,
                soc_rate=soc,
                overall_rate=overall,
                tier=tier_for_rate(overall),
                n_companies=len(members),
            )
        )
    return stats


def _first_numeric_value(
    records: Sequence[ExtractionRecord], doc_id: str, indicator_id: str
) -> float | None:
    candidates = [
        r
        for r in records
        if r.doc_id == doc_id
        and r.indicator_id == indicator_id
        and r.disclosure
        and r.value is not None
    ]
    if not candidates:
        return None
    candidates.sort(key=lambda r: r.topic)
    return float(candidates[0].value)


def emission_intensity(
    records: Sequence[ExtractionRecord],
    docs: Sequence[StructuredDocument],
    scope1_id: str = SCOPE1_INDICATOR,
    scope2_id: str = SCOPE2_INDICATOR,
) -> list[IntensityStat]:
    """Per-document emissions per million HKD of market value.

    Documents without a market cap yield no stat; an intensity field is
    None when its emissions value is missing, never zero. A non-positive
    market cap is a validation error naming the document.
    """
    stats = []
    for doc in docs:
        if doc.market_cap_mhkd is None:
            continue
        if doc.market_cap_mhkd <= 0:
            raise AnalyticsError(
                f"document {doc.doc_id!r} has non-positive market cap "
                f"{doc.market_cap_mhkd!r}"
            )
        s1 = _first_numeric_value(records, doc.doc_id, scope1_id)
        s2 = _first_numeric_value(records, doc.doc_id, scope2_id)
        stats.append(
            IntensityStat(
                doc_id=doc.doc_id,
                scope1_intensity=None if s1 is None else s1 / doc.market_cap_mhkd,
                scope2_intensity=None if s2 is None else s2 / doc.market_cap_mhkd,
            )
        )
    return stats


def industry_mean_intensity(
    stats: Sequence[IntensityStat], docs: Sequence[StructuredDocument]
) -> dict[str, tuple[float | None, float | None]]:
    """industry -> (mean scope1 intensity, mean scope2 intensity) over
    documents where the value exists."""
    industry_of = {d.doc_id: d.industry or "Unknown" for d in docs}
    buckets: dict[str, tuple[list[float], list[float]]] = {}
    for stat in stats:
        industry = industry_of.get(stat.doc_id, "Unknown")
        s1s, s2s = buckets.setdefault(industry, ([], []))
        if stat.scope1_intensity is not None:
            s1s.append(stat.scope1_intensity)
        if stat.scope2_intensity is not None:
            s2s.append(stat.scope2_intensity)
    return {
        industry: (
            _mean(s1s) if s1s else None,
            _mean(s2s) if s2s else None,
        )
        for industry, (s1s, s2s) in sorted(buckets.items())
    }


class ThemeMap:
    """Canonical theme -> matcher phrases, applied case-insensitively.

    An action is assigned to the first theme (in declared order) whose
    phrase occurs in it; actions matching nothing fall into the
    Uncategorized bucket.
    """

    def __init__(self, themes: dict[str, Sequence[str]]):
        self.themes = {theme: [p.lower() for p in phrases] for theme, phrases in themes.items()}

    @classmethod
    def bundled(cls) -> "ThemeMap":
        data = json.loads(
            resources.files("esgpipe").joinpath("data/action_themes.json").read_text("utf-8")
        )
        return cls(data["themes"])

    def assign(self, action: str) -> str:
        lowered = action.lower()
        for theme, phrases in self.themes.items():
            if any(p in lowered for p in phrases):
                return theme
        return UNCATEGORIZED_THEME


def key_action_frequencies(
    records: Sequence[ExtractionRecord],
    theme_map: ThemeMap | None = None,
    top_n: int = 5,
) -> list[TermFrequencyTable]:
    """Per-theme phrase frequency shares over disclosed key actions.

    Within a theme, each matcher phrase's share is its hit count over
    all phrase hits in the theme, so shares sum to 1 before the top-n
    cut. Tables are ordered by action count descending, theme name
    ascending; entries by share descending, phrase ascending.
    """
    theme_map = theme_map or ThemeMap.bundled()
    actions = [r.action for r in records if r.disclosure and r.action]
    by_theme: dict[str, list[str]] = {}
    for action in actions:
        by_theme.setdefault(theme_map.assign(action), []).append(action)

    tables = []
    for theme in by_theme:
        theme_actions = by_theme[theme]
        phrase_hits: dict[str, int] = {}
        for action in theme_actions:
            lowered = action.lower()
            for phrase in theme_map.themes.get(theme, []):
                if phrase in lowered:
                    phrase_hits[phrase] = phrase_hits.get(phrase, 0) + 1
        total_hits = sum(phrase_hits.values())
        entries = [
            (phrase, count / total_hits) for phrase, count in phrase_hits.items()
        ]
        entries.sort(key=lambda e: (-e[1], e[0]))
        tables.append(
            TermFrequencyTable(
                theme=theme,
                entries=entries[:top_n],
                top_n=top_n,
                n_actions=len(theme_actions),
            )
        )
    tables.sort(key=lambda t: (-t.n_actions, t.theme))
    return tables


def stats_to_json(
    disclosure: Sequence[DisclosureStats],
    intensity: Sequence[IntensityStat],
    frequencies: Sequence[TermFrequencyTable],
) -> dict:
    return {
        "disclosure": [
            {
                "scope": s.scope,
                "env_rate": s.env_rate,
                "soc_rate": s.soc_rate,
                "overall_rate": s.overall_rate,
                "tier": s.tier,
                "n_companies": s.n_companies,
            }
            for s in disclosure
        ],
        "intensity": [
            {
                "doc_id": s.doc_id,
                "scope1_intensity": s.scope1_intensity,
                "scope2_intensity": s.scope2_intensity,
            }
            for s in intensity
        ],
        "key_actions": [
            {
                "theme": t.theme,
                "n_actions": t.n_actions,
                "entries": [{"phrase": p, "share": share} for p, share in t.entries],
            }
            for t in frequencies
        ],
    }


def disclosure_csv_rows(stats: Sequence[DisclosureStats]) -> list[list[str]]:
    """Plot-ready rows: scope, env_rate, soc_rate, overall_rate, tier,
    n_companies (header row included)."""
    rows = [["scope", "env_rate", "soc_rate", "overall_rate", "tier", "n_companies"]]
    for s in stats:
        rows.append(
            [
                s.scope,
                f"{s.env_rate:.6f}",
                f"{s.soc_rate:.6f}",
                f"{s.overall_rate:.6f}",
                s.tier,
                str(s.n_companies),
            ]
        )
    return rows


def intensity_csv_rows(stats: Sequence[IntensityStat]) -> list[list[str]]:
    rows = [["doc_id", "scope1_intensity", "scope2_intensity"]]
    for s in stats:
        rows.append(
            [
                s.doc_id,
                "" if s.scope1_intensity is None else f"{s.scope1_intensity:.6f}",
                "" if s.scope2_intensity is None else f"{s.scope2_intensity:.6f}",
            ]
        )
    return rows


def frequency_csv_rows(tables: Sequence[TermFrequencyTable]) -> list[list[str]]:
    rows = [["theme", "phrase", "share", "n_actions"]]
    for t in tables:
        for phrase, share in t.entries:
            rows.append([t.theme, phrase, f"{share:.6f}", str(t.n_actions)])
        if not t.entries:
            rows.append([t.theme, "", "", str(t.n_actions)])
    return rows
