"""Corpus orchestration shared by the evaluator and CLI.

The three ablation arms differ along three independent switches:

- structured preprocessing: outline + table reconstruction feeding the
  three-partition KB, versus naive fixed-size chunking of flattened
  text into a single text index;
- enhanced retrieval: search-term query expansion plus reranking,
  versus a question-only query with no rerank;
- knowledge injection: the indicator definition in the prompt, or not.

`run_corpus` is the one runner behind `extract`, `evaluate` and
`ablate`. It plans once per run: every query is embedded in a single
call (query text depends on the indicator and the search-term switch,
never on the document), and arms with the same KB mode and retrieval
switch form one retrieval group, so they share each search, rerank and
evidence bundle; only the prompt, chat call and parse run per arm.
It then runs `extract_document` on each document as it comes: source
the document's KBs, run one `search_many` per group over all its
indicators' queries, fan the (indicator x group) rerank and evidence
(`agent.evidence_from_hits`) and each arm's prompt, chat and parse
(`agent.extract_indicator`) over one pool of `jobs` threads, and drop
the KBs and evidence before the next document.

The switches live only on the arm (`AblationConfig`); `PipelineConfig`
adds the run's sizes: retrieval (`ExtractConfig`) and the KB build
parameters of both modes (`BuildConfig`).
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from itertools import repeat
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Sequence

from .agent import ExtractConfig, ExtractionRecord, evidence_from_hits, extract_indicator
from .docmodel import StructuredDocument
from .errors import ConfigError, PipelineError
from .kb import BuildConfig, KnowledgeBase, build, build_naive
from .metadata import IndicatorSpec, MetadataRegistry
from .providers import ProviderSet
from .retrieval import Hits, Query, build_queries, search_many

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AblationConfig:
    config_id: str
    use_structured_preprocessing: bool
    use_enhanced_retrieval: bool
    use_knowledge: bool


ABLATION_ARMS = {
    "benchmark": AblationConfig("benchmark", False, False, False),
    "enhanced_rag": AblationConfig("enhanced_rag", True, True, False),
    "enhanced_rag_knowledge": AblationConfig("enhanced_rag_knowledge", True, True, True),
}

DEFAULT_ARM = "enhanced_rag_knowledge"


def ablation_arm(config_id: str) -> AblationConfig:
    try:
        return ABLATION_ARMS[config_id]
    except KeyError:
        raise ConfigError(
            f"unknown ablation arm {config_id!r}; expected one of "
            f"{sorted(ABLATION_ARMS)}"
        ) from None


@dataclass
class PipelineConfig:
    """Everything a run needs besides providers and the registry."""

    arm: AblationConfig = ABLATION_ARMS[DEFAULT_ARM]
    extract: ExtractConfig = field(default_factory=ExtractConfig)
    kb_build: BuildConfig = field(default_factory=BuildConfig)


def build_document_kb(
    doc: StructuredDocument,
    providers: ProviderSet,
    cfg: PipelineConfig,
) -> KnowledgeBase:
    if cfg.arm.use_structured_preprocessing:
        return build(doc, providers.embedder, cfg.kb_build)
    return build_naive(doc, providers.embedder, cfg.kb_build.naive_chunk_chars)


# (document, config whose arm selects the KB mode) -> that document's KB;
# the document is whatever the runner was given: anything with a doc_id
KbSource = Callable[[Any, PipelineConfig], KnowledgeBase]


@dataclass(frozen=True)
class RetrievalGroup:
    """Arms with the same KB mode and retrieval switch: one search,
    rerank and evidence bundle per indicator serves all of them."""

    cfg: PipelineConfig  # its arm, the group's first, sets the KB mode and the switch
    arms: tuple[AblationConfig, ...]

    @property
    def structured(self) -> bool:
        return self.cfg.arm.use_structured_preprocessing

    @property
    def enhanced(self) -> bool:
        """Search terms in the query, and rerank."""
        return self.cfg.arm.use_enhanced_retrieval


@dataclass
class CorpusPlan:
    groups: list[RetrievalGroup]
    queries: dict[tuple[str, bool], Query]  # (indicator id, use_search_terms) -> query


@dataclass
class DocumentResult:
    """One document's outcome per arm id: its records sorted by
    (indicator_id, topic), or the error that stopped the arm there."""

    doc_id: str
    records: dict[str, list[ExtractionRecord]] = field(default_factory=dict)
    errors: dict[str, PipelineError] = field(default_factory=dict)

    def fail(self, group: RetrievalGroup, error: PipelineError) -> None:
        for arm in group.arms:
            self.errors[arm.config_id] = error


def plan_corpus(
    registry: MetadataRegistry,
    providers: ProviderSet,
    cfg: PipelineConfig,
    arms: Sequence[AblationConfig],
) -> CorpusPlan:
    """Group the arms and embed every query they need in one call."""
    if providers.chat is None or providers.embedder is None:
        raise ConfigError("extraction requires chat and embedding providers")
    grouped: dict[tuple[bool, bool], list[AblationConfig]] = {}
    for arm in arms:
        key = (arm.use_structured_preprocessing, arm.use_enhanced_retrieval)
        grouped.setdefault(key, []).append(arm)
    groups = [
        RetrievalGroup(replace(cfg, arm=members[0]), tuple(members))
        for members in grouped.values()
    ]
    switches = sorted({g.enhanced for g in groups})
    queries = build_queries(registry.indicators, registry, providers.embedder, switches)
    return CorpusPlan(groups, queries)


def _extract_group(
    doc_id: str,
    group: RetrievalGroup,
    spec: IndicatorSpec,
    query: Query,
    hits: Hits,
    registry: MetadataRegistry,
    providers: ProviderSet,
) -> list[list[ExtractionRecord]] | PipelineError:
    """One indicator for every arm of a group, from its search hits: the
    records per arm, in the group's arm order, or the error that
    stopped retrieval."""
    try:
        evidence = evidence_from_hits(
            spec, query, hits, providers, group.cfg.extract, group.enhanced
        )
        return [
            extract_indicator(
                doc_id, spec, evidence, registry, providers, arm.use_knowledge,
                query.query_texts[0],
            )
            for arm in group.arms
        ]
    except PipelineError as exc:
        return exc


def extract_document(
    doc: Any,
    plan: CorpusPlan,
    registry: MetadataRegistry,
    providers: ProviderSet,
    source_kb: KbSource,
    map_fn: Callable,
) -> DocumentResult:
    """`run_corpus`'s step for one document, its tasks mapped by `map_fn`."""
    result = DocumentResult(doc.doc_id)
    specs = registry.indicators
    kbs: dict[bool, KnowledgeBase | PipelineError] = {}
    live: list[RetrievalGroup] = []
    tasks = []
    for group in plan.groups:
        if group.structured not in kbs:
            try:
                kbs[group.structured] = source_kb(doc, group.cfg)
            except PipelineError as exc:
                kbs[group.structured] = exc
        kb = kbs[group.structured]
        error = kb if isinstance(kb, PipelineError) else None
        if error is None:
            queries = [plan.queries[(spec.id, group.enhanced)] for spec in specs]
            try:
                hits = search_many(kb, queries, group.cfg.extract.top_k)
            except PipelineError as exc:
                error = exc
        if error is not None:
            result.fail(group, error)
            continue
        live.append(group)
        tasks.extend(zip(repeat(group), specs, queries, hits))
    outcomes = list(
        map_fn(lambda task: _extract_group(doc.doc_id, *task, registry, providers), tasks)
    )
    for n, group in enumerate(live):
        per_spec = outcomes[n * len(specs) : (n + 1) * len(specs)]
        error = next((o for o in per_spec if isinstance(o, PipelineError)), None)
        if error is not None:
            result.fail(group, error)
            continue
        for i, arm in enumerate(group.arms):
            records = [r for per_arm in per_spec for r in per_arm[i]]
            records.sort(key=lambda r: (r.indicator_id, r.topic))
            result.records[arm.config_id] = records
    return result


def run_corpus(
    docs: Iterable[Any],
    registry: MetadataRegistry,
    providers: ProviderSet,
    cfg: PipelineConfig,
    arms: Sequence[AblationConfig],
    jobs: int = 1,
    source_kb: KbSource | None = None,
) -> Iterator[DocumentResult]:
    """Extract every registry indicator for every arm, one result per
    document in `docs` order. `docs` may be a lazy iterable; each item
    only needs a `doc_id` and to be what `source_kb` takes.

    `source_kb` supplies a document's KB for a mode (default: build a
    StructuredDocument's in memory). A PipelineError while sourcing a KB
    or retrieving evidence fails the arms that depend on it for that
    document only. The run is planned when the first document arrives,
    so an empty `docs` calls no provider; a failing query-plan `embed`
    raises before any document runs.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    plan: CorpusPlan | None = None
    if source_kb is None:

        def source_kb(doc: StructuredDocument, kb_cfg: PipelineConfig) -> KnowledgeBase:
            return build_document_kb(doc, providers, kb_cfg)

    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        map_fn = pool.map if pool is not None else map
        for doc in docs:
            if plan is None:
                plan = plan_corpus(registry, providers, cfg, arms)
            yield extract_document(doc, plan, registry, providers, source_kb, map_fn)

