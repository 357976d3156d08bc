"""Metadata-driven retrieval: query build, cosine search, rerank, evidence.

Search runs an exact top-k per source partition (text, outline, table
keywords) so that table evidence can never be crowded out by prose,
then unions the candidates. A hit's score is its best cosine over all
query vectors (the rendered question plus each search term). Table
keyword hits resolve to the full rendered table; text hits resolve to
the chunk prefixed by its summary when one exists. Everything here is
deterministic: ties break on entry_id.

`search_many` serves a batch of queries against one KB (the runner
passes every indicator's query for a document and retrieval group) and
`search` is a batch of one. A query converts its vectors to a matrix
and row norms once, on first use, so a run's plan queries are converted
once however many documents they search; each hit's payload is resolved
once per entry and batch. Per partition, each query's vectors are
multiplied with the partition matrix on their own; normalising, the
top-k selection, the union and the ranking then run once over the
stacked rows of all queries. The matmul stays per query because one
stacked matmul takes another BLAS path whose floats differ in the last
bits, and mathematically tied cosines would then fall on different
sides of each other.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ProviderError, RetrievalError
from .kb import Entry, KnowledgeBase, Partition, Source
from .metadata import IndicatorSpec, MetadataRegistry, render_question
from .providers import EmbeddingProvider, JaccardReranker, Reranker, embed_matrix

logger = logging.getLogger(__name__)

DEFAULT_TOP_K = 5
DEFAULT_RERANK_M = 10
DEFAULT_BUDGET_CHARS = 6000
MIN_BUDGET_CHARS = 500

NO_EVIDENCE_SENTINEL = "NO EVIDENCE FOUND"


@dataclass
class Query:
    """An indicator's query texts and their vectors, which must not
    change once the query has been searched: `matrix` and `norms` are
    computed on first use and kept."""

    indicator_id: str
    query_texts: list[str]
    vectors: Sequence[Sequence[float]]  # rows of the plan's matrix in `build_queries`

    def __post_init__(self) -> None:
        if len(self.vectors) != len(self.query_texts):
            raise RetrievalError(
                f"query for {self.indicator_id!r}: {len(self.vectors)} vectors "
                f"for {len(self.query_texts)} texts"
            )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The vectors as one float64 array; `search` checks its shape."""
        try:
            return np.asarray(self.vectors, dtype=np.float64)
        except ValueError as exc:
            raise RetrievalError(f"query vectors of unequal dim: {exc}") from exc

    @cached_property
    def norms(self) -> np.ndarray:
        """The L2 norm of each row of `matrix`."""
        return np.linalg.norm(self.matrix, axis=1)


@dataclass
class ScoredHit:
    entry_id: str
    source: Source
    similarity: float
    resolved_payload: str
    anchor: str
    rerank_score: float | None = None


@dataclass
class EvidenceBundle:
    indicator_id: str
    hits: list[ScoredHit]
    total_chars: int
    truncated: bool = False


def query_texts(
    spec: IndicatorSpec, registry: MetadataRegistry, use_search_terms: bool = True
) -> list[str]:
    """The rendered question, then each search term (when enabled)."""
    texts = [render_question(spec, registry)]
    if use_search_terms:
        texts.extend(spec.search_terms)
    return texts


def build_query(
    spec: IndicatorSpec,
    registry: MetadataRegistry,
    embedder: EmbeddingProvider,
    use_search_terms: bool = True,
) -> Query:
    """Question vector plus one vector per search term (when enabled)."""
    texts = query_texts(spec, registry, use_search_terms)
    return Query(indicator_id=spec.id, query_texts=texts, vectors=embedder.embed(texts))


def build_queries(
    specs: Sequence[IndicatorSpec],
    registry: MetadataRegistry,
    embedder: EmbeddingProvider,
    search_term_switches: Sequence[bool],
) -> dict[tuple[str, bool], Query]:
    """Queries keyed by (indicator id, use_search_terms), every switch in
    `search_term_switches` for every spec, from one `embed` call over
    the distinct query texts. Each query equals `build_query`'s."""
    texts = {
        (spec.id, switch): query_texts(spec, registry, switch)
        for switch in search_term_switches
        for spec in specs
    }
    distinct = list(dict.fromkeys(t for ts in texts.values() for t in ts))
    matrix = embed_matrix(embedder, distinct) if distinct else []
    row = dict(zip(distinct, matrix))
    queries = {
        key: Query(indicator_id=key[0], query_texts=ts, vectors=[row[t] for t in ts])
        for key, ts in texts.items()
    }
    for query in queries.values():
        query.norms  # converts the query once, for every search of the run
    return queries


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise RetrievalError(f"vector length mismatch: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise RetrievalError("cosine similarity undefined for a zero-norm vector")
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def _resolve_payload(entry: Entry, kb: KnowledgeBase) -> str:
    if entry.source is Source.TABLE_KEYWORD:
        table_id = entry.anchor.partition(":")[2]
        return kb.table_text(table_id)
    if entry.source is Source.TEXT and entry.summary:
        return f"[Summary] {entry.summary}\n{entry.payload_text}"
    return entry.payload_text


def _query_matrix(kb: KnowledgeBase, query: Query) -> np.ndarray:
    """A query's (vectors, dim) matrix, checked against the KB."""
    qm = query.matrix
    if qm.ndim != 2 or qm.shape[1] != kb.dim:
        raise RetrievalError(f"query vectors of shape {qm.shape} do not match KB dim {kb.dim}")
    if qm.shape[0] == 0:
        raise RetrievalError(f"query for {query.indicator_id!r} has no vectors")
    return qm


def _select(
    part: Partition,
    rank: np.ndarray,
    qms: list[np.ndarray],
    qnorms: np.ndarray,
    starts: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One partition's hits for every query: (query, row, best cosine)
    for each selected pair, ordered by query then row.

    Stacks the similarities of all query vectors, one row per vector,
    as (vectors, entries); zero norms are pinned to -1. Each vector
    keeps its k best entries by (-similarity, entry_id), counting every
    entry tied with the k-th best value as a candidate so that the rank
    tie-break decides among them exactly as a full sort would.
    """
    n = len(part.entries)
    sims = np.empty((len(qnorms), n))
    for qm, start in zip(qms, starts.tolist()):
        sims[start : start + len(qm)] = qm @ part.matrix.T
    denom = np.outer(qnorms, part.norms)
    unmatched = ~(denom > 0)
    np.copyto(denom, 1.0, where=unmatched)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(sims, denom, out=sims)
    del denom
    np.copyto(sims, -1.0, where=unmatched)
    del unmatched
    np.clip(sims, -1.0, 1.0, out=sims)

    if k < n:
        kth = np.partition(sims, n - k, axis=1)[:, n - k]
        rows, cols = np.nonzero(sims >= kth[:, None])
        per_row = np.bincount(rows, minlength=len(sims))
        if per_row.max() > k:  # ties at the k-th value: keep the first k by rank
            order = np.lexsort((rank[cols], -sims[rows, cols], rows))
            rows, cols = rows[order], cols[order]
            first = np.cumsum(per_row) - per_row
            keep = np.arange(len(rows)) - first[rows] < k
            rows, cols = rows[keep], cols[keep]
    else:
        rows, cols = np.divmod(np.arange(len(sims) * n), n)

    sizes = np.diff(starts, append=len(sims))  # vectors per query
    # the distinct (query, entry) pairs, sorted: as np.unique, which
    # imports numpy.ma on first use
    pairs = np.sort(np.repeat(np.arange(len(starts)), sizes)[rows] * n + cols)
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # every pair is >= 0
    queries, cols = np.divmod(pairs, n)
    # best cosine of each pair: the max over its query's rows in that column
    counts = sizes[queries]
    first = np.cumsum(counts) - counts
    pair_rows = np.repeat(starts[queries] - first, counts) + np.arange(counts.sum())
    best = np.maximum.reduceat(sims[pair_rows, np.repeat(cols, counts)], first)
    return queries, cols, best


def search_many(
    kb: KnowledgeBase, queries: Sequence[Query], k: int = DEFAULT_TOP_K
) -> list[list[ScoredHit]]:
    """`search` for each query, in one pass per source partition (see
    the module docstring): one list of hits per query, in order, each
    ordered by (-similarity, entry_id). `k` and every query are checked
    before any is searched."""
    if k < 1:
        raise RetrievalError(f"k must be >= 1, got {k}")
    qms = [_query_matrix(kb, q) for q in queries]
    if not qms:
        return []
    qnorms = np.concatenate([q.norms for q in queries])
    starts = np.cumsum([0] + [len(qm) for qm in qms[:-1]])

    parts = [kb.partition(source) for source in Source]
    columns = []  # per non-empty partition: (query, partition, row, similarity, rank)
    for p, (part, source) in enumerate(zip(parts, Source)):
        if part.entries:
            rank = kb.id_rank(source)
            qs, rows, sims = _select(part, rank, qms, qnorms, starts, k)
            columns.append((qs, np.full(len(rows), p), rows, sims, rank[rows]))
    hits: list[list[ScoredHit]] = [[] for _ in qms]
    if not columns:
        return hits
    qs, ps, rows, sims, rank = (np.concatenate(column) for column in zip(*columns))
    order = np.lexsort((rank, -sims, qs))
    resolved: dict[tuple[int, int], tuple[str, Source, str, str]] = {}
    for q, p, row, sim in zip(
        qs[order].tolist(), ps[order].tolist(), rows[order].tolist(), sims[order].tolist()
    ):
        fields = resolved.get((p, row))
        if fields is None:
            entry = parts[p].entries[row]
            fields = resolved[p, row] = (
                entry.entry_id, entry.source, _resolve_payload(entry, kb), entry.anchor
            )
        entry_id, source, payload, anchor = fields
        hits[q].append(ScoredHit(entry_id, source, sim, payload, anchor))
    return hits


def search(kb: KnowledgeBase, query: Query, k: int = DEFAULT_TOP_K) -> list[ScoredHit]:
    """Exact top-k per source partition, union over query vectors.

    Zero-norm vectors (query or entry) never match: their similarity
    is treated as -1 rather than raising, so a tokenless chunk simply
    loses every comparison.
    """
    return search_many(kb, [query], k)[0]


def rerank(
    hits: list[ScoredHit],
    query_text: str,
    reranker: Reranker,
    m: int = DEFAULT_RERANK_M,
) -> list[ScoredHit]:
    """Rescore the first m hits; the tail keeps its order after them.

    A reranker failure falls back to the offline token-overlap scorer
    and logs the event instead of aborting retrieval.
    """
    if m < 0:
        raise RetrievalError(f"m must be >= 0, got {m}")
    m = min(m, len(hits))
    if m == 0:
        return list(hits)
    head = hits[:m]
    payloads = [h.resolved_payload for h in head]
    try:
        scores = reranker.score(query_text, payloads)
        if len(scores) != len(payloads):
            raise ProviderError(
                f"reranker {reranker.name!r} returned {len(scores)} scores "
                f"for {len(payloads)} candidates"
            )
    except ProviderError as exc:
        logger.warning("rerank fallback engaged: %s", exc)
        scores = JaccardReranker().score(query_text, payloads)
    rescored = [
        ScoredHit(h.entry_id, h.source, h.similarity, h.resolved_payload, h.anchor, float(s))
        for h, s in zip(head, scores)
    ]
    rescored.sort(key=lambda h: -h.rerank_score)  # stable: ties keep order
    return rescored + list(hits[m:])


def assemble_evidence(
    hits: Sequence[ScoredHit],
    budget_chars: int = DEFAULT_BUDGET_CHARS,
    indicator_id: str = "",
) -> EvidenceBundle:
    """Greedy prefix of hits whose payloads fit the character budget.

    Hits resolving to the same location (several keywords hitting one
    table) are deduplicated. Selection stops at the first hit that
    would overflow the budget. When even the first hit is too large it
    is truncated to the budget and the bundle is flagged.
    """
    if budget_chars < MIN_BUDGET_CHARS:
        raise RetrievalError(f"budget_chars must be >= {MIN_BUDGET_CHARS}")
    taken: list[ScoredHit] = []
    seen_anchors: set[tuple[Source, str]] = set()
    total = 0
    truncated = False
    for hit in hits:
        key = (hit.source, hit.anchor)
        if key in seen_anchors:
            continue
        size = len(hit.resolved_payload)
        if total + size > budget_chars:
            if not taken:
                taken.append(
                    replace(hit, resolved_payload=hit.resolved_payload[:budget_chars])
                )
                total = budget_chars
                truncated = True
            break
        seen_anchors.add(key)
        taken.append(hit)
        total += size
    return EvidenceBundle(
        indicator_id=indicator_id, hits=taken, total_chars=total, truncated=truncated
    )
