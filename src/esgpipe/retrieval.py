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
once however many documents they search.

`search_many` hands each query's hits on as columns (`Hits`): each hit's
row of one per-call `HitTable` and its similarity. The table holds, once
per entry that any query of the call hit, its entry_id, source, resolved
payload, anchor, payload length and dedupe key (partition code, anchor),
so each payload is resolved once per entry and batch. `rerank` reorders
the rows and similarities of the first m hits and keeps their scores,
making no hit objects; `assemble_evidence` walks the columns, dedupes on
the coded key (an int and a str hash faster than the `Source` enum) and
makes a `ScoredHit` only for each hit it keeps. `search` makes one for
every hit.

Per partition, the batch is cut into slices of whole queries, each of
at most `_SLICE_CELLS` similarity cells (query vectors x entries). A
slice's query vectors, stacked, are multiplied with the partition matrix
in one matmul, into scratch buffers that the call allocates, one set per
worker; normalising, the top-k selection and the union over a query's
vectors then work row by row in the same buffers, so a large KB costs a
few slices of temporaries rather than full (vectors, entries) arrays.
The floats of a stacked matmul can differ in the last bits from those of
each query's own matmul (by about 2^-52 in a cosine), so in a batch a
query's cosines depend on the slice it lands in, and hits whose cosines
lie that close can swap places, or trade the k-th place of a vector,
against a search of the query alone. Results are deterministic for a
given KB, batch of queries and slice constants, and `search`, a batch of
one, makes the query's own matmul. A batch of more than `_THREAD_CELLS`
cells spreads its slices over one worker per usable CPU, at most one per
slice: this thread and helper threads started and joined within the
call. BLAS and numpy's large array operations release the GIL, so the
workers overlap. The ranking and the payload resolution run once per
call, in this thread.
"""

from __future__ import annotations

import itertools
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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

# Similarity cells (query vectors x partition entries) per slice of a
# search. On 2 vCPUs (numpy 2.4, OpenBLAS 0.3.31 on one thread) a slice of
# the 5k-entry scaled document's 2,002-entry text partition (30 query
# vectors) takes about 1.7 ms of `_select` (29 ns a cell, half of it the
# stacked matmul) and its buffers take 1.1 MB (17 bytes a cell). Slices of
# 2^17 and 2^18 cells cost 19 and 16 ns a cell alone, but a search of
# both KBs of that corpus took 36.4 and 35.8 ms against 38.1 ms at 2^16
# (medians of 30 alternations, within the quartiles), for two and four
# times the buffers.
_SLICE_CELLS = 1 << 16
# A search of at most this many cells in all runs in the calling thread
# alone. Around it a helper about breaks even: on the same host (the 207
# query vectors of a run against every n-th entry of the 5k-entry KB,
# medians of 10-30 alternations of 10 calls) 62k cells took 6.0 ms alone
# and 6.3 ms with a helper, 130k cells 7.7 and 8.1 ms in one run and 8.2
# and 7.5 ms in another, 352k cells 13.1 and 11.6 ms, and the whole KB's
# 1.04M cells 36.5 and 27.8 ms. A helper thread costs about 0.13 ms to
# start and join.
_THREAD_CELLS = 1 << 17


@dataclass
class Query:
    """An indicator's query texts and their vectors, which must not
    change once the query has been searched: `matrix` and `norms` are
    computed on first use and kept."""

    indicator_id: str
    query_texts: list[str]
    vectors: Sequence[Sequence[float]]  # a slice of the plan's matrix in `build_queries`

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
class HitTable:
    """The entries that one `search_many` call hit, one row each."""

    entry_ids: list[str] = field(default_factory=list)
    sources: list[Source] = field(default_factory=list)
    payloads: list[str] = field(default_factory=list)  # resolved (see `_resolve_payload`)
    anchors: list[str] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)  # len of each payload
    # (partition code, anchor): equal for the hits of one evidence location
    keys: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class Hits:
    """One query's hits, best first, as columns: hit i is row rows[i] of
    `table`, with similarity[i]; the first len(rerank_scores) hits carry
    the reranker's scores, the rest none."""

    table: HitTable
    rows: list[int]
    similarity: list[float]
    rerank_scores: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def scored(self, picks: Sequence[int] | None = None) -> list[ScoredHit]:
        """The hits at indices `picks` (default: every hit), in that order,
        as objects."""
        t, rows, similarity = self.table, self.rows, self.similarity
        scores = self.rerank_scores + [None] * (len(rows) - len(self.rerank_scores))
        picks = range(len(rows)) if picks is None else picks
        return [
            ScoredHit(
                t.entry_ids[row], t.sources[row], similarity[i], t.payloads[row], t.anchors[row],
                scores[i],
            )
            for i, row in zip(picks, map(rows.__getitem__, picks))
        ]


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
    """Question vector plus one vector per search term (when enabled):
    the query `build_queries` makes for this spec and switch alone."""
    return build_queries([spec], registry, embedder, [use_search_terms])[spec.id, use_search_terms]


def build_queries(
    specs: Sequence[IndicatorSpec],
    registry: MetadataRegistry,
    embedder: EmbeddingProvider,
    search_term_switches: Sequence[bool],
) -> dict[tuple[str, bool], Query]:
    """Queries keyed by (indicator id, use_search_terms), every switch in
    `search_term_switches` for every spec, from one `embed_matrix` call
    over every query's texts in turn, which sends each distinct text
    once. Each query's vectors are its slice of that matrix."""
    texts = {
        (spec.id, switch): query_texts(spec, registry, switch)
        for switch in search_term_switches
        for spec in specs
    }
    flat = [t for ts in texts.values() for t in ts]
    matrix = embed_matrix(embedder, flat) if flat else []
    bounds = itertools.accumulate(map(len, texts.values()), initial=0)
    queries = {
        key: Query(indicator_id=key[0], query_texts=ts, vectors=matrix[start : start + len(ts)])
        for (key, ts), start in zip(texts.items(), bounds)
    }
    for query in queries.values():
        query.norms  # converts the query once, for every search of the run
    return queries


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


def _buffers(cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two float64 and one bool array of `cells` cells: the scratch space
    of `_select`."""
    return np.empty(cells), np.empty(cells), np.empty(cells, dtype=bool)


def _select(
    part: Partition,
    rank: np.ndarray,
    qm: np.ndarray,
    qnorms: np.ndarray,
    starts: np.ndarray,
    k: int,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One partition's hits for every query of a slice: (query, row, best
    cosine) for each selected pair, ordered by query then row.

    `qm` holds the slice's query vectors, stacked, with their norms in
    `qnorms` and query q's first row at `starts[q]`. One matmul gives
    their similarities as (vectors, entries); zero norms are pinned to
    -1. Each vector keeps its k best entries by (-similarity, entry_id),
    counting every entry tied with the k-th best value as a candidate so
    that the rank tie-break decides among them exactly as a full sort
    would. The (vectors, entries) arrays live in `buffers` (see
    `_buffers`), which must hold that many cells; no returned array is a
    view of them.
    """
    n = len(part)
    sims, denom, mask = (b[: len(qm) * n].reshape(len(qm), n) for b in buffers)
    np.matmul(qm, part.matrix.T, out=sims)
    np.outer(qnorms, part.norms, out=denom)
    unmatched = np.logical_not(np.greater(denom, 0, out=mask), out=mask)
    np.copyto(denom, 1.0, where=unmatched)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(sims, denom, out=sims)
    np.copyto(sims, -1.0, where=unmatched)
    np.clip(sims, -1.0, 1.0, out=sims)

    if k < n:
        np.copyto(denom, sims)  # as np.partition, in the free buffer
        denom.partition(n - k, axis=1)
        rows, cols = np.nonzero(np.greater_equal(sims, denom[:, n - k : n - k + 1], out=mask))
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


def _slices(rows: list[int], n: int) -> list[tuple[int, int]]:
    """Cuts a batch whose query q has rows[q] vectors into runs of whole
    queries, (first, end), each of at most `_SLICE_CELLS` similarity
    cells against a partition of n entries, or of one query."""
    cuts, cells = [0], 0
    for q, size in enumerate(rows):
        if cells and cells + size * n > _SLICE_CELLS:
            cuts.append(q)
            cells = 0
        cells += size * n
    cuts.append(len(rows))
    return list(zip(cuts[:-1], cuts[1:]))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def search_many(
    kb: KnowledgeBase, queries: Sequence[Query], k: int = DEFAULT_TOP_K
) -> list[Hits]:
    """`search` for each query, in one pass per source partition (see
    the module docstring): the hits of each query, in order, each ordered
    by (-similarity, entry_id), over one table of the entries hit. `k` and
    every query are checked before any is searched."""
    if k < 1:
        raise RetrievalError(f"k must be >= 1, got {k}")
    qms = [_query_matrix(kb, q) for q in queries]
    if not qms:
        return []
    stacked = qms[0] if len(qms) == 1 else np.concatenate(qms)  # one query: its own matrix
    qnorms = np.concatenate([q.norms for q in queries])
    sizes = np.array([len(qm) for qm in qms])
    ends = np.cumsum(sizes)
    starts = ends - sizes

    parts = [kb.partition(source) for source in Source]
    ranks = [kb.id_rank(source) for source in Source]
    tasks = [  # (partition, first query, end query) per slice, by partition then query
        (p, *cut)
        for p, part in enumerate(parts)
        if len(part)
        for cut in _slices(sizes.tolist(), len(part))
    ]
    cells = [int(ends[end - 1] - starts[first]) * len(parts[p]) for p, first, end in tasks]
    columns: list = [None] * len(tasks)
    ticket = itertools.count()  # next() on it is atomic: each task goes to one worker

    def work(buffers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        while (i := next(ticket)) < len(tasks):
            p, first, end = tasks[i]
            lo, hi = starts[first], ends[end - 1]
            qs, rows, sims = _select(
                parts[p], ranks[p], stacked[lo:hi], qnorms[lo:hi], starts[first:end] - lo, k,
                buffers,
            )
            columns[i] = (qs + first, np.full(len(rows), p), rows, sims, ranks[p][rows])

    workers = min(_usable_cpus(), len(tasks)) if sum(cells) > _THREAD_CELLS else 1
    if workers == 1:
        work(_buffers(max(cells, default=0)))
    else:  # this thread is one of the workers
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            helpers = [pool.submit(work, _buffers(max(cells))) for _ in range(workers - 1)]
            work(_buffers(max(cells)))
            for helper in helpers:
                helper.result()
    if not columns:
        return [Hits(HitTable(), [], []) for _ in qms]
    qs, ps, rows, sims, rank = (np.concatenate(column) for column in zip(*columns))
    order = np.lexsort((rank, -sims, qs))
    offsets = np.cumsum([0] + [len(part) for part in parts])
    flat = (offsets[ps] + rows)[order]  # each hit's entry, numbered by partition then row
    distinct = np.sort(flat)
    distinct = distinct[np.diff(distinct, prepend=-1) != 0]  # as np.unique: each entry once
    part_of = np.searchsorted(offsets, distinct, side="right") - 1
    codes = part_of.tolist()  # the partition of each, its index in `Source`
    rows_in = (distinct - offsets[part_of]).tolist()  # the row of each in its partition
    entries = [parts[p].entry(row) for p, row in zip(codes, rows_in)]
    payloads = [_resolve_payload(entry, kb) for entry in entries]
    table = HitTable(
        [e.entry_id for e in entries], [e.source for e in entries], payloads,
        [e.anchor for e in entries], list(map(len, payloads)),
        [(p, e.anchor) for p, e in zip(codes, entries)],
    )
    table_rows = np.searchsorted(distinct, flat).tolist()
    similarity = sims[order].tolist()
    bounds = np.cumsum(np.bincount(qs, minlength=len(qms))).tolist()
    return [
        Hits(table, table_rows[start:end], similarity[start:end])
        for start, end in zip([0] + bounds, bounds)
    ]


def search(kb: KnowledgeBase, query: Query, k: int = DEFAULT_TOP_K) -> list[ScoredHit]:
    """Exact top-k per source partition, union over query vectors.

    Zero-norm vectors (query or entry) never match: their similarity
    is treated as -1 rather than raising, so a tokenless chunk simply
    loses every comparison.
    """
    return search_many(kb, [query], k)[0].scored()


def rerank(
    hits: Hits,
    query_text: str,
    reranker: Reranker,
    m: int = DEFAULT_RERANK_M,
) -> Hits:
    """Rescore the first m hits; the tail keeps its order after them.

    A reranker failure falls back to the offline token-overlap scorer
    and logs the event instead of aborting retrieval.
    """
    if m < 0:
        raise RetrievalError(f"m must be >= 0, got {m}")
    m = min(m, len(hits))
    if m == 0:
        return hits
    payloads = [hits.table.payloads[row] for row in hits.rows[:m]]
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
    scores = [float(s) for s in scores]
    order = sorted(range(m), key=lambda i: -scores[i])  # stable: ties keep order
    return Hits(
        hits.table,
        [hits.rows[i] for i in order] + hits.rows[m:],
        [hits.similarity[i] for i in order] + hits.similarity[m:],
        [scores[i] for i in order],
    )


def assemble_evidence(
    hits: Hits,
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
    keys, sizes = hits.table.keys, hits.table.sizes
    kept: list[int] = []
    seen: set[tuple[int, str]] = set()
    total = 0
    for i, row in enumerate(hits.rows):
        key = keys[row]
        if key in seen:
            continue
        size = sizes[row]
        if total + size > budget_chars:
            break
        seen.add(key)
        kept.append(i)
        total += size
    if hits.rows and not kept:  # the first hit alone overflows: truncate it
        taken = hits.scored([0])
        taken[0].resolved_payload = taken[0].resolved_payload[:budget_chars]
        return EvidenceBundle(indicator_id, taken, budget_chars, truncated=True)
    return EvidenceBundle(indicator_id=indicator_id, hits=hits.scored(kept), total_chars=total)
