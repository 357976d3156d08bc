"""Similarity search against a brute-force oracle, rerank and evidence assembly."""

import bisect
import dataclasses
import math
import random
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esgpipe.errors import ProviderError, RetrievalError
from esgpipe.kb import Entry, KnowledgeBase, Source
from esgpipe.providers import HashEmbedder, JaccardReranker, Reranker
from esgpipe.retrieval import (
    EvidenceBundle,
    Hits,
    HitTable,
    Query,
    ScoredHit,
    assemble_evidence,
    build_queries,
    build_query,
    rerank,
    search,
    search_many,
)

DIM = 256


# --- oracle: pure-python exact search following the published contract ---


def oracle_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return -1.0
    return max(-1.0, min(1.0, dot / (na * nb)))


def oracle_search(kb, query, k):
    """Per-source top-k per query vector, union, score = best cosine."""
    results = []
    for source in Source:
        entries = [e for e in kb.entries if e.source is source]
        if not entries:
            continue
        sims = {
            e.entry_id: max(oracle_cosine(v, e.vector) for v in query.vectors)
            for e in entries
        }
        selected = set()
        for v in query.vectors:
            per_vec = sorted(
                entries,
                key=lambda e: (-oracle_cosine(v, e.vector), e.entry_id),
            )
            selected.update(e.entry_id for e in per_vec[:k])
        results.extend((sims[eid], eid) for eid in selected)
    results.sort(key=lambda pair: (-pair[0], pair[1]))
    return results


def random_kb(rng, n_entries, dim=DIM, zero_every=0):
    entries = []
    table_texts = {}
    for n in range(n_entries):
        source = rng.choice(list(Source))
        vec = [rng.uniform(-1, 1) for _ in range(dim)]
        if zero_every and n % zero_every == 0:
            vec = [0.0] * dim
        if source is Source.TABLE_KEYWORD:
            anchor = f"table:t{n}"
            table_texts[f"t{n}"] = f"table text {n}"
        else:
            anchor = f"flat:{n}"
        entries.append(
            Entry(
                entry_id=f"e{n:04d}",
                source=source,
                payload_text=f"payload {n}",
                vector=vec,
                anchor=anchor,
            )
        )
    return KnowledgeBase(
        scope="d", provider_name="test", dim=dim, entries=entries,
        table_texts=table_texts,
    )


def random_query(rng, n_vectors, dim=DIM):
    return Query(
        indicator_id="q",
        query_texts=[f"q{i}" for i in range(n_vectors)],
        vectors=[[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n_vectors)],
    )


# --- search vs oracle ---


def test_search_matches_brute_force_oracle():
    rng = random.Random(99)
    for trial in range(30):
        kb = random_kb(rng, rng.randint(1, 60))
        query = random_query(rng, rng.randint(1, 3))
        k = rng.randint(1, 8)
        got = [(round(h.similarity, 10), h.entry_id) for h in search(kb, query, k)]
        want = [(round(s, 10), eid) for s, eid in oracle_search(kb, query, k)]
        assert got == want, f"trial {trial} diverged"


def test_search_handles_zero_norm_entries():
    rng = random.Random(7)
    kb = random_kb(rng, 20, zero_every=3)
    query = random_query(rng, 2)
    got = [(round(h.similarity, 10), h.entry_id) for h in search(kb, query, 4)]
    want = [(round(s, 10), eid) for s, eid in oracle_search(kb, query, 4)]
    assert got == want


def test_search_tie_breaks_on_entry_id():
    vec = [1.0] + [0.0] * (DIM - 1)
    entries = [
        Entry(
            entry_id=f"e{n}", source=Source.TEXT,
            payload_text="same", vector=list(vec), anchor=f"flat:{n}",
        )
        for n in (3, 1, 2)
    ]
    kb = KnowledgeBase(scope="d", provider_name="t", dim=DIM, entries=entries, table_texts={})
    query = Query(indicator_id="q", query_texts=["q"], vectors=[list(vec)])
    assert [h.entry_id for h in search(kb, query, 3)] == ["e1", "e2", "e3"]


def test_search_respects_per_source_k():
    vec = [1.0] + [0.0] * (DIM - 1)
    entries = []
    for n in range(10):
        entries.append(Entry(
            entry_id=f"t{n}", source=Source.TEXT,
            payload_text="x", vector=list(vec), anchor=f"flat:{n}",
        ))
    entries.append(Entry(
        entry_id="o0", source=Source.OUTLINE,
        payload_text="path", vector=[0.5] + [0.1] * (DIM - 1), anchor="outline:0",
    ))
    kb = KnowledgeBase(scope="d", provider_name="t", dim=DIM, entries=entries, table_texts={})
    query = Query(indicator_id="q", query_texts=["q"], vectors=[list(vec)])
    hits = search(kb, query, 3)
    assert sum(1 for h in hits if h.source is Source.TEXT) == 3
    assert sum(1 for h in hits if h.source is Source.OUTLINE) == 1


def _reordered_kb(vectors, sources):
    """Entries t9995, t9996, ...: past t9999 the ids sort before the
    first ones ("t10000" < "t9995"), so string order differs from
    insertion order."""
    entries = [
        Entry(
            entry_id=f"t{9995 + n}", source=source,
            payload_text=f"p{n}", vector=list(vec), anchor=f"flat:{n}",
        )
        for n, (vec, source) in enumerate(zip(vectors, sources))
    ]
    return KnowledgeBase(scope="d", provider_name="t", dim=len(vectors[0]), entries=entries)


def _assert_matches_oracle(kb, query, k):
    got = [(round(h.similarity, 10), h.entry_id) for h in search(kb, query, k)]
    want = [(round(s, 10), eid) for s, eid in oracle_search(kb, query, k)]
    assert got == want, f"k={k}"


def test_search_heavy_ties_follow_entry_id_order():
    rng = random.Random(11)
    dim = 8
    distinct = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(3)]
    distinct.append([0.0] * dim)
    vectors = [distinct[n % len(distinct)] for n in range(24)]
    sources = [Source.TEXT if n % 3 else Source.OUTLINE for n in range(24)]
    kb = _reordered_kb(vectors, sources)
    query = Query(
        indicator_id="q", query_texts=["a", "b", "zero"],
        vectors=[distinct[0], distinct[2], [0.0] * dim],
    )
    for k in range(1, 20):
        _assert_matches_oracle(kb, query, k)


def test_search_k_at_least_partition_size():
    rng = random.Random(12)
    vectors = [[rng.uniform(-1, 1) for _ in range(DIM)] for _ in range(12)]
    kb = _reordered_kb(vectors, [Source.TEXT] * 7 + [Source.OUTLINE] * 5)
    query = random_query(rng, 2)
    for k in (5, 7, 8, 50):
        _assert_matches_oracle(kb, query, k)
    assert len(search(kb, query, 7)) == 12


def test_search_single_entry_partition():
    rng = random.Random(13)
    vectors = [[rng.uniform(-1, 1) for _ in range(DIM)] for _ in range(8)]
    kb = _reordered_kb(vectors, [Source.TEXT] * 7 + [Source.OUTLINE])
    query = random_query(rng, 3)
    for k in (1, 2, 6):
        _assert_matches_oracle(kb, query, k)
        assert [h.entry_id for h in search(kb, query, k) if h.source is Source.OUTLINE] == [
            "t10002"
        ]


def test_search_rejects_bad_inputs():
    rng = random.Random(1)
    kb = random_kb(rng, 5)
    query = random_query(rng, 1)
    with pytest.raises(RetrievalError):
        search(kb, query, 0)
    bad = Query(indicator_id="q", query_texts=["q"], vectors=[[1.0, 0.0]])
    with pytest.raises(RetrievalError, match="dim"):
        search(kb, bad, 3)
    ragged = Query(indicator_id="q", query_texts=["a", "b"],
                   vectors=[list(query.vectors[0]), [1.0, 0.0]])
    with pytest.raises(RetrievalError, match="dim"):
        search(kb, ragged, 3)


# --- batched search vs a per-query numpy reference, bit for bit ---


def reference_search(kb, query, k):
    """Per query: per-partition matmul, per-row lexsort on (-cosine,
    entry_id), union, ranked by best cosine then entry_id; hits as
    (entry_id, source, resolved payload, similarity hex)."""
    found = []
    for source in Source:
        entries = [e for e in kb.entries if e.source is source]
        if not entries:
            continue
        ids = np.array([e.entry_id for e in entries])
        sims = reference_sims(query, entries)
        chosen = set()
        for row in sims:
            chosen.update(np.lexsort((ids, -row))[:k].tolist())
        best = sims.max(axis=0)
        found.extend((entries[j], float(best[j])) for j in chosen)
    found.sort(key=lambda pair: (-pair[1], pair[0].entry_id))
    return [(e.entry_id, e.source, reference_payload(kb, e), sim.hex()) for e, sim in found]


def reference_sims(query, entries):
    """cosine(query vector i, entry j), with -1 where a norm is zero."""
    q = np.asarray(query.vectors, dtype=np.float64)
    m = np.array([e.vector for e in entries], dtype=np.float64)
    denom = np.outer(np.linalg.norm(q, axis=1), np.linalg.norm(m, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, (q @ m.T) / np.where(denom > 0, denom, 1.0), -1.0)
    return np.clip(sims, -1.0, 1.0)


def reference_payload(kb, entry):
    if entry.source is Source.TABLE_KEYWORD:
        return kb.table_texts[entry.anchor.split(":", 1)[1]]
    if entry.source is Source.TEXT and entry.summary:
        return "[Summary] " + entry.summary + "\n" + entry.payload_text
    return entry.payload_text


def _assert_batch_matches_reference(kb, queries, k):
    got = search_many(kb, queries, k)
    assert len(got) == len(queries)
    for n, (hits, query) in enumerate(zip(got, queries)):
        want = reference_search(kb, query, k)
        have = [
            (h.entry_id, h.source, h.resolved_payload, h.similarity.hex()) for h in hits.scored()
        ]
        assert have == want, f"query {n} of {len(queries)}, k={k}"


def integer_kb(rng, n_entries, dim):
    """Sparse small-integer vectors, so exact ties are common; some
    all-zero rows; ids in random string order; summaries and tables
    so every payload kind resolves."""
    entries, table_texts = [], {}
    for n in range(n_entries):
        source = rng.choice(list(Source))
        vec = [float(rng.choice((-2, -1, 1, 2))) if rng.random() < 0.4 else 0.0
               for _ in range(dim)]
        if rng.random() < 0.1:
            vec = [0.0] * dim
        anchor = f"flat:{n}"
        if source is Source.TABLE_KEYWORD:
            anchor = f"table:t{n % 3}"
            table_texts[f"t{n % 3}"] = f"table {n % 3}"
        entries.append(Entry(
            entry_id=f"x{rng.randrange(1000)}-{n}", source=source,
            payload_text=f"payload {n}", vector=vec, anchor=anchor,
            summary=f"summary {n}" if rng.random() < 0.5 else None,
        ))
    return KnowledgeBase(scope="d", provider_name="t", dim=dim, entries=entries,
                         table_texts=table_texts)


def integer_queries(rng, dim):
    """1-8 queries of 1-6 vectors each; some vectors all zero."""
    queries = []
    for n in range(rng.randint(1, 8)):
        count = rng.randint(1, 6)
        vectors = [
            [0.0] * dim if rng.random() < 0.1 else
            [float(rng.choice((-2, -1, 0, 0, 1, 2))) for _ in range(dim)]
            for _ in range(count)
        ]
        queries.append(Query(f"q{n}", [f"t{i}" for i in range(count)], vectors))
    return queries


def test_search_many_matches_reference_on_integer_kbs():
    rng = random.Random(2024)
    seen = {"single": 0, "k_covers_partition": 0, "tie_at_kth": 0, "zero_row": 0}
    for _ in range(250):
        dim = rng.choice((2, 3, 5, 8))
        kb = integer_kb(rng, rng.randint(1, 30), dim)
        queries = integer_queries(rng, dim)
        k = rng.choice((1, 2, 3, 5, 40))
        _assert_batch_matches_reference(kb, queries, k)
        parts = [kb.partition(s) for s in Source if len(kb.partition(s))]
        seen["single"] += any(len(p) == 1 for p in parts)
        seen["k_covers_partition"] += any(len(p) <= k for p in parts)
        seen["zero_row"] += any(not p.norms.all() for p in parts)
        for part in parts:
            if len(part) > k:
                entries = [part.entry(row) for row in range(len(part))]
                sims = np.vstack([reference_sims(q, entries) for q in queries])
                kth = -np.sort(-sims, axis=1)[:, k - 1:k]
                seen["tie_at_kth"] += bool(((sims == kth).sum(axis=1) > 1).any())
    # the inputs exercise what the selection must get right
    assert all(count >= 10 for count in seen.values()), seen


def fixture_searches(corpus_docs, registry, embedder):
    """(KB, the 70 plan queries of one switch) for both KB modes of two
    fixture documents and both search-term switches."""
    from esgpipe.kb import build, build_naive

    plan = build_queries(registry.indicators, registry, embedder, [False, True])
    for doc in corpus_docs[:2]:
        for kb in (build(doc, embedder), build_naive(doc, embedder)):
            for switch in (False, True):
                yield kb, [plan[(spec.id, switch)] for spec in registry.indicators]


def test_search_matches_reference_on_fixture_kbs(corpus_docs, registry, offline_providers):
    """`search` of one query makes the per-query matmul: bit for bit the
    reference, which ranks raw floats as the benchmark's full scan does."""
    for kb, queries in fixture_searches(corpus_docs, registry, offline_providers.embedder):
        for k in (1, 5, 20):
            for n, query in enumerate(queries):
                have = [(h.entry_id, h.source, h.resolved_payload, h.similarity.hex())
                        for h in search(kb, query, k)]
                assert have == reference_search(kb, query, k), f"query {n}, k={k}"


# --- batched search vs an exactly summed cosine oracle, up to near-ties ---

# A batch's cosines come from one matmul per slice, whose last bits
# depend on the slice a query lands in: within NEAR of the exact cosine,
# so hits whose exact cosines lie within NEAR may swap.
NEAR = 2.0**-40


def fsum_cosines(kb, query):
    """Per source with entries: its entry_ids and, per query vector, the
    cosine with each entry from exactly rounded sums (`math.fsum`),
    clipped to [-1, 1], and -1 where a norm is zero."""
    vectors = [[float(x) for x in v] for v in query.vectors]
    qnorms = [math.sqrt(math.fsum(x * x for x in v)) for v in vectors]
    found = {}
    for source in Source:
        entries = [e for e in kb.entries if e.source is source]
        if not entries:
            continue
        stored = [[(i, x) for i, x in enumerate(map(float, e.vector)) if x] for e in entries]
        norms = [math.sqrt(math.fsum(x * x for _, x in cells)) for cells in stored]
        found[source] = ([e.entry_id for e in entries], [
            [
                max(-1.0, min(1.0, math.fsum(v[i] * x for i, x in cells) / (qn * en)))
                if qn and en else -1.0
                for cells, en in zip(stored, norms)
            ]
            for v, qn in zip(vectors, qnorms)
        ])
    return found


def assert_near_oracle(hits, cosines, k):
    """`hits` rank as the oracle's (-cosine, entry_id) up to near-ties:
    each similarity lies within NEAR of the oracle's best cosine; no hit
    follows one whose oracle cosine it beats by more than NEAR; and per
    source, every entry in some vector's top k however its near-ties
    fall is selected, and no entry out of every vector's top k."""
    assert hits == sorted(hits, key=lambda h: (-h.similarity, h.entry_id))
    best = {
        (source, entry_id): max(row[j] for row in rows)
        for source, (ids, rows) in cosines.items()
        for j, entry_id in enumerate(ids)
    }
    want = [best[h.source, h.entry_id] for h in hits]
    for hit, cosine in zip(hits, want):
        assert abs(hit.similarity - cosine) <= NEAR, (hit.entry_id, hit.similarity, cosine)
    lowest = math.inf
    for hit, cosine in zip(hits, want):
        assert cosine <= lowest + NEAR, f"{hit.entry_id} ranks below a hit it beats"
        lowest = min(lowest, cosine)
    for source, (ids, rows) in cosines.items():
        chosen = [h.entry_id for h in hits if h.source is source]
        n = len(ids)
        assert len(set(chosen)) == len(chosen)
        assert min(k, n) <= len(chosen) <= min(n, k * len(rows))
        ordered = [sorted(row) for row in rows]
        for j, entry_id in enumerate(ids):
            # entries at or above it, counting its near-ties; entries clearly above it
            if any(n - bisect.bisect_left(o, row[j] - NEAR) <= k for row, o in zip(rows, ordered)):
                assert entry_id in chosen, f"{source.value} {entry_id} is in a top {k}"
            if all(n - bisect.bisect_right(o, row[j] + NEAR) >= k for row, o in zip(rows, ordered)):
                assert entry_id not in chosen, f"{source.value} {entry_id} is in no top {k}"


def test_search_many_matches_fsum_oracle_on_fixture_kbs(corpus_docs, registry, offline_providers):
    for kb, queries in fixture_searches(corpus_docs, registry, offline_providers.embedder):
        cosines = [fsum_cosines(kb, query) for query in queries]
        for k in (1, 5, 20):
            for hits, per_query in zip(search_many(kb, queries, k), cosines):
                assert_near_oracle(hits.scored(), per_query, k)


def real_kb(rng, sizes, dim):
    """A KB with sizes[i] entries in the i-th source's partition: real
    rows in [-1, 1), some all zero, exact duplicates, duplicates scaled
    by 2 and 3 (equal cosines in exact arithmetic) and copies one ulp
    apart in one cell (near-ties); ids in random string order."""
    n = sum(sizes)
    matrix = rng.uniform(-1.0, 1.0, size=(n, dim))
    matrix[rng.random(n) < 0.1] = 0.0
    for scale in (1.0, 2.0, 3.0):
        pairs = rng.integers(0, n, size=(n // 6, 2))
        matrix[pairs[:, 0]] = matrix[pairs[:, 1]] * scale
    pairs = rng.integers(0, n, size=(n // 6, 2))
    cells = rng.integers(0, dim, size=len(pairs))
    matrix[pairs[:, 0]] = matrix[pairs[:, 1]]
    matrix[pairs[:, 0], cells] = np.nextafter(matrix[pairs[:, 0], cells], 2.0)
    sources = [source for source, size in zip(Source, sizes) for _ in range(size)]
    ids = rng.permutation(n)
    entries = [
        Entry(entry_id=f"r{ids[i]}", source=source, payload_text=f"payload {i}",
              vector=matrix[i], anchor=f"table:t{i}" if source is Source.TABLE_KEYWORD
              else f"flat:{i}")
        for i, source in enumerate(sources)
    ]
    return KnowledgeBase(scope="d", provider_name="t", dim=dim, entries=entries,
                         table_texts={f"t{i}": f"table {i}" for i in range(n)}, matrix=matrix)


def real_queries(rng, count, kb):
    """Queries of 1-4 real rows: some copies of KB rows, some all zero."""
    rows = [e.vector for e in kb.entries]
    queries = []
    for n in range(count):
        vectors = []
        for _ in range(rng.integers(1, 5)):
            roll = rng.random()
            if roll < 0.3 and rows:
                vectors.append(np.array(rows[rng.integers(len(rows))]))
            elif roll < 0.4:
                vectors.append(np.zeros(kb.dim))
            else:
                vectors.append(rng.uniform(-1.0, 1.0, size=kb.dim))
        queries.append(Query(f"q{n}", [f"t{i}" for i in range(len(vectors))], vectors))
    return queries


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=st.tuples(*[st.integers(min_value=0, max_value=30)] * 3),
    dim=st.sampled_from((2, 5, 16, 33)),
    count=st.integers(min_value=1, max_value=6),
    k=st.sampled_from((1, 2, 3, 7, 40)),
    slice_cells=st.sampled_from((1, 100, 1 << 16)),
    threads=st.booleans(),
)
def test_search_many_matches_fsum_oracle_on_real_kbs(
    seed, sizes, dim, count, k, slice_cells, threads
):
    from esgpipe import retrieval

    rng = np.random.default_rng(seed)
    kb = real_kb(rng, sizes, dim)
    queries = real_queries(rng, count, kb)
    with mock.patch.multiple(
        retrieval, _SLICE_CELLS=slice_cells, _THREAD_CELLS=0 if threads else 1 << 60,
        _usable_cpus=lambda: 3,
    ):
        batch = search_many(kb, queries, k)
    for hits, query in zip(batch, queries):
        assert_near_oracle(hits.scored(), fsum_cosines(kb, query), k)


def test_search_many_resolves_each_payload_once_per_call(
    corpus_docs, registry, offline_providers, monkeypatch
):
    from esgpipe import retrieval
    from esgpipe.kb import build

    resolved = Counter()
    real = retrieval._resolve_payload

    def resolve_payload(entry, kb):
        resolved[entry.entry_id] += 1
        return real(entry, kb)

    monkeypatch.setattr(retrieval, "_resolve_payload", resolve_payload)
    emb = offline_providers.embedder
    plan = build_queries(registry.indicators, registry, emb, [True])
    queries = [plan[(spec.id, True)] for spec in registry.indicators]
    kb = build(corpus_docs[0], emb)
    for calls in (1, 2):
        batch = search_many(kb, queries, 5)
        hits = [h.entry_id for per_query in batch for h in per_query.scored()]
        assert len(hits) > len(set(hits))  # entries recur across queries
        assert resolved == Counter(dict.fromkeys(hits, calls))


def test_search_is_a_batch_of_one():
    rng = random.Random(3)
    kb = integer_kb(rng, 25, 4)
    queries = integer_queries(rng, 4)
    assert search_many(kb, [], 5) == []
    assert [h.scored() for h in search_many(kb, queries, 3)] == [search(kb, q, 3) for q in queries]


def test_search_many_rejects_a_bad_query_mid_batch():
    rng = random.Random(4)
    kb = random_kb(rng, 12)
    good = random_query(rng, 2)
    bad = Query(indicator_id="bad", query_texts=["q"], vectors=[[1.0, 0.0]])
    with pytest.raises(RetrievalError) as single:
        search(kb, bad, 3)
    with pytest.raises(RetrievalError) as batched:
        search_many(kb, [good, bad, good], 3)
    assert str(batched.value) == str(single.value)
    with pytest.raises(RetrievalError, match="k must be >= 1"):
        search_many(kb, [good, bad], 0)
    with pytest.raises(RetrievalError, match="k must be >= 1"):
        search_many(kb, [], 0)


# --- sliced, threaded search vs the one-slice path, bit for bit ---


def sparse_kb(seed, sizes, dim=24):
    """A KB with sizes[i] entries in the i-th source's partition: sparse
    small-integer rows with -0.0 among the zeros, all-zero rows, exact
    duplicates (ties) and copies one ulp apart (near-ties); ids in
    random string order, summaries and tables so every payload kind
    resolves."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    matrix = rng.choice([-2.0, -1.0, 0.0, -0.0, 0.0, 0.0, 1.0, 2.0], size=(n, dim))
    matrix[rng.random(n) < 0.05] = 0.0
    twins = rng.integers(0, n, size=(n // 8, 2))
    matrix[twins[:, 0]] = matrix[twins[:, 1]]
    near = rng.integers(0, n, size=n // 8)
    matrix[near, 0] = np.nextafter(matrix[near, 0], 3.0)
    sources = [source for source, size in zip(Source, sizes) for _ in range(size)]
    ids = rng.permutation(n)
    entries = [
        Entry(entry_id=f"x{ids[i]}", source=source, payload_text=f"payload {i}",
              vector=matrix[i], anchor=f"table:t{i % 5}" if source is Source.TABLE_KEYWORD
              else f"flat:{i}", summary=f"summary {i}" if i % 2 else None)
        for i, source in enumerate(sources)
    ]
    return KnowledgeBase(scope="d", provider_name="t", dim=dim, entries=entries,
                         table_texts={f"t{i}": f"table {i}" for i in range(5)}, matrix=matrix)


def sparse_queries(seed, count, dim=24):
    """Queries of 1-6 sparse rows; some rows all zero, some -0.0 cells."""
    rng = np.random.default_rng(seed)
    queries = []
    for n in range(count):
        rows = rng.choice([-1.0, 0.0, -0.0, 0.0, 1.0, 2.0], size=(rng.integers(1, 7), dim))
        rows[rng.random(len(rows)) < 0.1] = 0.0
        queries.append(Query(f"q{n}", [f"t{i}" for i in range(len(rows))], list(rows)))
    return queries


def _hits(kb, queries, k):
    return [
        [(h.entry_id, h.source, h.similarity.hex(), h.resolved_payload, h.anchor)
         for h in hits.scored()]
        for hits in search_many(kb, queries, k)
    ]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each thread pool that `retrieval` makes."""
    from esgpipe import retrieval

    sizes = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(retrieval, "ThreadPoolExecutor", CountingPool)
    return sizes


def test_slices_cut_whole_queries_within_the_cell_budget(monkeypatch):
    from esgpipe import retrieval

    rng = random.Random(5)
    for _ in range(200):
        rows = [rng.randint(1, 6) for _ in range(rng.randint(1, 40))]
        n = rng.randint(1, 3000)
        budget = rng.randint(1, 2 * sum(rows) * n)
        monkeypatch.setattr(retrieval, "_SLICE_CELLS", budget)
        cuts = retrieval._slices(rows, n)
        assert [first for first, _ in cuts] + [len(rows)] == [0] + [end for _, end in cuts]
        for (first, end), after in zip(cuts, cuts[1:] + [None]):
            assert end - first == 1 or sum(rows[first:end]) * n <= budget
            if after:  # greedy: the next query would not have fit
                assert (sum(rows[first:end]) + rows[end]) * n > budget
        assert (len(cuts) == 1) == (sum(rows) * n <= budget or len(rows) == 1)


@pytest.mark.parametrize("cpus", [1, 4])
def test_sliced_search_matches_one_slice_bit_for_bit(cpus, pool_sizes, monkeypatch):
    from esgpipe import retrieval

    kb = sparse_kb(7, (2500, 1200, 1800))
    queries = sparse_queries(8, 30)
    rows = [len(q.vectors) for q in queries]
    monkeypatch.setattr(retrieval, "_SLICE_CELLS", 1 << 60)
    monkeypatch.setattr(retrieval, "_usable_cpus", lambda: 1)
    whole = {k: _hits(kb, queries, k) for k in (1, 5)}
    monkeypatch.setattr(retrieval, "_usable_cpus", lambda: cpus)
    n = len(kb.partition(Source.TEXT))
    budgets = {}  # slices of the largest partition -> the largest budget that makes them
    for budget in range(sum(rows) * n, 0, -n):
        monkeypatch.setattr(retrieval, "_SLICE_CELLS", budget)
        budgets.setdefault(len(retrieval._slices(rows, n)), budget)
    assert {1, 2, len(queries)} <= budgets.keys() and len(budgets) > len(queries) // 2
    sliced = 0  # searches with more than one slice
    for count, budget in budgets.items():
        monkeypatch.setattr(retrieval, "_SLICE_CELLS", budget)
        for k in (1, 5) if count in (1, 2, 7, len(queries)) else (5,):
            sliced += count > 1
            threads = threading.active_count()
            assert _hits(kb, queries, k) == whole[k], f"{count} slices, k={k}"
            assert threading.active_count() == threads
    if cpus == 1:
        assert pool_sizes == []
    else:  # this thread and up to 3 helpers
        assert len(pool_sizes) >= sliced
        assert set(pool_sizes) <= {1, 2, 3}
    _assert_batch_matches_reference(kb, queries[:6], 5)


def test_small_search_starts_no_thread(
    corpus_docs, registry, offline_providers, pool_sizes, monkeypatch
):
    from esgpipe import retrieval
    from esgpipe.kb import build

    monkeypatch.setattr(retrieval, "_usable_cpus", lambda: 4)
    plan = build_queries(registry.indicators, registry, offline_providers.embedder, [True])
    kb = build(corpus_docs[0], offline_providers.embedder)
    search_many(kb, [plan[(spec.id, True)] for spec in registry.indicators], 5)
    assert pool_sizes == []
    big = sparse_kb(13, (2000, 0, 0))
    search_many(big, sparse_queries(14, 40), 5)  # 2000 entries x 40 queries: 280k cells
    assert len(pool_sizes) == 1 and pool_sizes[0] >= 1


def test_sliced_search_hands_each_slice_to_one_worker_under_stress(monkeypatch):
    from esgpipe import retrieval

    kb = sparse_kb(11, (600, 300, 500))
    queries = sparse_queries(12, 40)
    monkeypatch.setattr(retrieval, "_SLICE_CELLS", 1 << 60)
    monkeypatch.setattr(retrieval, "_usable_cpus", lambda: 1)
    whole = _hits(kb, queries, 3)
    monkeypatch.setattr(retrieval, "_SLICE_CELLS", 1)  # one query per slice: 120 slices
    monkeypatch.setattr(retrieval, "_THREAD_CELLS", 0)
    monkeypatch.setattr(retrieval, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _hits(kb, queries, 3) == whole
    finally:
        sys.setswitchinterval(interval)


def test_sliced_search_peaks_below_the_one_slice_path(monkeypatch):
    from esgpipe import retrieval

    kb = sparse_kb(9, (2000, 1000, 2000))
    queries = sparse_queries(10, 60)

    def peak() -> int:
        tracemalloc.start()
        try:
            search_many(kb, queries, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(retrieval, "_usable_cpus", lambda: 2)
    sliced = peak()
    monkeypatch.setattr(retrieval, "_SLICE_CELLS", 1 << 60)
    monkeypatch.setattr(retrieval, "_usable_cpus", lambda: 1)
    whole = peak()
    assert sliced <= whole, f"sliced {sliced / 2**20:.2f} MB, one slice {whole / 2**20:.2f} MB"


def test_table_keyword_hits_resolve_to_full_table(registry, corpus_docs, offline_providers):
    from esgpipe.kb import build
    from esgpipe.docmodel import render_table

    doc = corpus_docs[0]
    kb = build(doc, offline_providers.embedder)
    spec = registry.indicator("A2.1-energy")
    query = build_query(spec, registry, offline_providers.embedder)
    hits = search(kb, query, 5)
    keyword_hits = [h for h in hits if h.source is Source.TABLE_KEYWORD]
    assert keyword_hits, "expected at least one table keyword hit"
    full_tables = {render_table(t) for t in doc.tables}
    for hit in keyword_hits:
        assert hit.resolved_payload in full_tables


def test_text_hits_carry_summary_prefix(corpus_docs, offline_providers, registry):
    from esgpipe.kb import build

    kb = build(corpus_docs[0], offline_providers.embedder)
    spec = registry.indicator("A1.policy")
    query = build_query(spec, registry, offline_providers.embedder)
    text_hits = [h for h in search(kb, query, 3) if h.source is Source.TEXT]
    assert text_hits
    assert all(h.resolved_payload.startswith("[Summary] ") for h in text_hits)


# --- query building ---


def test_build_query_includes_search_terms(registry):
    emb = HashEmbedder()
    spec = registry.indicator("A1.1-nox")
    with_terms = build_query(spec, registry, emb)
    without = build_query(spec, registry, emb, use_search_terms=False)
    assert len(with_terms.query_texts) == 1 + len(spec.search_terms)
    assert len(without.query_texts) == 1
    assert with_terms.query_texts[0] == without.query_texts[0]
    assert len(with_terms.vectors) == len(with_terms.query_texts)


def test_query_length_mismatch_rejected():
    with pytest.raises(RetrievalError):
        Query(indicator_id="q", query_texts=["a", "b"], vectors=[[1.0]])


# --- rerank ---


def _hit(entry_id, payload, sim=0.5, source=Source.TEXT, anchor=None):
    return ScoredHit(
        entry_id=entry_id, source=source, similarity=sim,
        resolved_payload=payload, anchor=anchor or f"flat:{entry_id}",
    )


def as_hits(scored):
    """The columns that `search_many` would hand on for these hits, in
    this order: one table row per hit."""
    table = HitTable(
        [h.entry_id for h in scored], [h.source for h in scored],
        [h.resolved_payload for h in scored], [h.anchor for h in scored],
        [len(h.resolved_payload) for h in scored],
        [(list(Source).index(h.source), h.anchor) for h in scored],
    )
    return Hits(table, list(range(len(scored))), [h.similarity for h in scored])


def test_rerank_promotes_token_overlap():
    hits = [
        _hit("a", "completely unrelated words here", sim=0.9),
        _hit("b", "total energy consumption in megawatt hours", sim=0.8),
        _hit("c", "another unrelated chunk", sim=0.7),
    ]
    out = rerank(as_hits(hits), "total energy consumption", JaccardReranker(), m=3).scored()
    assert out[0].entry_id == "b"
    assert out[0].rerank_score is not None


def test_rerank_zero_m_is_identity():
    hits = [_hit("a", "x", 0.9), _hit("b", "y", 0.8)]
    out = rerank(as_hits(hits), "q", JaccardReranker(), m=0).scored()
    assert out == hits
    assert all(h.rerank_score is None for h in out)


def test_rerank_keeps_tail_order():
    hits = [_hit(str(n), f"payload {n}", 1.0 - n / 10) for n in range(6)]
    out = rerank(as_hits(hits), "nothing matches", JaccardReranker(), m=3).scored()
    assert out[3:] == hits[3:]
    assert all(h.rerank_score is None for h in out[3:])


def test_rerank_stable_on_equal_scores():
    hits = [_hit(str(n), "identical words", 0.5) for n in range(4)]
    out = rerank(as_hits(hits), "identical words", JaccardReranker(), m=4).scored()
    assert [h.entry_id for h in out] == ["0", "1", "2", "3"]


class _FailingReranker(Reranker):
    name = "failing"

    def score(self, query, candidates):
        raise ProviderError("remote reranker down")


def test_rerank_falls_back_when_provider_fails():
    hits = [
        _hit("a", "unrelated", 0.9),
        _hit("b", "total energy consumption", 0.8),
    ]
    out = rerank(as_hits(hits), "total energy consumption", _FailingReranker(), m=2).scored()
    assert out[0].entry_id == "b"


def test_rerank_negative_m_rejected():
    with pytest.raises(RetrievalError):
        rerank(as_hits([]), "q", JaccardReranker(), m=-1)


# --- evidence assembly ---


def test_assemble_takes_greedy_prefix():
    hits = [_hit(str(n), "x" * 400) for n in range(3)]
    bundle = assemble_evidence(as_hits(hits), budget_chars=1000)
    assert bundle.hits == hits[:2]
    assert bundle.total_chars == 800
    assert bundle.truncated is False


def test_assemble_stops_at_first_overflow():
    # the third hit would fit, but assembly stops at the second
    hits = [_hit("a", "x" * 600), _hit("b", "y" * 600), _hit("c", "z" * 100)]
    bundle = assemble_evidence(as_hits(hits), budget_chars=1000)
    assert [h.entry_id for h in bundle.hits] == ["a"]


def test_assemble_truncates_single_oversized_hit():
    hits = [_hit("a", "x" * 5000)]
    bundle = assemble_evidence(as_hits(hits), budget_chars=1000)
    assert bundle.truncated is True
    assert len(bundle.hits[0].resolved_payload) == 1000
    assert bundle.total_chars == 1000
    assert len(hits[0].resolved_payload) == 5000


def test_assemble_dedupes_same_anchor():
    table_payload = "Indicator | Amount\nEnergy | 5"
    hits = [
        _hit("k1", table_payload, source=Source.TABLE_KEYWORD, anchor="table:t1"),
        _hit("k2", table_payload, source=Source.TABLE_KEYWORD, anchor="table:t1"),
        _hit("t1", "prose chunk"),
        _hit("o1", "outline", source=Source.OUTLINE, anchor="table:t1"),  # another source
    ]
    bundle = assemble_evidence(as_hits(hits), budget_chars=1000)
    assert [h.entry_id for h in bundle.hits] == ["k1", "t1", "o1"]


def test_search_many_dedupe_keys_tell_sources_apart():
    # one anchor in two partitions is two locations; twice in one partition, one
    entries = [
        Entry(f"e{n}", source, f"payload {n}", [1.0, float(n)], "shared")
        for n, source in enumerate([Source.TEXT, Source.OUTLINE, Source.TEXT])
    ]
    kb = KnowledgeBase(scope="d", provider_name="t", dim=2, entries=entries)
    (hits,) = search_many(kb, [Query("q", ["t"], [[1.0, 0.0]])], 5)
    assert sorted(hits.table.keys) == [(0, "shared"), (0, "shared"), (1, "shared")]
    bundle = assemble_evidence(hits, budget_chars=1000)
    assert [h.entry_id for h in bundle.hits] == ["e0", "e1"]


def test_assemble_empty_hits():
    bundle = assemble_evidence(as_hits([]), budget_chars=1000, indicator_id="x")
    assert bundle == EvidenceBundle(indicator_id="x", hits=[], total_chars=0)


def test_assemble_rejects_tiny_budget():
    with pytest.raises(RetrievalError):
        assemble_evidence(as_hits([]), budget_chars=10)


# --- the hit path against ScoredHit lists ---


def reference_evidence(spec, scored, query_text, reranker, cfg, use_rerank):
    """Rerank and assembly over `search`'s hits, as objects: a stable sort
    on -score over the first m (the token-overlap scores when the
    reranker fails), a dedupe on (source, anchor), then a greedy budget
    that truncates an oversized first hit."""
    hits = list(scored)
    if use_rerank and cfg.rerank_m:
        head = hits[: cfg.rerank_m]
        payloads = [h.resolved_payload for h in head]
        try:
            scores = reranker.score(query_text, payloads)
        except ProviderError:
            scores = JaccardReranker().score(query_text, payloads)
        head = [dataclasses.replace(h, rerank_score=float(s)) for h, s in zip(head, scores)]
        hits = sorted(head, key=lambda h: -h.rerank_score) + hits[cfg.rerank_m :]
    taken, seen, total = [], set(), 0
    for hit in hits:
        if (hit.source, hit.anchor) in seen:
            continue
        if total + len(hit.resolved_payload) > cfg.budget_chars:
            if not taken:
                payload = hit.resolved_payload[: cfg.budget_chars]
                cut = dataclasses.replace(hit, resolved_payload=payload)
                return EvidenceBundle(spec.id, [cut], cfg.budget_chars, True)
            break
        seen.add((hit.source, hit.anchor))
        taken.append(hit)
        total += len(hit.resolved_payload)
    return EvidenceBundle(spec.id, taken, total)


def test_evidence_from_search_many_matches_the_scored_hit_reference(
    corpus_docs, registry, offline_providers, monkeypatch
):
    from esgpipe import retrieval
    from esgpipe.agent import ExtractConfig, evidence_from_hits
    from esgpipe.kb import build, build_naive
    from esgpipe.providers import ProviderSet

    # a slice per query: each query's own matmul, as in `search`, over one table of hits
    monkeypatch.setattr(retrieval, "_SLICE_CELLS", 1)
    emb = offline_providers.embedder
    plan = build_queries(registry.indicators, registry, emb, [False, True])
    failing = ProviderSet(embedder=emb, chat=None, reranker=_FailingReranker())
    seen = Counter()
    for doc in corpus_docs:
        # the structured KB with search terms and rerank; the naive one without
        for kb, enhanced in ((build(doc, emb), True), (build_naive(doc, emb), False)):
            queries = [plan[spec.id, enhanced] for spec in registry.indicators]
            batch = search_many(kb, queries, 5)
            for spec, query, hits in zip(registry.indicators, queries, batch):
                scored = search(kb, query, 5)
                assert hits.scored() == scored
                keys = [(h.source, h.anchor) for h in scored]
                seen["duplicate anchors"] += len(keys) > len(set(keys))
                for providers, cfg in (
                    (offline_providers, ExtractConfig()),
                    (offline_providers, ExtractConfig(rerank_m=3, budget_chars=500)),
                    (failing, ExtractConfig()),  # the naive group reranks nothing
                ):
                    got = evidence_from_hits(spec, query, hits, providers, cfg, enhanced)
                    want = reference_evidence(
                        spec, scored, query.query_texts[0], providers.reranker, cfg, enhanced
                    )
                    assert got == want, (doc.doc_id, spec.id, enhanced, cfg)
                    seen["oversized first hit"] += got.truncated
                    seen["fallback"] += enhanced and providers is failing
    assert min(seen.values()) > 0, seen
