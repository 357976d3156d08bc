"""Ablation arm switches and per-document orchestration."""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter

import numpy as np
import pytest

from esgpipe import agent, metadata, pipeline
from esgpipe.errors import ConfigError, RetrievalError
from esgpipe.evaluation import run_ablation
from esgpipe.kb import BuildConfig, Source
from esgpipe.pipeline import (
    ABLATION_ARMS,
    DEFAULT_ARM,
    AblationConfig,
    PipelineConfig,
    ablation_arm,
    build_document_kb,
    plan_corpus,
    run_corpus,
)
from esgpipe.providers import HashEmbedder
from esgpipe.retrieval import Query, build_query, search

ALL_ARMS = [ABLATION_ARMS[a] for a in ("benchmark", "enhanced_rag", "enhanced_rag_knowledge")]


def test_arm_switch_matrix():
    b = ABLATION_ARMS["benchmark"]
    assert (b.use_structured_preprocessing, b.use_enhanced_retrieval,
            b.use_knowledge) == (False, False, False)
    e = ABLATION_ARMS["enhanced_rag"]
    assert (e.use_structured_preprocessing, e.use_enhanced_retrieval,
            e.use_knowledge) == (True, True, False)
    k = ABLATION_ARMS["enhanced_rag_knowledge"]
    assert (k.use_structured_preprocessing, k.use_enhanced_retrieval,
            k.use_knowledge) == (True, True, True)
    assert DEFAULT_ARM == "enhanced_rag_knowledge"


def test_ablation_arm_lookup():
    assert ablation_arm("benchmark") is ABLATION_ARMS["benchmark"]
    with pytest.raises(ConfigError, match="no-such-arm"):
        ablation_arm("no-such-arm")


def test_arm_switches_reach_the_groups_evidence_and_prompt(
    registry, corpus_docs, offline_providers, monkeypatch
):
    base = PipelineConfig(
        extract=agent.ExtractConfig(top_k=3, rerank_m=4, budget_chars=900),
        kb_build=BuildConfig(max_chars=300, summary_sentences=1, naive_chunk_chars=200),
    )
    plan = plan_corpus(registry, offline_providers, base, ALL_ARMS)
    naive, enhanced = plan.groups
    assert (naive.structured, naive.enhanced, naive.arms) == (False, False, (ALL_ARMS[0],))
    assert (enhanced.structured, enhanced.enhanced) == (True, True)
    assert enhanced.arms == tuple(ALL_ARMS[1:])
    # each group runs with its first arm and the run's sizes
    for group in plan.groups:
        assert group.cfg == dataclasses.replace(base, arm=group.arms[0])

    seen = Counter()
    real_evidence, real_extract = pipeline.evidence_from_hits, pipeline.extract_indicator

    def evidence_from_hits(spec, query, hits, providers, cfg, use_rerank):
        seen["rerank", use_rerank, cfg is base.extract] += 1
        return real_evidence(spec, query, hits, providers, cfg, use_rerank)

    def extract_indicator(doc_id, spec, evidence, registry, providers, knowledge_enabled, *rest):
        seen["knowledge", knowledge_enabled] += 1
        return real_extract(doc_id, spec, evidence, registry, providers, knowledge_enabled, *rest)

    monkeypatch.setattr(pipeline, "evidence_from_hits", evidence_from_hits)
    monkeypatch.setattr(pipeline, "extract_indicator", extract_indicator)
    (result,) = run_corpus(corpus_docs[:1], registry, offline_providers, base, ALL_ARMS)
    assert set(result.records) == {a.config_id for a in ALL_ARMS}
    n = len(registry.indicators)
    assert seen == {
        ("rerank", False, True): n,  # benchmark
        ("rerank", True, True): n,  # enhanced_rag and enhanced_rag_knowledge
        ("knowledge", False): 2 * n,  # benchmark and enhanced_rag
        ("knowledge", True): n,  # enhanced_rag_knowledge
    }


def test_build_document_kb_structured_vs_naive(corpus_docs, offline_providers):
    doc = corpus_docs[0]
    structured = build_document_kb(
        doc, offline_providers,
        PipelineConfig(arm=ABLATION_ARMS["enhanced_rag_knowledge"]),
    )
    naive = build_document_kb(
        doc, offline_providers, PipelineConfig(arm=ABLATION_ARMS["benchmark"])
    )
    s_counts = structured.counts()
    assert s_counts["Outline"] > 0 and s_counts["TableKeyword"] > 0
    n_counts = naive.counts()
    assert n_counts["Outline"] == 0 and n_counts["TableKeyword"] == 0
    assert n_counts["Text"] > 0
    assert all(e.source is Source.TEXT for e in naive.entries)


def test_extract_document_covers_registry_sorted(registry, corpus_docs,
                                                 offline_providers):
    doc = corpus_docs[0]
    cfg = PipelineConfig(arm=ABLATION_ARMS["enhanced_rag_knowledge"])
    kb = build_document_kb(doc, offline_providers, cfg)
    (result,) = run_corpus([doc], registry, offline_providers, cfg, [cfg.arm],
                           source_kb=lambda d, c: kb)
    assert result.errors == {}
    records = result.records[cfg.arm.config_id]
    covered = {r.indicator_id for r in records}
    assert covered == {s.id for s in registry.indicators}
    keys = [(r.indicator_id, r.topic) for r in records]
    assert keys == sorted(keys)
    assert all(r.doc_id == doc.doc_id for r in records)


def test_run_corpus_calls_its_stages_by_module_name(registry, corpus_docs, offline_providers,
                                                   monkeypatch):
    # a tracer that wraps `pipeline.extract_document` and `extract_indicator` sees every call
    calls = Counter()

    def counted(name):
        real = getattr(pipeline, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("extract_document", "extract_indicator"):
        monkeypatch.setattr(pipeline, name, counted(name))
    list(run_corpus(corpus_docs[:2], registry, offline_providers, PipelineConfig(), ALL_ARMS))
    assert calls == {"extract_document": 2, "extract_indicator": 2 * 3 * len(registry.indicators)}


def test_ablation_config_is_hashable():
    arm = AblationConfig("x", True, False, True)
    assert {arm: 1}[arm] == 1


# ------------------------------------------------------------- corpus runner


class _CountingEmbedder(HashEmbedder):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def embed(self, texts, out=None):
        self.calls += 1
        return super().embed(texts, out)


def test_one_query_embed_per_run_plus_one_per_kb(registry, corpus_docs, corpus_labels,
                                                  offline_providers):
    docs = corpus_docs[:3]
    embedder = _CountingEmbedder()
    providers = dataclasses.replace(offline_providers, embedder=embedder)
    run_ablation(docs, registry, corpus_labels, ALL_ARMS, providers)
    assert embedder.calls == 1 + len(docs) * 2  # a naive and a structured KB per doc

    embedder.calls = 0
    cfg = PipelineConfig(arm=ABLATION_ARMS["enhanced_rag"])
    results = list(run_corpus(docs, registry, providers, cfg, [cfg.arm], jobs=2))
    assert [r.doc_id for r in results] == [d.doc_id for d in docs]
    assert embedder.calls == 1 + len(docs)


def test_arms_with_equal_retrieval_share_search_and_rerank(
    registry, corpus_docs, corpus_labels, offline_providers, monkeypatch
):
    counts = {"search_many": 0, "queries": 0, "rerank": 0}
    real_search_many = pipeline.search_many
    real_rerank = agent.rerank

    def search_many(kb, queries, k):
        counts["search_many"] += 1
        counts["queries"] += len(queries)
        return real_search_many(kb, queries, k)

    def rerank(*args, **kwargs):
        counts["rerank"] += 1
        return real_rerank(*args, **kwargs)

    monkeypatch.setattr(pipeline, "search_many", search_many)
    monkeypatch.setattr(agent, "rerank", rerank)
    docs = corpus_docs[:2]
    run_ablation(docs, registry, corpus_labels, ALL_ARMS, offline_providers, jobs=2)
    n = len(registry.indicators)
    # two retrieval groups: one batched search each per document
    assert counts == {
        "search_many": len(docs) * 2,
        "queries": len(docs) * n * 2,
        "rerank": len(docs) * n,
    }


def test_bad_query_mid_batch_fails_only_its_group_without_chat(
    registry, corpus_docs, offline_providers, monkeypatch
):
    bad_id = registry.indicators[len(registry.indicators) // 2].id
    real_build_queries = pipeline.build_queries

    def build_queries(*args):
        queries = real_build_queries(*args)
        good = queries[(bad_id, False)]  # the benchmark arm's query
        queries[(bad_id, False)] = dataclasses.replace(good, vectors=[[1.0, 0.0]])
        return queries

    chats = []
    real_complete = offline_providers.chat.complete

    def complete(prompt, params):
        chats.append(prompt)
        return real_complete(prompt, params)

    monkeypatch.setattr(pipeline, "build_queries", build_queries)
    monkeypatch.setattr(offline_providers.chat, "complete", complete)
    docs = corpus_docs[:2]
    results = list(run_corpus(docs, registry, offline_providers, PipelineConfig(), ALL_ARMS,
                              jobs=2))
    bad = dataclasses.replace(
        build_query(registry.indicator(bad_id), registry, offline_providers.embedder, False),
        vectors=[[1.0, 0.0]],
    )
    with pytest.raises(RetrievalError) as expected:
        naive = PipelineConfig(arm=ABLATION_ARMS["benchmark"])
        search(build_document_kb(docs[0], offline_providers, naive), bad, 5)
    for result in results:
        assert {arm: str(e) for arm, e in result.errors.items()} == {
            "benchmark": str(expected.value)
        }
        assert sorted(result.records) == ["enhanced_rag", "enhanced_rag_knowledge"]
    assert len(chats) == len(docs) * len(registry.indicators) * 2


def test_plan_groups_arms_and_matches_build_query(registry, offline_providers):
    plan = plan_corpus(registry, offline_providers, PipelineConfig(), ALL_ARMS)
    assert [[arm.config_id for arm in g.arms] for g in plan.groups] == [
        ["benchmark"],
        ["enhanced_rag", "enhanced_rag_knowledge"],
    ]
    assert len(plan.queries) == 2 * len(registry.indicators)
    for spec in registry.indicators[:5]:
        for switch in (False, True):
            want = build_query(spec, registry, offline_providers.embedder, switch)
            got = plan.queries[(spec.id, switch)]
            assert (got.indicator_id, got.query_texts) == (want.indicator_id, want.query_texts)
            assert np.array_equal(got.vectors, want.vectors)
    # the plan holds every query's vectors as its own consecutive rows of
    # one matrix, and a text's vector is the same bits in every query
    rows = [v for q in plan.queries.values() for v in q.vectors]
    assert all(isinstance(v, np.ndarray) and v.base is rows[0].base for v in rows)
    assert rows[0].base.shape == (len(rows), offline_providers.embedder.dim)
    texts = [t for q in plan.queries.values() for t in q.query_texts]
    by_text = dict(zip(texts, rows))
    assert len(by_text) < len(texts)
    assert all(row.tobytes() == by_text[t].tobytes() for t, row in zip(texts, rows))


def test_ablate_renders_each_question_only_while_planning(
    registry, corpus_docs, corpus_labels, offline_providers, monkeypatch
):
    real = metadata.render_question
    rendered = []

    def render_question(spec, registry):
        rendered.append(spec.id)
        return real(spec, registry)

    for name, module in list(sys.modules.items()):
        if name.startswith("esgpipe") and getattr(module, "render_question", None) is real:
            monkeypatch.setattr(module, "render_question", render_question)
    run_ablation(corpus_docs, registry, corpus_labels, ALL_ARMS, offline_providers)
    assert len(corpus_docs) == 10
    # one per plan query (indicator x search-term switch), none per extraction
    assert Counter(rendered) == Counter({spec.id: 2 for spec in registry.indicators})


def test_every_prompt_asks_the_rendered_question(
    registry, corpus_docs, corpus_labels, offline_providers, monkeypatch
):
    prompts = []
    real_complete = offline_providers.chat.complete

    def complete(prompt, params):
        prompts.append(prompt)
        return real_complete(prompt, params)

    monkeypatch.setattr(offline_providers.chat, "complete", complete)
    run_ablation(corpus_docs, registry, corpus_labels, ALL_ARMS, offline_providers)
    assert len(prompts) == len(corpus_docs) * len(registry.indicators) * len(ALL_ARMS)
    for prompt in prompts:
        question = metadata.render_question(registry.indicator(prompt.indicator_id), registry)
        assert prompt.question == question
        assert f"[Question]\n{question}\n\n" in prompt.to_messages()[1]["content"]


def _counting_property(cls, name, counts):
    real = vars(cls)[name].func

    def compute(self):
        counts[id(self)] += 1
        return real(self)

    prop = functools.cached_property(compute)
    prop.__set_name__(cls, name)
    return prop


def test_a_run_converts_each_plan_query_once(registry, corpus_docs, offline_providers,
                                             monkeypatch):
    matrices, norms, plans = Counter(), Counter(), []
    monkeypatch.setattr(Query, "matrix", _counting_property(Query, "matrix", matrices))
    monkeypatch.setattr(Query, "norms", _counting_property(Query, "norms", norms))
    real_plan_corpus = pipeline.plan_corpus

    def plan_corpus(*args):
        plans.append(real_plan_corpus(*args))
        return plans[-1]

    monkeypatch.setattr(pipeline, "plan_corpus", plan_corpus)
    docs = corpus_docs[:3]
    results = list(run_corpus(docs, registry, offline_providers, PipelineConfig(), ALL_ARMS,
                              jobs=2))
    assert all(set(r.records) == {a.config_id for a in ALL_ARMS} for r in results)
    (plan,) = plans
    once = Counter(id(q) for q in plan.queries.values())
    assert len(once) == 2 * len(registry.indicators)
    # searched by docs x 2 groups, converted once
    assert matrices == once
    assert norms == once


def test_run_corpus_rejects_zero_jobs(registry, corpus_docs, offline_providers):
    with pytest.raises(ConfigError, match="jobs"):
        list(run_corpus(corpus_docs[:1], registry, offline_providers,
                        PipelineConfig(), ALL_ARMS, jobs=0))


def test_run_corpus_threads_match_serial_run(registry, corpus_docs, offline_providers):
    import sys

    docs = corpus_docs[:2]
    cfg = PipelineConfig()

    def run(jobs):
        return [(r.doc_id, r.records, r.errors)
                for r in run_corpus(docs, registry, offline_providers, cfg, ALL_ARMS, jobs=jobs)]

    serial = run(1)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run(6)
    finally:
        sys.setswitchinterval(old)
    assert threaded == serial
    assert all(set(records) == {a.config_id for a in ALL_ARMS} for _d, records, _e in serial)
