"""Knowledge base construction: chunking, keywords, persistence, anchors."""

import random

import pytest

from esgpipe.docmodel import (
    Block,
    OutlineNode,
    StructuredDocument,
    Table,
    render_table,
)
from esgpipe.errors import KnowledgeBaseError, ProviderError
from esgpipe.kb import (
    BuildConfig,
    KB_VERSION,
    Source,
    build,
    build_naive,
    chunk_text,
    extract_table_keywords,
    flatten_document,
    load,
    naive_chunks,
    save,
    summarize,
    verify_anchors,
)
from esgpipe.providers import HashEmbedder, SummaryProvider


def make_doc(block_texts, tables=(), doc_id="d"):
    blocks = [Block(text=t, page=1) for t in block_texts]
    root = OutlineNode(title="", level=0, span=(0, 0))
    child = OutlineNode(title="Body", level=1, span=(0, len(blocks)))
    root.children.append(child)
    return StructuredDocument(
        doc_id=doc_id, company="C", industry="I", market_cap_mhkd=None,
        outline=root, blocks=blocks, tables=list(tables),
    )


# --- block-respecting chunking ---


def test_chunk_packs_whole_blocks():
    doc = make_doc(["a" * 100, "b" * 100, "c" * 100])
    chunks = chunk_text(doc, max_chars=250)
    assert chunks == [
        ("blocks:0-1", "a" * 100 + "\n" + "b" * 100),
        ("blocks:2-2", "c" * 100),
    ]


def test_chunk_splits_oversized_block_at_sentences():
    sentence = "Twelve words fill this sentence about nothing in particular today okay."
    block = " ".join([sentence] * 9)  # ~650 chars, no block fits 250
    doc = make_doc([block])
    chunks = chunk_text(doc, max_chars=250)
    assert len(chunks) == 3
    assert [a for a, _ in chunks] == ["blocks:0-0#0", "blocks:0-0#1", "blocks:0-0#2"]
    for _, text in chunks:
        assert len(text) <= 250
    assert " ".join(t for _, t in chunks) == block


def test_chunk_never_splits_mid_sentence():
    rng = random.Random(11)
    sentences = [
        f"s{n:03d} " + " ".join(f"tok{rng.randrange(50)}" for _ in range(rng.randint(4, 14))) + "."
        for n in range(40)
    ]
    doc = make_doc([" ".join(sentences[i : i + 4]) for i in range(0, 40, 4)])
    for _, text in chunk_text(doc, max_chars=220):
        for sentence in sentences:
            # the unique serial marks each sentence: present means whole
            serial = sentence.split()[0]
            if serial in text:
                assert sentence in text


def test_chunk_rejects_tiny_budget():
    with pytest.raises(KnowledgeBaseError):
        chunk_text(make_doc(["x"]), max_chars=10)


# --- fixed-size chunking for the benchmark arm ---


def test_naive_chunks_pack_sentences():
    flat = "First sentence here. Second one follows. Third closes it."
    chunks = naive_chunks(flat, size=45)
    assert [c for _, c in chunks] == [
        "First sentence here. Second one follows.",
        "Third closes it.",
    ]
    assert [a for a, _ in chunks] == ["flat:0", "flat:1"]


def test_naive_chunks_hard_cut_long_runs():
    run = "x" * 1000  # no sentence boundary anywhere
    chunks = naive_chunks(run, size=400)
    texts = [c for _, c in chunks]
    assert all(len(t) <= 400 for t in texts)
    assert "".join(texts).replace(" ", "") == run


def test_naive_chunks_never_contain_oversized_lines():
    wide = "Label | " + "note " * 120 + "| 99 | t"
    assert len(wide) > 400
    flat = "Short opener sentence. " + wide
    for _, text in naive_chunks(flat, size=400):
        assert wide not in text


# --- table keywords ---


def test_extract_table_keywords_headers_and_labels():
    table = Table(
        table_id="t", n_rows=2, n_cols=2,
        cells=[["Metric", "2022"], ["Scope 1", "12.5"]],
        header_row_count=1,
    )
    assert extract_table_keywords(table) == ["Metric", "Scope 1"]


def test_extract_table_keywords_skips_numeric_and_blank():
    table = Table(
        table_id="t", n_rows=4, n_cols=2,
        cells=[["Item", "Total"], ["", "5"], ["1,250.5", "6"], ["Water use", "7"]],
        header_row_count=1,
    )
    assert extract_table_keywords(table) == ["Item", "Total", "Water use"]


def test_extract_table_keywords_dedupes():
    table = Table(
        table_id="t", n_rows=3, n_cols=1,
        cells=[["Energy"], ["Energy"], ["Diesel"]],
        header_row_count=1,
    )
    assert extract_table_keywords(table) == ["Energy", "Diesel"]


# --- builds ---


@pytest.fixture(scope="module")
def embedder():
    return HashEmbedder()


def test_build_counts_match_structure(corpus_docs, embedder):
    doc = corpus_docs[0]
    kb = build(doc, embedder)
    counts = kb.counts()
    assert counts["Text"] == len(chunk_text(doc))
    assert counts["Outline"] == 9
    keyword_total = sum(len(extract_table_keywords(t)) for t in doc.tables)
    assert counts["TableKeyword"] == keyword_total
    assert set(kb.table_texts) == {t.table_id for t in doc.tables}
    assert kb.table_texts["tbl-0"] == render_table(doc.tables[0])
    verify_anchors(kb, doc)


def test_build_gives_every_text_entry_a_summary(corpus_docs, embedder):
    kb = build(corpus_docs[0], embedder)
    for entry in kb.entries:
        if entry.source is Source.TEXT:
            assert entry.summary
        else:
            assert entry.summary is None


def test_build_naive_is_single_partition(corpus_docs, embedder):
    doc = corpus_docs[0]
    kb = build_naive(doc, embedder)
    assert set(e.source for e in kb.entries) == {Source.TEXT}
    assert kb.counts()["Outline"] == 0
    assert kb.counts()["TableKeyword"] == 0
    assert all(e.summary is None for e in kb.entries)
    assert kb.table_texts == {}
    expected = naive_chunks(flatten_document(doc))
    assert [(e.anchor, e.payload_text) for e in kb.entries] == expected
    verify_anchors(kb, doc)


def test_flatten_document_order(corpus_docs):
    doc = corpus_docs[0]
    flat = flatten_document(doc)
    assert flat.startswith(doc.blocks[0].text)
    assert render_table(doc.tables[-1]) in flat


def test_duplicate_entry_ids_rejected(corpus_docs, embedder):
    kb = build(corpus_docs[0], embedder)
    from dataclasses import replace
    from esgpipe.kb import KnowledgeBase

    twice = [kb.entries[0], replace(kb.entries[1], entry_id=kb.entries[0].entry_id)]
    with pytest.raises(KnowledgeBaseError, match="duplicate"):
        KnowledgeBase(
            scope="d", provider_name="p", dim=kb.dim,
            entries=twice, table_texts={},
        )


def test_vector_dim_mismatch_rejected(corpus_docs, embedder):
    kb = build(corpus_docs[0], embedder)
    from dataclasses import replace
    from esgpipe.kb import KnowledgeBase

    bad = [replace(kb.entries[0], vector=[0.1, 0.2])]
    with pytest.raises(KnowledgeBaseError, match="dim"):
        KnowledgeBase(
            scope="d", provider_name="p", dim=kb.dim,
            entries=bad, table_texts={},
        )


# --- persistence ---


def test_save_load_round_trip_bytes(corpus_docs, embedder, tmp_path):
    kb = build(corpus_docs[0], embedder)
    p1 = tmp_path / "kb1.json"
    p2 = tmp_path / "kb2.json"
    save(kb, p1)
    again = load(p1)
    save(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert again.counts() == kb.counts()
    assert [e.entry_id for e in again.entries] == [e.entry_id for e in kb.entries]
    assert again.table_texts == kb.table_texts


def test_load_keeps_vectors_and_builds_partitions_once(
    corpus_docs, embedder, tmp_path, monkeypatch
):
    import json

    from esgpipe import kb as kbmod
    from esgpipe.retrieval import Query, search

    path = tmp_path / "kb.json"
    save(build(corpus_docs[0], embedder), path)
    saved = [e["vector"] for e in json.loads(path.read_text())["entries"]]

    built = []

    def counting(entries, dim):
        built.append(len(entries))
        return original(entries, dim)

    original = kbmod._partition
    monkeypatch.setattr(kbmod, "_partition", counting)
    kb = load(path)
    assert [list(e.vector) for e in kb.entries] == saved
    assert len(built) == len(Source)
    parts = {s: kb.partition(s) for s in Source}
    query = Query(indicator_id="q", query_texts=["q"], vectors=[saved[0]])
    for _ in range(3):
        search(kb, query, 5)
    assert len(built) == len(Source)
    assert all(kb.partition(s) is parts[s] for s in Source)
    assert sum(len(p.entries) for p in parts.values()) == len(kb.entries)


def test_load_rejects_wrong_version(corpus_docs, embedder, tmp_path):
    import json

    kb = build_naive(corpus_docs[0], embedder)
    path = tmp_path / "kb.json"
    save(kb, path)
    data = json.loads(path.read_text())
    data["version"] = KB_VERSION + 1
    path.write_text(json.dumps(data))
    with pytest.raises(KnowledgeBaseError, match="version"):
        load(path)


def test_load_rejects_non_kb_file(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something_else", "version": 1}')
    with pytest.raises(KnowledgeBaseError, match="not a KB file"):
        load(path)
    path.write_text("not json")
    with pytest.raises(KnowledgeBaseError):
        load(path)


def test_verify_anchors_detects_foreign_document(corpus_docs, embedder):
    kb = build(corpus_docs[0], embedder)
    stripped = make_doc(["only one block"])
    with pytest.raises(KnowledgeBaseError, match="does not resolve"):
        verify_anchors(kb, stripped)


# --- summaries ---


class _BrokenSummarizer(SummaryProvider):
    name = "broken"

    def __init__(self, result: str | None):
        self.result = result

    def summarize(self, text: str) -> str:
        if self.result is None:
            raise ProviderError("summarizer offline")
        return self.result


def test_summarize_defaults_to_lead_sentences():
    text = "One here. Two here. Three here."
    summary, fell_back = summarize(text)
    assert summary == "One here. Two here."
    assert fell_back is False


def test_summarize_falls_back_on_provider_error():
    summary, fell_back = summarize("One here. Two here.", _BrokenSummarizer(None))
    assert fell_back is True
    assert summary == "One here. Two here."


def test_summarize_falls_back_on_bad_output():
    text = "One here. Two here."
    for bad in ("", text + " padded way beyond the input length"):
        summary, fell_back = summarize(text, _BrokenSummarizer(bad))
        assert fell_back is True


def test_build_counts_summary_fallbacks(corpus_docs, embedder):
    cfg = BuildConfig(summary_provider=_BrokenSummarizer(None))
    kb = build(corpus_docs[0], cfg=cfg, embedder=embedder)
    assert kb.summary_fallbacks == kb.counts()["Text"]


def test_summarize_rejects_empty_input():
    with pytest.raises(KnowledgeBaseError):
        summarize("")
