"""Knowledge base construction: chunking, keywords, persistence, anchors."""

import json
import os
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    Entry,
    KB_VERSION,
    KnowledgeBase,
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
from esgpipe.providers import MAX_DIM, HashEmbedder


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


def _sentences(text):
    return [s for s in re.split(r"(?<=[.!?])\s+", text.strip()) if s]


def _pack(strings, sep, limit):
    """Index runs of `strings`, greedily: a string joins the open run
    while the run's strings joined by `sep`, separators and all, fit in
    `limit`, and otherwise opens the next run."""
    runs = []
    for j, text in enumerate(strings):
        if runs and len(sep.join([strings[k] for k in runs[-1]] + [text])) <= limit:
            runs[-1].append(j)
        else:
            runs.append([j])
    return runs


_PLANTED_SENTENCES = st.lists(
    st.tuples(st.integers(min_value=1, max_value=300), st.sampled_from([" ", "  ", "\n"])),
    max_size=12,
)


def _planted(sentences):
    """Sentences of the planted lengths, each ended by a full stop."""
    return "".join("x" * (n - 1) + "." + gap for n, gap in sentences)


@settings(max_examples=300, deadline=None)
@given(
    blocks=st.lists(st.one_of(st.just([]), _PLANTED_SENTENCES), max_size=6),
    max_chars=st.integers(min_value=200, max_value=600),
)
# two empty blocks and a 200-char one join in 202 chars: too many for 201
@example(blocks=[[], [], [(199, " ")]], max_chars=201)
def test_chunk_packs_split_blocks_like_a_sentence_loop(blocks, max_chars):
    """Blocks, empty ones among them, are packed whole between the long
    blocks, and a long block's sentences (of planted lengths, some
    longer than the budget) into its pieces, as a loop that counts every
    separator packs them; no chunk but a single sentence exceeds the
    budget."""
    texts = [_planted(block) for block in blocks]
    want, stretch = [], []  # stretch: the whole blocks since the last long one

    def whole():
        for run in _pack([texts[j] for j in stretch], "\n", max_chars):
            want.append((
                f"blocks:{stretch[run[0]]}-{stretch[run[-1]]}",
                "\n".join(texts[stretch[k]] for k in run),
            ))
        stretch.clear()

    for i, text in enumerate(texts):
        if len(text) <= max_chars:
            stretch.append(i)
            continue
        whole()
        sentences = _sentences(text)
        for part, run in enumerate(_pack(sentences, " ", max_chars)):
            want.append((f"blocks:{i}-{i}#{part}", " ".join(sentences[k] for k in run)))
    whole()
    chunks = chunk_text(make_doc(texts), max_chars)
    assert chunks == want
    assert all(len(c) <= max_chars or len(_sentences(c)) == 1 for _, c in chunks)


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


@settings(max_examples=300, deadline=None)
@given(sentences=_PLANTED_SENTENCES, size=st.integers(min_value=1, max_value=400))
def test_naive_chunks_pack_like_a_sentence_loop(sentences, size):
    """Sentences of planted lengths are hard-cut into pieces of `size`,
    and the pieces packed as a loop that counts every separator packs
    them, so no chunk exceeds `size`."""
    pieces = [
        piece
        for sentence in _sentences(_planted(sentences))
        for piece in re.findall(f".{{1,{size}}}", sentence)
    ]
    want = [" ".join(pieces[k] for k in run) for run in _pack(pieces, " ", size)]
    chunks = naive_chunks(_planted(sentences), size)
    assert chunks == [(f"flat:{n}", chunk) for n, chunk in enumerate(want)]
    assert all(len(c) <= size for _, c in chunks)


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


def test_counts_recount_the_entries_in_source_order(corpus_docs, embedder):
    for kb in (build(corpus_docs[1], embedder), build_naive(corpus_docs[1], embedder),
               KnowledgeBase(scope="d", provider_name="p", dim=3, entries=[])):
        recount = {s.value: sum(e.source is s for e in kb.entries) for s in Source}
        assert list(kb.counts().items()) == list(recount.items())


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


class _ListOnlyEmbedder(HashEmbedder):
    """Ignores `out`, as an embedder written for lists alone would."""

    def embed(self, texts, out=None):
        return super().embed(texts)


def test_builds_reject_an_embedder_that_ignores_out(corpus_docs):
    for make in (build, build_naive):
        with pytest.raises(ProviderError, match="did not fill"):
            make(corpus_docs[0], _ListOnlyEmbedder())


def _repeating_keywords_doc():
    """Two tables whose headers and row labels repeat each other's."""
    tables = [
        Table(table_id=f"T{n}", n_rows=3, n_cols=3, header_row_count=1,
              cells=[["Metric", "2022", "2023"], ["Scope 1", "1", "2"], [label, "3", "4"]])
        for n, label in enumerate(["Scope 2", "Water use"])
    ]
    return make_doc(["Emissions fell. Scope 2 rose."], tables)


def _embed_every_text(embedder, texts):
    """The matrix as one `embed` call over every text, repeats included."""
    matrix = np.empty((len(texts), embedder.dim))
    embedder.embed(texts, out=matrix)
    return matrix


def test_repeated_keywords_save_the_bytes_of_an_embed_per_text(tmp_path, monkeypatch):
    import esgpipe.kb as kbmod

    doc = _repeating_keywords_doc()
    for make in (build, build_naive):
        path, every_path = tmp_path / "kb.json", tmp_path / "every.kb.json"
        save(make(doc, HashEmbedder()), path)
        with monkeypatch.context() as patched:
            patched.setattr(kbmod, "embed_matrix", _embed_every_text)
            save(make(doc, HashEmbedder()), every_path)
        assert path.read_bytes() == every_path.read_bytes(), make.__name__
    keywords = [e.payload_text for e in build(doc, HashEmbedder()).entries
                if e.source is Source.TABLE_KEYWORD]
    assert len(keywords) == 6 and len(set(keywords)) == 4


def test_http_embedder_kb_build_posts_each_distinct_text_once(http_server, tmp_path):
    from esgpipe.providers import HttpEmbedder, HttpEndpoint

    server, base = http_server
    local = HashEmbedder()
    server.responder = lambda path, payload: (200, {"vectors": local.embed(payload["texts"])})
    remote = HttpEmbedder(HttpEndpoint(f"{base}/embed", retries=0), dim=local.dim,
                          name=local.name)
    doc = _repeating_keywords_doc()
    kb = build(doc, remote)
    texts = [e.payload_text for e in kb.entries]
    assert len(texts) > len(set(texts))
    assert [call["payload"] for call in server.calls] == [{"texts": list(dict.fromkeys(texts))}]
    save(kb, tmp_path / "remote.kb.json")
    save(build(doc, local), tmp_path / "local.kb.json")
    assert (tmp_path / "remote.kb.json").read_bytes() == (tmp_path / "local.kb.json").read_bytes()


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

# The sections of a KB file after its header line, in file order: the
# layout the kb module docstring documents. An integer section is at the
# narrowest of these unsigned types that holds its largest possible value.
SECTIONS = ["source", "offsets", "summary", "text", "indptr", "indices", "distinct", "values"]
UINTS = ("u1", "<u2", "<u4", "<u8")


def read_file(path):
    """(header, {section name: array of the item type the header names}) of a KB file."""
    line, newline, body = path.read_bytes().partition(b"\n")
    assert newline
    header = json.loads(line)
    sections, start = {}, 0
    for name, (kind, size) in header["sections"].items():
        sections[name] = np.frombuffer(body[start : start + size], kind)
        start += size
    assert start == len(body)
    return header, sections


def _kind(array):
    """The name of an array's item type in a KB header: "u1", "<u2", "<f8"..."""
    return array.dtype.str.lstrip("|")


def file_bytes(header, sections):
    """A KB file of `header` and `sections`, arrays whose item types and
    byte lengths the header states: a dict, or a list to make the
    header's `sections` a list too."""
    arrays = list(sections.values()) if isinstance(sections, dict) else sections
    specs = [[_kind(a), a.nbytes] for a in arrays]
    if isinstance(sections, dict):
        specs = dict(zip(sections, specs))
    line = json.dumps({**header, "sections": specs}, ensure_ascii=False, separators=(",", ":"))
    return line.encode("utf-8") + b"\n" + b"".join(a.tobytes() for a in arrays)


def _arr(sections, name):
    return sections[name].tolist()


def _narrowest(values, largest):
    """`values` as an array of the narrowest of UINTS that holds 0 to `largest`."""
    kind = next(k for k in UINTS if largest < 256 ** np.dtype(k).itemsize)
    return np.array(values, dtype=kind)


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
    from esgpipe import kb as kbmod
    from esgpipe.retrieval import Query, search

    path = tmp_path / "kb.json"
    original_kb = build(corpus_docs[0], embedder)
    save(original_kb, path)
    saved = [np.asarray(e.vector).tobytes() for e in original_kb.entries]

    built = []

    def counting(rows, *args):
        built.append(len(rows))
        return original(rows, *args)

    original = kbmod._partition
    monkeypatch.setattr(kbmod, "_partition", counting)
    kb = load(path)
    assert [e.vector.tobytes() for e in kb.entries] == saved
    # every vector is a row view of the one matrix the file decodes into
    assert len({id(e.vector.base) for e in kb.entries}) == 1
    assert len(built) == len(Source)
    parts = {s: kb.partition(s) for s in Source}
    assert all(p.matrix.base is kb.entries[0].vector.base for p in parts.values())
    query = Query(indicator_id="q", query_texts=["q"], vectors=[list(original_kb.entries[0].vector)])
    for _ in range(3):
        search(kb, query, 5)
    assert len(built) == len(Source)
    assert all(kb.partition(s) is parts[s] for s in Source)
    assert sum(len(p) for p in parts.values()) == len(kb.entries)


def _entry_fields(e):
    return (e.entry_id, e.source, e.payload_text, e.summary, e.anchor,
            np.asarray(e.vector, dtype=np.float64).tobytes())


# Text lengths and stored-value counts on each side of 2**8 and 2**16,
# with the item type that holds the offsets and indptr of each.
WIDTH_CASES = [(255, "u1"), (256, "<u2"), (65535, "<u2"), (65536, "<u4")]


def _width_kb(size, dim=256):
    """A KB whose text is `size` code points and whose vectors store
    `size` values, in rows of `dim`."""
    rows = -(-size // dim)
    values = np.zeros(rows * dim)
    values[:size] = [(-1.0) ** k * (k + 0.25) / 3 for k in range(size)]
    entries = [
        Entry(entry_id=f"e{i:03d}", source=list(Source)[i % 3],
              payload_text="é" * (size - rows + 1) if i == 0 else "x", vector=row, anchor="")
        for i, row in enumerate(values.reshape(rows, dim))
    ]
    return KnowledgeBase(scope="w", provider_name="p", dim=dim, entries=entries)


@pytest.mark.parametrize("size, kind", WIDTH_CASES)
def test_offsets_and_indptr_take_the_narrowest_width(tmp_path, size, kind):
    path = tmp_path / "kb.json"
    save(_width_kb(size), path)
    header, sections = read_file(path)
    assert len(str(sections["text"], "utf-8")) == _arr(sections, "indptr")[-1] == size
    assert header["sections"]["offsets"][0] == header["sections"]["indptr"][0] == kind
    assert header["sections"]["indices"][0] == "u1"


def test_loaded_entries_equal_the_built_ones_field_by_field(corpus_docs, embedder, tmp_path):
    widths = [_width_kb(size) for size, _kind in WIDTH_CASES]
    for kb in (build(corpus_docs[1], embedder), build_naive(corpus_docs[1], embedder),
               _mixed_kb(40), _summaries_kb(), _shared_heads_kb(), *widths):
        path = tmp_path / "kb.json"
        save(kb, path)
        again = load(path)
        assert [_entry_fields(e) for e in again.entries] == [_entry_fields(e) for e in kb.entries]
        assert [_hexes(e.vector) for e in again.entries] == [_hexes(e.vector) for e in kb.entries]
        assert (again.scope, again.provider_name, again.dim, again.table_texts) == (
            kb.scope, kb.provider_name, kb.dim, kb.table_texts
        )
        matrix = again.entries[0].vector.base
        assert matrix.shape == (len(kb.entries), kb.dim)
        for i, e in enumerate(again.entries):
            assert e.vector.base is matrix
            assert np.shares_memory(e.vector, matrix[i]) and e.vector.shape == (kb.dim,)
        assert again.entries is again.entries  # made once


def _summaries_kb():
    """Summaries that are None, "" and text, on every source."""
    summaries = [None, "", "One line.", "", None, "Émission 排放"]
    entries = [
        Entry(entry_id=f"e{i}", source=list(Source)[i % 3], payload_text=f"p{i}",
              vector=[float(i), 0.0], anchor="flat:0", summary=summary)
        for i, summary in enumerate(summaries)
    ]
    return KnowledgeBase(scope="d", provider_name="p", dim=2, entries=entries)


def test_none_and_empty_summaries_stay_distinct(tmp_path):
    path = tmp_path / "kb.json"
    save(_summaries_kb(), path)
    assert [e.summary for e in load(path).entries] == [None, "", "One line.", "", None, "Émission 排放"]
    # no summary shares a head with its payload: each is stored whole, after a code of 1
    sections = read_file(path)[1]
    assert sections["summary"].tobytes() == bytes([0, 1, 1, 1, 0, 1])
    pieces = str(sections["text"], "utf-8")
    offsets = _arr(sections, "offsets")
    assert [pieces[offsets[3 * i + 1] : offsets[3 * i + 2]] for i in range(6)] == [
        "", "", "One line.", "", "", "Émission 排放"
    ]


# (payload_text, summary) pairs a summary code must carry, with the code
# `save` gives each and the summary piece it stores: no summary, an empty
# one, an exact head, a head whose newline the summary has as a space
# (as in a chunk of two blocks), nothing shared, a summary longer than
# its payload (the whole payload and a tail, or part of it), and
# non-ASCII text, where code points and UTF-8 bytes differ.
SHARED_HEADS = [
    ("One. Two. Three.", None, 0, ""),
    ("One. Two. Three.", "", 1, ""),
    ("One. Two. Three.", "One. Two.", 10, ""),
    ("Block one.\nBlock two. More.", "Block one. Block two.", 11, " Block two."),
    ("Alpha beta.", "Gamma delta.", 1, "Gamma delta."),
    ("Short.", "Short. And more after it.", 7, " And more after it."),
    ("Short.", "Shorter than this summary.", 6, "er than this summary."),
    ("Émissions de CO₂ 排放.\n第二", "Émissions de CO₂ 排放. 第二", 21, " 第二"),
    ("😀 smile", "😀 smirk", 6, "rk"),
    ("", "Summary of nothing.", 1, "Summary of nothing."),
]


def _shared_heads_kb():
    """One Text entry of each of SHARED_HEADS, with the built entry_ids."""
    entries = [
        Entry(entry_id=f"t{i:04d}", source=Source.TEXT, payload_text=payload,
              vector=[float(i), -0.0], anchor=f"blocks:{i}-{i}", summary=summary)
        for i, (payload, summary, _code, _piece) in enumerate(SHARED_HEADS)
    ]
    return KnowledgeBase(scope="d", provider_name="p", dim=2, entries=entries)


def test_a_summary_stores_only_the_tail_past_the_head_it_shares(tmp_path):
    kb = _shared_heads_kb()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(kb, p1)
    header, sections = read_file(p1)
    assert "entry_id" not in header
    assert _arr(sections, "summary") == [code for _p, _s, code, _piece in SHARED_HEADS]
    text, offsets = str(sections["text"], "utf-8"), _arr(sections, "offsets")
    assert [text[offsets[3 * i + 1] : offsets[3 * i + 2]] for i in range(len(SHARED_HEADS))] == [
        piece for _p, _s, _code, piece in SHARED_HEADS
    ]
    again = load(p1)
    assert [_entry_fields(e) for e in again.entries] == [_entry_fields(e) for e in kb.entries]
    summaries = [summary for _p, summary, _code, _piece in SHARED_HEADS]
    assert [again.texts(i)[1] for i in range(len(SHARED_HEADS))] == summaries
    save(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_a_built_kb_writes_no_entry_ids_and_any_other_ids_are_written(
    corpus_docs, embedder, tmp_path
):
    from dataclasses import replace

    path = tmp_path / "kb.json"
    for kb in (build(corpus_docs[0], embedder), build_naive(corpus_docs[0], embedder)):
        save(kb, path)
        header, sections = read_file(path)
        assert "entry_id" not in header
        ids = [e.entry_id for e in kb.entries]
        assert load(path).entry_ids == ids == built_ids(e.source for e in kb.entries)
        # a file that holds the built ids loads to the same KB
        path.write_bytes(file_bytes({**header, "entry_id": ids}, sections))
        assert [_entry_fields(e) for e in load(path).entries] == [_entry_fields(e) for e in kb.entries]
    # the test ids, and built ids out of their order, are written as they are
    built = build(corpus_docs[0], embedder)
    swapped = [replace(built.entries[0], entry_id="t0001"),
               replace(built.entries[1], entry_id="t0000"), *built.entries[2:]]
    for kb in (_summaries_kb(), KnowledgeBase("d", "p", built.dim, swapped, built.table_texts)):
        save(kb, path)
        ids = [e.entry_id for e in kb.entries]
        assert read_file(path)[0]["entry_id"] == ids
        assert load(path).entry_ids == ids


def test_a_three_entry_kb_file_has_these_bytes(tmp_path):
    """Every section and header key of a tiny version-6 file, so a change
    of the format fails here with a readable diff before it moves a
    golden digest."""
    entries = [
        Entry("t0000", Source.TEXT, "CO₂ fell.\nWater rose.", [1.0, 0.0], "blocks:0-1",
              summary="CO₂ fell. Water rose."),
        Entry("o0000", Source.OUTLINE, "Report > Emissions", [0.0, 0.5], "outline:1"),
        Entry("k0000", Source.TABLE_KEYWORD, "Scope 1", [1.0, 0.5], "table:tbl-0"),
    ]
    path = tmp_path / "kb.json"
    save(KnowledgeBase("d", "hash-2", 2, entries, {"tbl-0": "| Scope 1 | 12 |"}), path)
    header, sections = read_file(path)
    assert list(header) == [
        "format", "version", "scope", "provider_name", "dim", "counts", "table_texts", "sections"
    ]
    assert header == {
        "format": "esg_kb", "version": 6, "scope": "d", "provider_name": "hash-2", "dim": 2,
        "counts": {"Text": 1, "Outline": 1, "TableKeyword": 1},
        "table_texts": {"tbl-0": "| Scope 1 | 12 |"},
        "sections": {
            "source": ["u1", 3], "offsets": ["u1", 10], "summary": ["u1", 3], "text": ["u1", 90],
            "indptr": ["u1", 4], "indices": ["u1", 4], "distinct": ["<u8", 16], "values": ["u1", 4],
        },
    }
    assert {name: array.tobytes() for name, array in sections.items()} == {
        "source": bytes([0, 1, 2]),
        # in code points: the payload, summary piece and anchor of each entry
        "offsets": bytes([0, 21, 33, 43, 61, 61, 70, 77, 77, 88]),
        # the summary is the payload's first 9 code points and its piece
        "summary": bytes([10, 0, 0]),
        "text": "CO₂ fell.\nWater rose. Water rose.blocks:0-1"
                "Report > Emissionsoutline:1Scope 1table:tbl-0".encode("utf-8"),
        "indptr": bytes([0, 1, 2, 4]),
        "indices": bytes([0, 1, 0, 1]),
        # the bit patterns of 0.5 and 1.0, and a code into them per stored value
        "distinct": bytes.fromhex("000000000000e03f" "000000000000f03f"),
        "values": bytes([1, 0, 1, 0]),
    }


def test_search_of_a_loaded_kb_makes_entries_only_for_hit_rows(
    corpus_docs, embedder, tmp_path, monkeypatch
):
    from esgpipe import kb as kbmod
    from esgpipe.retrieval import Query, search_many

    made = []  # the entry_id of each Entry the KB makes

    def counted(*args, **kwargs):
        entry = Entry(*args, **kwargs)
        made.append(entry.entry_id)
        return entry

    built = build(corpus_docs[2], embedder)
    path = tmp_path / "kb.json"
    save(built, path)
    monkeypatch.setattr(kbmod, "Entry", counted)
    kb = load(path)
    assert made == []
    queries = [
        Query(indicator_id=f"q{i}", query_texts=["a", "b"],
              vectors=[list(built.entries[i].vector), list(built.entries[-1 - i].vector)])
        for i in range(6)
    ]
    hits = search_many(kb, queries, k=3)
    hit_ids = {h.entry_id for batch in hits for h in batch.scored()}
    assert 0 < len(hit_ids) < len(built.entries)
    # the hit table reads the hit rows' fields from the columns
    assert made == []
    assert [e.entry_id for e in kb.entries] == [e.entry_id for e in built.entries]
    assert len(made) == len(built.entries)
    assert hits == search_many(build(corpus_docs[2], embedder), queries, k=3)


def _reference_partitions(kb):
    """Per source: (rows, matrix, norms, id ranks) of its partition made
    as a KB made them before the norms went by blocks: rows by a loop
    keyed on each entry's source, one `np.linalg.norm` over the whole
    partition and ranks from `sorted`."""
    entries = kb.entries
    rows = {source: [] for source in Source}
    for i, e in enumerate(entries):
        rows[e.source].append(i)
    matrix = np.array([e.vector for e in entries], dtype=np.float64).reshape(len(entries), kb.dim)
    ids = [e.entry_id for e in entries]
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return {
        source: (r, matrix[r], np.linalg.norm(matrix[r], axis=1), rank[r])
        for source, r in rows.items()
    }


def _assert_partitions_bit_for_bit(kb, want):
    for source, (rows, matrix, norms, ranks) in want.items():
        part = kb.partition(source)
        assert part.rows.tolist() == rows
        assert part.matrix.shape == matrix.shape and part.matrix.tobytes() == matrix.tobytes()
        assert part.norms.dtype == norms.dtype and part.norms.tobytes() == norms.tobytes()
        assert kb.id_rank(source).tolist() == ranks.tolist()


def _norm_block_kb(sizes, dim, grouped, rng):
    """A KB with sizes[i] entries in the i-th source's partition, in
    source order or interleaved: dense random rows, all-zero rows and
    rows whose norms overflow to inf, ids in random string order."""
    n = sum(sizes)
    sources = [source for source, size in zip(Source, sizes) for _ in range(size)]
    if not grouped:
        rng.shuffle(sources)
    matrix = rng.standard_normal((n, dim))
    matrix[rng.random(n) < 0.1] = 0.0
    matrix[rng.random(n) < 0.05] *= 1e300
    ids = rng.permutation(n)
    entries = [
        Entry(entry_id=f"e{ids[i]}", source=source, payload_text=f"p{i}", vector=matrix[i],
              anchor="flat:0")
        for i, source in enumerate(sources)
    ]
    return KnowledgeBase(scope="d", provider_name="p", dim=dim, entries=entries, matrix=matrix)


@pytest.mark.parametrize("grouped", [True, False], ids=["runs", "interleaved"])
@np.errstate(over="ignore")  # the rows whose norms overflow
def test_partitions_equal_the_whole_partition_reference_bit_for_bit(tmp_path, grouped):
    """Built and loaded KBs, also from `<u8` index sections, whose
    partitions straddle the norm block: their rows, matrices, norms and
    id ranks are those of one norm over each whole partition."""
    from esgpipe.kb import _NORM_ROWS as B

    rng = np.random.default_rng(27)
    path = tmp_path / "kb.json"
    for sizes in [(B - 1, B, B + 1), (2 * B + 1, 0, 1), (0, 0, 0)]:
        for dim in (1, 33, 256):
            kb = _norm_block_kb(sizes, dim, grouped, rng)
            want = _reference_partitions(kb)
            _assert_partitions_bit_for_bit(kb, want)
            save(kb, path)
            _assert_partitions_bit_for_bit(load(path), want)
            header, sections = read_file(path)
            wide = {**sections, "indices": sections["indices"].astype("<u8")}
            path.write_bytes(file_bytes(header, wide))
            _assert_partitions_bit_for_bit(load(path), want)


def test_a_loaded_kb_hits_the_table_of_the_built_one(corpus_docs, embedder, tmp_path):
    from esgpipe.retrieval import Query, search_many

    path = tmp_path / "kb.json"
    for built in (build(corpus_docs[1], embedder), build_naive(corpus_docs[1], embedder),
                  _mixed_kb(40)):
        save(built, path)
        loaded = load(path)
        vectors = [list(e.vector) for e in built.entries]
        queries = [Query(f"q{i}", ["a", "b"], [vectors[i], vectors[-1 - i]]) for i in range(8)]
        want, got = search_many(built, queries, 4), search_many(loaded, queries, 4)
        for column in ("entry_ids", "sources", "payloads", "anchors", "sizes", "keys"):
            assert getattr(got[0].table, column) == getattr(want[0].table, column), column
        assert len(want[0].table.entry_ids) > 8
        assert got == want


def _special_kb(dim, rng):
    """Entries with interleaved sources whose vectors mix random bit
    patterns (negatives, NaNs, subnormals) with zeros, -0.0 and all-zero
    rows."""
    sources = list(Source)
    special = [-0.0, float("nan"), 5e-324, -2.5e-310, float("inf"), -1.5]
    entries = []
    for i in range(40):
        bits = rng.integers(0, 2**64, size=dim, dtype=np.uint64)
        vec = bits.view(np.float64).copy()
        vec[rng.random(dim) < 0.7] = 0.0
        if i % 5 == 0:
            vec[:] = 0.0
        elif i % 5 == 1:
            vec[rng.integers(dim)] = special[i % len(special)]
        entries.append(
            Entry(
                entry_id=f"e{i:03d}", source=sources[i % 3],
                payload_text=f"p{i}", vector=list(vec), anchor="flat:0",
            )
        )
    return KnowledgeBase(scope="d", provider_name="p", dim=dim, entries=entries)


def _hexes(vector):
    return [float.hex(x) for x in np.asarray(vector, dtype=np.float64).tolist()]


# dim 256 is the widest whose column indices fit u1
@pytest.mark.parametrize("dim", [1, 3, 64, 256, 257])
def test_vectors_round_trip_bit_for_bit(tmp_path, dim):
    with np.errstate(all="ignore"):  # row norms of random bit patterns overflow
        kb = _special_kb(dim, np.random.default_rng(dim))
    want = [np.asarray(e.vector, dtype=np.float64).tobytes() for e in kb.entries]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(kb, p1)
    assert read_file(p1)[0]["sections"]["indices"][0] == ("u1" if dim <= 256 else "<u2")
    with np.errstate(all="ignore"):
        again = load(p1)
    assert [e.vector.tobytes() for e in again.entries] == want
    assert [_hexes(e.vector) for e in again.entries] == [_hexes(e.vector) for e in kb.entries]
    assert [e.source for e in again.entries] == [e.source for e in kb.entries]
    for source in Source:
        assert again.partition(source).matrix.tobytes() == kb.partition(source).matrix.tobytes()
    save(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_stores_only_nonzero_bit_patterns(tmp_path):
    entries = [
        Entry(entry_id=f"e{i}", source=Source.TEXT, payload_text="p",
              vector=vec, anchor="flat:0")
        for i, vec in enumerate([[0.0, -0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ]
    path = tmp_path / "kb.json"
    save(KnowledgeBase(scope="d", provider_name="p", dim=3, entries=entries), path)
    header, sections = read_file(path)
    assert header["version"] == KB_VERSION == 6
    assert header["entry_id"] == ["e0", "e1", "e2"] and "source" not in header
    assert list(sections) == SECTIONS
    # three stored values: a table of three patterns and their codes would not be smaller
    assert {name: kind for name, (kind, _size) in header["sections"].items()} == {
        **dict.fromkeys(SECTIONS, "u1"), "distinct": "<u8", "values": "<f8"
    }
    assert len(sections["distinct"]) == 0
    assert _arr(sections, "source") == [0, 0, 0]
    assert _arr(sections, "indptr") == [0, 2, 2, 3]
    assert _arr(sections, "indices") == [1, 2, 0]
    assert sections["values"].tobytes() == np.array([-0.0, 2.0, 1.0]).tobytes()
    assert sections["text"].tobytes() == b"pflat:0" * 3
    assert _arr(sections, "offsets") == [0, 1, 1, 7, 8, 8, 14, 15, 15, 21]
    assert _arr(sections, "summary") == [0, 0, 0]


# Bit patterns that must come back as they went in: -0.0, NaNs with
# payloads (quiet and signalling, of either sign), subnormals, both
# infinities and two plain values.
SPECIAL_BITS = [
    0x8000000000000000, 0x7FF8000000000123, 0xFFF0000000000001, 0x7FF4000000000000,
    0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
    0x3FF8000000000000, 0xBFF8000000000000,
]


def _matrix_kb(matrix):
    entries = [
        Entry(entry_id=f"e{i:04d}", source=list(Source)[i % 3], payload_text=f"p{i}",
              vector=row, anchor="flat:0")
        for i, row in enumerate(matrix)
    ]
    return KnowledgeBase(scope="d", provider_name="p", dim=matrix.shape[1], entries=entries,
                         matrix=matrix)


def test_coded_values_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(7)
    bits = rng.choice(np.array(SPECIAL_BITS, dtype=np.uint64), size=(60, 16))
    bits[rng.random(bits.shape) < 0.5] = 0
    path = tmp_path / "kb.json"
    with np.errstate(all="ignore"):  # row norms of NaNs and infinities
        save(_matrix_kb(bits.view(np.float64)), path)
        again = load(path)
    header, sections = read_file(path)
    assert header["sections"]["values"][0] == "u1"
    assert sections["distinct"].tolist() == sorted(set(SPECIAL_BITS))
    assert again.entries[0].vector.base.view(np.uint64).tolist() == bits.tolist()


@pytest.mark.parametrize("patterns, code", [(1, "u1"), (256, "u1"), (257, "<u2"), (2**16, "<u2")])
def test_values_are_codes_of_the_narrowest_width(tmp_path, patterns, code):
    """Each of `patterns` distinct values stored twice or more: the table
    and the codes take fewer bytes than the values."""
    dim = 256
    values = np.arange(-(-2 * patterns // dim) * dim) % patterns + 1.0
    path = tmp_path / "kb.json"
    save(_matrix_kb(values.reshape(-1, dim)), path)
    header, sections = read_file(path)
    assert header["sections"]["values"] == [code, np.dtype(code).itemsize * len(values)]
    assert sections["distinct"].view("<f8").tolist() == [float(v) for v in range(1, patterns + 1)]
    assert load(path).entries[0].vector.base.tobytes() == values.tobytes()


def test_a_hash_embedder_kb_stores_codes(corpus_docs, embedder, tmp_path):
    path = tmp_path / "kb.json"
    for kb in (build(corpus_docs[0], embedder), build_naive(corpus_docs[0], embedder)):
        save(kb, path)
        header, sections = read_file(path)
        assert header["sections"]["values"][0] == "u1"
        assert 0 < sections["distinct"].nbytes + sections["values"].nbytes < 8 * len(sections["values"])


@pytest.mark.parametrize("rows", [200, 2000])
def test_a_dense_kb_keeps_f8_values_and_the_v4_size(tmp_path, monkeypatch, rows):
    """Random normal vectors repeat no value: `values` stays `<f8` and,
    with no summaries and the entry_id column written, the file is a
    version-4 file but for the empty `distinct` section's entry in the
    header and the summary section's shorter name. Counting stops at
    the first block past 2^16 patterns."""
    from esgpipe import kb as kbmod

    counted = []
    real = kbmod._sorted_distinct
    monkeypatch.setattr(kbmod, "_sorted_distinct", lambda p: counted.append(len(p)) or real(p))
    matrix = np.random.default_rng(rows).normal(size=(rows, 64))
    path = tmp_path / "kb.json"
    save(_matrix_kb(matrix), path)
    header, sections = read_file(path)
    assert header["sections"]["distinct"] == ["<u8", 0]
    assert header["sections"]["values"] == ["<f8", 8 * matrix.size]
    assert _arr(sections, "summary") == [0] * rows and "entry_id" in header
    v4_sections = {("has_summary" if k == "summary" else k): a for k, a in sections.items()}
    del v4_sections["distinct"]
    v4 = file_bytes({**header, "version": 4}, v4_sections)
    assert len(path.read_bytes()) - len(v4) == len(b',"distinct":["<u8",0]') - len("has_")
    assert len(counted) == min(-(-rows // 256), 2**16 // (256 * 64) + 1)
    assert load(path).entries[0].vector.base.tobytes() == matrix.tobytes()


def _value_sections(values):
    """The `distinct` and `values` sections of these stored `<f8` values:
    the sorted distinct bit patterns and a code into them per value,
    where those take fewer bytes; else no patterns and the values."""
    bits = values.view("<u8")
    distinct, codes = np.unique(bits, return_inverse=True)
    if 0 < len(distinct) <= 2**16:
        codes = _narrowest(codes, len(distinct) - 1)
        if distinct.nbytes + codes.nbytes < values.nbytes:
            return {"distinct": distinct.astype("<u8"), "values": codes}
    return {"distinct": np.zeros(0, dtype="<u8"), "values": values}


# the prefix of a built entry_id, by source
PREFIXES = {Source.TEXT: "t", Source.OUTLINE: "o", Source.TABLE_KEYWORD: "k"}


def built_ids(sources):
    """The entry_ids a build gives entries of these sources, in file
    order: each source's prefix and a four-digit count of that source's
    entries before it."""
    seen = Counter()
    ids = []
    for source in sources:
        ids.append(f"{PREFIXES[source]}{seen[source]:04d}")
        seen[source] += 1
    return ids


def summary_codes(entries):
    """Each entry's summary code: 0 for no summary, else 1 + the length
    of the longest head its summary shares with its payload_text."""
    return [
        0 if e.summary is None else len(os.path.commonprefix([e.payload_text, e.summary])) + 1
        for e in entries
    ]


def reference_save_bytes(kb):
    """The bytes `save` writes, made in one piece: the CSR arrays row by
    row and the text of all entries at once."""
    indptr, indices, values = [0], [], []
    for e in kb.entries:
        vec = np.asarray(e.vector, dtype=np.float64)
        stored = np.flatnonzero(vec.view(np.uint64))  # bit patterns, so -0.0 counts
        indices.extend(stored.tolist())
        values.append(vec[stored])
        indptr.append(len(indices))
    codes = summary_codes(kb.entries)
    pieces = [
        p for e, code in zip(kb.entries, codes)
        for p in (e.payload_text, e.summary[code - 1 :] if code else "", e.anchor)
    ]
    offsets = np.cumsum([0] + [len(p) for p in pieces])
    sections = {
        "source": _narrowest([list(Source).index(e.source) for e in kb.entries], len(Source) - 1),
        "offsets": _narrowest(offsets, offsets[-1]),
        "summary": _narrowest(codes, max(codes, default=0)),
        "text": np.frombuffer("".join(pieces).encode("utf-8"), "u1"),
        "indptr": _narrowest(indptr, indptr[-1]),
        "indices": _narrowest(indices, kb.dim - 1),
        **_value_sections(np.concatenate([np.zeros(0), *values]).astype("<f8")),
    }
    header = {
        "format": "esg_kb",
        "version": KB_VERSION,
        "scope": kb.scope,
        "provider_name": kb.provider_name,
        "dim": kb.dim,
        "counts": kb.counts(),
        "table_texts": kb.table_texts,
        "sections": None,  # made by `file_bytes`
    }
    ids = [e.entry_id for e in kb.entries]
    if ids != built_ids(e.source for e in kb.entries):
        header["entry_id"] = ids
    return file_bytes(header, sections)


def _mixed_kb(n, dim=8):
    """`n` entries, text and table keywords interleaved (no outline),
    with non-ASCII and escaped payloads, summaries that are None, -0.0
    vector entries and all-zero rows."""
    odd = ['Émissions «scope 1»', '排放 "quoted" \\ back', "tab\tnew\nline\u2028", "😀\x00\x1f"]
    entries = []
    for i in range(n):
        vec = np.zeros(dim)
        if i % 4:
            vec[i % dim] = (-1.0) ** i * (i + 0.5)
            vec[(i * 3) % dim] = -0.0
        keyword = i % 3 == 2
        entries.append(
            Entry(
                entry_id=f"e{i:04d}", source=Source.TABLE_KEYWORD if keyword else Source.TEXT,
                payload_text=f"{odd[i % 4]} {i}", vector=list(vec),
                anchor="table:t1" if keyword else f"blocks:{i}-{i}",
                summary=None if keyword or i % 5 == 0 else odd[(i + 1) % 4],
            )
        )
    return KnowledgeBase(scope="dé", provider_name="p", dim=dim, entries=entries,
                         table_texts={"t1": "| Kennzahl | 排放 |\n| ÄÖÜ | 1,2 |"})


def _save_cases(corpus_docs, embedder):
    from esgpipe.kb import _SAVE_ROWS

    for doc in corpus_docs:
        yield f"{doc.doc_id}-structured", build(doc, embedder)
        yield f"{doc.doc_id}-naive", build_naive(doc, embedder)
    for n in (1, _SAVE_ROWS - 1, _SAVE_ROWS, 2 * _SAVE_ROWS + 7):
        yield f"mixed-{n}", _mixed_kb(n)
    with np.errstate(all="ignore"):
        yield "special", _special_kb(5, np.random.default_rng(5))
    yield "summaries", _summaries_kb()
    yield "shared-heads", _shared_heads_kb()
    yield "empty", KnowledgeBase(scope="e", provider_name="p", dim=4, entries=[])
    for size, _kind in WIDTH_CASES:
        yield f"width-{size}", _width_kb(size)


def test_save_writes_the_bytes_of_a_one_shot_writer(corpus_docs, embedder, tmp_path):
    for name, kb in _save_cases(corpus_docs, embedder):
        path = tmp_path / f"{name}.json"
        save(kb, path)
        assert path.read_bytes() == reference_save_bytes(kb), name
        # the test's reader cuts the file back into what went in
        assert file_bytes(*read_file(path)) == path.read_bytes(), name


def test_save_holds_less_than_the_file_it_writes(tmp_path):
    """Saving a 5,000-entry KB never holds the file, its text or its
    vector sections whole."""
    from esgpipe.providers import embed_matrix

    rng = random.Random(11)
    words = [f"w{i}" for i in range(3000)] + ["Émission", "排放"]
    texts = [" ".join(rng.choices(words, k=rng.randint(10, 60))) for _ in range(5000)]
    sources = [Source.TEXT, Source.OUTLINE, Source.TABLE_KEYWORD]
    matrix = embed_matrix(HashEmbedder(256), texts)
    entries = [
        Entry(entry_id=f"e{i:04d}", source=sources[i % 3], payload_text=text,
              vector=row, anchor=f"flat:{i}", summary=text[:80] if i % 3 == 0 else None)
        for i, (text, row) in enumerate(zip(texts, matrix))
    ]
    kb = KnowledgeBase(scope="d", provider_name="p", dim=256, entries=entries, matrix=matrix)
    path = tmp_path / "kb.json"
    tracemalloc.start()
    try:
        save(kb, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    text = len(read_file(path)[1]["text"])
    assert peak < text < size, f"peak {peak / 2**20:.2f} MB for a {size / 2**20:.2f} MB file"
    assert path.read_bytes() == reference_save_bytes(kb)


def _edit(name, edit, kind=None):
    """A case that replaces section `name` by `edit(values)` of its items,
    in its own item type or in `kind`."""
    return lambda h, s: file_bytes(
        h, {**s, name: np.array(edit(_arr(s, name)), dtype=kind or s[name].dtype)}
    )


def _claiming(h, s, index, claims):
    """The file of `h` and `s` whose header claims, for each section
    `claims` names, its claim as item type (index 0) or byte length (1)."""
    specs = {name: list(spec) for name, spec in h["sections"].items()}
    for name, claim in claims.items():
        specs[name][index] = claim
    line = json.dumps({**h, "sections": specs}, ensure_ascii=False)
    return line.encode("utf-8") + b"\n" + b"".join(a.tobytes() for a in s.values())


def _with_lengths(h, s, **lengths):
    """The file of `h` and `s` whose header claims `lengths` for some sections."""
    return _claiming(h, s, 1, lengths)


def _with_kinds(h, s, **kinds):
    """The file of `h` and `s` whose header claims item types `kinds` for some sections."""
    return _claiming(h, s, 0, kinds)


def _u1(data):
    return np.frombuffer(data, "u1")


MALFORMED_BLOCKS = {
    "ragged byte length": lambda h, s: _with_lengths(
        h, {**s, "values": s["values"].view("u1")[:7]}, values=7
    ),
    "indptr too short": _edit("indptr", lambda v: v[:-1]),
    "indptr too long": _edit("indptr", lambda v: v + v[-1:]),
    "indptr not from 0": _edit("indptr", lambda v: [1] + v[1:]),
    "indptr decreasing": _edit("indptr", lambda v: [0, 5, 3] + v[3:]),
    "indptr past indices": _edit("indices", lambda v: v[:-1]),
    "indptr past values": lambda h, s: file_bytes(h, {**s, "values": s["values"][:-1]}),
    # the fixture's dim is 256, so an index equal to it needs a wider section
    "index equal to dim": lambda h, s: _edit("indices", lambda v: v[:-1] + [h["dim"]], "<u2")(h, s),
    # only a signed section can hold a negative index, and no section may be signed
    "negative index": _edit("indices", lambda v: [-1] + v[1:], "<i4"),
    "repeated index in a row": _edit("indices", lambda v: v[1:2] + v[1:]),
    "missing field": lambda h, s: file_bytes(h, {k: v for k, v in s.items() if k != "values"}),
    "not an object": lambda h, s: file_bytes(h, list(s.values())),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BLOCKS))
def test_load_rejects_malformed_vector_block(corpus_docs, embedder, tmp_path, case):
    path = tmp_path / "kb.json"
    save(build_naive(corpus_docs[0], embedder), path)
    header, sections = read_file(path)
    assert _arr(sections, "indptr")[1] >= 2  # the row-0 edits need two indices
    assert header["dim"] == 256 and sections["indices"].dtype == np.uint8
    path.write_bytes(MALFORMED_BLOCKS[case](header, sections))
    with pytest.raises(KnowledgeBaseError, match="malformed"):
        load(path)


def _first_summary(h, s):
    """The row of the first entry with a non-empty summary piece."""
    offsets = _arr(s, "offsets")
    return next(i for i in range(len(s["source"])) if offsets[3 * i + 2] > offsets[3 * i + 1])


def _payload_length(s, row):
    offsets = _arr(s, "offsets")
    return offsets[3 * row + 1] - offsets[3 * row]


def _ids(s):
    """The entry_ids of the entries of sections `s`, the built ones that
    a built KB's file leaves out of its header."""
    return built_ids(list(Source)[code] for code in _arr(s, "source"))


def _with_ids(h, s, edit=lambda ids: ids):
    """The file of `h` and `s` whose header holds `edit` of its entry_ids."""
    return file_bytes({**h, "entry_id": edit(_ids(s))}, s)


def _flip(seq, i, value):
    return seq[:i] + [value] + seq[i + 1:]


def _line(h):
    return json.dumps(h, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def _body(s, *names):
    return b"".join(s[name].tobytes() for name in names)


# Each is a file that `load` must reject, made from the (header,
# sections) of a good one, and words its error must contain.
MALFORMED_FILES = {
    "no header newline": (lambda h, s: _line(h), "no newline after the header"),
    "header newline dropped": (lambda h, s: _line(h) + _body(s, *s), "cannot load KB"),
    "truncated": (lambda h, s: file_bytes(h, s)[:-1], "ends inside section 'values'"),
    "truncated in the text": (
        lambda h, s: _line(h) + b"\n" + _body(s, *SECTIONS[:4])[:-3],
        "ends inside section 'text'",
    ),
    "trailing bytes": (lambda h, s: file_bytes(h, s) + b"\0", "1 bytes after the last section"),
    "negative length": (
        lambda h, s: _with_lengths(h, s, text=-1), "section 'text' has length -1"
    ),
    "length not a multiple of its item size": (
        lambda h, s: _with_lengths(
            h, s, offsets=s["offsets"].nbytes - 1, summary=s["summary"].nbytes + 1
        ),
        "section 'offsets' has length",
    ),
    "length not an integer": (
        lambda h, s: _with_lengths(h, s, values=float(s["values"].nbytes)),
        "section 'values' has length",
    ),
    "length a string": (
        lambda h, s: _with_lengths(h, s, values=str(s["values"].nbytes)),
        "section 'values' has length",
    ),
    "sections out of order": (
        lambda h, s: _with_lengths({**h, "sections": dict(reversed(h["sections"].items()))}, s),
        "sections are not",
    ),
    "section not a pair": (
        lambda h, s: file_bytes(h, s).replace(b'"text":["u1",', b'"text":[', 1),
        "section 'text' is not an [item type, byte length] pair",
    ),
    "signed item type": (
        _edit("indices", lambda v: v, "<i2"), "section 'indices' has item type '<i2'"
    ),
    "big-endian item type": (
        _edit("offsets", lambda v: v, ">u2"), "section 'offsets' has item type '>u2'"
    ),
    "float item type of an integer section": (
        lambda h, s: _with_kinds(h, s, indptr="<f8"), "section 'indptr' has item type '<f8'"
    ),
    "unknown item type": (
        lambda h, s: _with_kinds(h, s, source="Bogus"), "section 'source' has item type 'Bogus'"
    ),
    "values neither <f8 nor codes": (
        lambda h, s: _with_kinds(h, s, values="<f4"), "section 'values' has item type '<f4'"
    ),
    "distinct not <u8": (
        lambda h, s: _with_kinds(h, s, distinct="<f8"), "section 'distinct' has item type '<f8'"
    ),
    # the fixture's values are codes into its distinct patterns (see `test_a_hash_embedder_kb_stores_codes`)
    "distinct patterns decreasing": (
        _edit("distinct", lambda v: _flip(v, 0, v[1] + 1)), "distinct patterns not strictly increasing"
    ),
    "distinct pattern repeated": (
        _edit("distinct", lambda v: _flip(v, 1, v[0])), "distinct patterns not strictly increasing"
    ),
    "distinct all-zero pattern": (
        _edit("distinct", lambda v: _flip(v, 0, 0)), "distinct patterns hold the all-zero pattern"
    ),
    "value code past the distinct patterns": (
        lambda h, s: _edit("values", lambda v: _flip(v, 3, len(s["distinct"])))(h, s),
        "past",
    ),
    "codes without distinct patterns": (
        lambda h, s: file_bytes(h, {**s, "distinct": s["distinct"][:0]}),
        "values are codes without distinct patterns",
    ),
    "<f8 values beside distinct patterns": (
        lambda h, s: file_bytes(h, {**s, "values": s["distinct"][s["values"]].view("<f8")}),
        "values are floats beside",
    ),
    "text not u1": (
        lambda h, s: _with_kinds(h, s, text="<u2"), "section 'text' has item type '<u2'"
    ),
    "offsets decreasing": (_edit("offsets", lambda v: _flip(v, 1, v[2] + 1)), "text offsets"),
    "offsets not from 0": (_edit("offsets", lambda v: _flip(v, 0, 1)), "text offsets"),
    "offsets past the end": (_edit("offsets", lambda v: v[:-1] + [v[-1] + 1]), "text offsets"),
    "offset past the end inside": (_edit("offsets", lambda v: _flip(v, 3, v[-1] + 9)), "text offsets"),
    "offsets short of the end": (_edit("offsets", lambda v: v[:-1] + [v[-1] - 1]), "text offsets"),
    "offsets too few": (_edit("offsets", lambda v: v[:-1]), "text offsets"),
    "invalid UTF-8": (
        lambda h, s: file_bytes(h, {**s, "text": _u1(b"\xff" + s["text"].tobytes()[1:])}),
        "can't decode byte 0xff",
    ),
    "cut UTF-8 sequence": (
        lambda h, s: file_bytes(h, {**s, "text": _u1(s["text"].tobytes()[:-1] + b"\xc3")}),
        "can't decode byte 0xc3",
    ),
    # a code c takes c - 1 code points of the payload: the first past it is its length + 2
    "summary code past its payload": (
        lambda h, s: _edit("summary", lambda v: _flip(v, 0, _payload_length(s, 0) + 2), "<u4")(h, s),
        "summary code is past its payload's length",
    ),
    "summary code of 2**64 - 1": (
        _edit("summary", lambda v: _flip(v, 0, 2**64 - 1), "<u8"),
        "summary code is past its payload's length",
    ),
    "summary too short": (_edit("summary", lambda v: v[:-1]), "summary codes for"),
    "summary too long": (_edit("summary", lambda v: v + [0]), "summary codes for"),
    # a zero code beside a non-empty summary piece
    "summary text without a summary": (
        lambda h, s: _edit("summary", lambda v: _flip(v, _first_summary(h, s), 0))(h, s),
        "without a summary has summary text",
    ),
    "duplicate entry_id": (
        lambda h, s: _with_ids(h, s, lambda ids: _flip(ids, 1, ids[0])), "duplicate entry_id"
    ),
    "entry_id not a string": (
        lambda h, s: _with_ids(h, s, lambda ids: _flip(ids, 0, 7)),
        "entry_id must be an array of strings",
    ),
    "entry_id not a list": (
        lambda h, s: file_bytes({**h, "entry_id": "t0000"}, s), "entry_id must be an array of strings"
    ),
    "entry_id column too short": (lambda h, s: _with_ids(h, s, lambda ids: ids[:-1]), "sources for"),
    "source column too short": (
        lambda h, s: file_bytes({**h, "entry_id": _ids(s)}, {**s, "source": s["source"][:-1]}),
        "sources for",
    ),
    # without a header entry_id column, the source section gives the count of entries
    "source column too short without entry_ids": (
        _edit("source", lambda v: v[:-1]), "text offsets are not"
    ),
    "source code above 2": (_edit("source", lambda v: _flip(v, 1, 3)), "unknown source code 3"),
    "source code 256 in a wide section": (
        _edit("source", lambda v: _flip(v, 0, 256), "<u2"), "unknown source code 256"
    ),
    "dim not a number": (lambda h, s: file_bytes({**h, "dim": "wide"}, s), "dim must be an integer, got 'wide'"),
    "dim negative": (lambda h, s: file_bytes({**h, "dim": -1}, s), "dim must be >= 1, got -1"),
    "counts not those of the entries": (
        lambda h, s: file_bytes({**h, "counts": {**h["counts"], "Outline": 0}}, s),
        "are not those of the entries",
    ),
    "scope not a string": (lambda h, s: file_bytes({**h, "scope": None}, s), "scope must be a file name"),
    "table text not a string": (
        lambda h, s: file_bytes({**h, "table_texts": {**h["table_texts"], "tbl-0": 5}}, s),
        "table_texts['tbl-0'] must be a string, got 5",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_load_rejects_malformed_file(corpus_docs, embedder, tmp_path, case):
    path = tmp_path / "kb.json"
    save(build(corpus_docs[0], embedder), path)
    header, sections = read_file(path)
    make, words = MALFORMED_FILES[case]
    data = make(header, sections)
    assert data != path.read_bytes()
    path.write_bytes(data)
    with pytest.raises(KnowledgeBaseError, match=r"malformed KB file|cannot load KB") as error:
        load(path)
    assert words in str(error.value)


def test_load_rejects_wrong_version(corpus_docs, embedder, tmp_path):
    kb = build_naive(corpus_docs[0], embedder)
    path = tmp_path / "kb.json"
    save(kb, path)
    header, sections = read_file(path)
    path.write_bytes(file_bytes({**header, "version": KB_VERSION + 1}, sections))
    with pytest.raises(KnowledgeBaseError, match="version"):
        load(path)


def test_a_file_with_the_old_summary_fallbacks_key_loads_to_an_equal_kb(
    corpus_docs, embedder, tmp_path
):
    """Older files carried `"summary_fallbacks":0` in the header, after
    `counts`; `load` ignores such a key it does not read, so the file
    loads as the KB it was saved from, and saving that KB again writes
    the same bytes without the key."""
    kb = build(corpus_docs[0], embedder)
    path = tmp_path / "kb.json"
    save(kb, path)
    new = path.read_bytes()
    header, sections = read_file(path)
    older = {}
    for key, value in header.items():
        older[key] = value
        if key == "counts":
            older["summary_fallbacks"] = 0
    old = file_bytes(older, sections)
    assert old.replace(b'"summary_fallbacks":0,', b"", 1) == new
    assert len(old) - len(new) == 22
    path.write_bytes(old)
    again = load(path)
    assert [_entry_fields(e) for e in again.entries] == [_entry_fields(e) for e in kb.entries]
    assert (again.scope, again.provider_name, again.dim, again.table_texts, again.counts()) == (
        kb.scope, kb.provider_name, kb.dim, kb.table_texts, kb.counts()
    )
    save(again, path)
    assert path.read_bytes() == new


def test_a_file_with_wider_integer_sections_loads_to_an_equal_kb(corpus_docs, embedder, tmp_path):
    """`save` writes each integer section at its narrowest width, but
    `load` takes any unsigned width."""
    kb = build(corpus_docs[0], embedder)
    path = tmp_path / "kb.json"
    save(kb, path)
    header, sections = read_file(path)
    wide = {name: a.astype("<u8") if a.dtype.kind == "u" and name != "text" else a
            for name, a in sections.items()}
    path.write_bytes(file_bytes(header, wide))
    assert read_file(path)[0]["sections"]["source"] == ["<u8", 8 * len(kb.entries)]
    again = load(path)
    assert [_entry_fields(e) for e in again.entries] == [_entry_fields(e) for e in kb.entries]


def test_load_rejects_a_version_2_file(tmp_path):
    """A version-2 file: one JSON line with the vectors in base64."""
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({
        "format": "esg_kb", "version": 2, "scope": "d", "provider_name": "p", "dim": 1,
        "counts": {"Text": 0, "Outline": 0, "TableKeyword": 0}, "summary_fallbacks": 0,
        "table_texts": {}, "entries": [],
        "vectors": {"indptr": "AAAAAA==", "indices": "", "values": ""},
    }) + "\n", encoding="utf-8")
    with pytest.raises(KnowledgeBaseError, match="KB version 2 not supported"):
        load(path)


def test_load_checks_the_dim_its_caller_expects(tmp_path, corpus_docs, embedder):
    path = tmp_path / "kb.json"
    save(build(corpus_docs[0], embedder), path)
    assert load(path, embedder.dim).dim == embedder.dim
    with pytest.raises(KnowledgeBaseError, match=f"dim {embedder.dim} is not the expected 8$"):
        load(path, 8)


def test_load_refuses_a_header_dim_above_max_dim_before_decoding(
    tmp_path, corpus_docs, embedder, monkeypatch
):
    from esgpipe import kb as kbmod

    path = tmp_path / "kb.json"
    save(build(corpus_docs[0], embedder), path)
    line, _, body = path.read_bytes().partition(b"\n")

    def with_dim(dim):
        path.write_bytes(json.dumps({**json.loads(line), "dim": dim}).encode() + b"\n" + body)

    with_dim(MAX_DIM)
    assert load(path).dim == MAX_DIM
    with_dim(MAX_DIM + 1)
    decoded = []
    monkeypatch.setattr(kbmod, "_sections", lambda *args: decoded.append(args))
    for expected in (None, MAX_DIM + 1):  # whatever the caller expects
        with pytest.raises(KnowledgeBaseError, match=f"dim {MAX_DIM + 1} is above the largest"):
            load(path, expected)
    assert decoded == []


def test_load_rejects_non_kb_file(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something_else", "version": 1}', encoding="utf-8")
    with pytest.raises(KnowledgeBaseError, match="not a KB file"):
        load(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(KnowledgeBaseError):
        load(path)
    path.write_text("[1]\n", encoding="utf-8")
    with pytest.raises(KnowledgeBaseError, match="not a KB file"):
        load(path)


def test_verify_anchors_detects_foreign_document(corpus_docs, embedder):
    kb = build(corpus_docs[0], embedder)
    stripped = make_doc(["only one block"])
    with pytest.raises(KnowledgeBaseError, match="does not resolve"):
        verify_anchors(kb, stripped)


# --- summaries ---


def test_summarize_defaults_to_lead_sentences():
    assert summarize("One here. Two here. Three here.") == "One here. Two here."


def test_build_summarizes_each_chunk_with_its_sentences(corpus_docs, embedder):
    chunks = [chunk for _anchor, chunk in chunk_text(corpus_docs[0], 300)]
    for n in (1, 3):
        kb = build(corpus_docs[0], embedder, BuildConfig(max_chars=300, summary_sentences=n))
        texts = [e for e in kb.entries if e.source is Source.TEXT]
        assert [e.payload_text for e in texts] == chunks
        assert [e.summary for e in texts] == [summarize(c, n) for c in chunks]


def test_summarize_rejects_empty_input():
    with pytest.raises(KnowledgeBaseError):
        summarize("")
