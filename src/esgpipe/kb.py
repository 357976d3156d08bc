"""Multi-type knowledge base: text chunks, outline paths, table keywords.

A structured build produces three index partitions per document:

- Text: block-respecting chunks of body text, each with a summary of
  its leading sentences (retrieval scores use the chunk vector; the
  summary is rendered into the evidence shown to the model).
- Outline: one entry per outline node, embedding the full title path.
- TableKeyword: one entry per keyword per table (header cells and
  first-column label cells), all anchored to the table so a keyword hit
  resolves to the full rendered table.

A naive build (for the benchmark pipeline arm) flattens body text and
linearized tables into one string and cuts fixed-size chunks into a
single Text partition with no summaries, no outline and no table index.

Both builds pack their chunks by one rule: pieces are taken in order,
and each chunk takes the most pieces that fit its size with one
separator between each two, and always at least one. The structured
build packs whole blocks (newline-joined) between blocks too long for
one chunk, and each such block's sentences (space-joined); the naive
build packs sentences, first hard-cut to the chunk size. So no chunk
exceeds its size but a single sentence longer than a structured chunk.

The KB persists to one file (format version 6): a header line of
compact JSON, then raw little-endian sections. The header holds the
scalars, `table_texts`, `sections`, the [item type, byte length] of each
section in the order they follow the header line, and the `entry_id`
column over the entries in file order. That column is left out when
every entry_id is the one a build gives (`_built_ids`: the source's
prefix and the entry's four-digit ordinal among its source's entries,
in file order), and `load` then derives them. Each integer section is
stored at the narrowest unsigned width (`u1`, `<u2`, `<u4` or `<u8`)
that holds its largest possible value:

- `source` (codes in `Source` order, so `u1`): each entry's source.
- `offsets` (width of the text length): 3 x entries + 1 non-decreasing
  offsets, in code points, from 0 to the length of the text; entry i's
  payload_text, summary piece and anchor are the three pieces of the
  text from offset 3i on.
- `summary` (width of the largest code): 0 for an entry whose summary
  is None (its piece is then empty), so None and "" differ; else a code
  c >= 1, and the summary is the first c - 1 code points of the
  payload_text followed by the summary piece. `save` takes the longest
  head the two share, so a chunk's summary, its leading sentences,
  stores only the tail where it departs from the chunk (as where a
  newline became a space).
- `text` (`u1`, UTF-8): every entry's three pieces, joined.
- `indptr` (width of the count of stored values) and `indices` (width
  of dim - 1): the vectors as a CSR matrix (compressed sparse rows):
  entries + 1 row offsets from 0, then per row its strictly increasing
  column indices. A value is stored when its bit pattern is not all
  zero, so -0.0, NaN and subnormals round-trip bit for bit.
- `distinct` (`<u8`): the strictly increasing bit patterns of the
  stored values, none of them all zero, or nothing.
- `values`: the stored values in CSR order, as codes into `distinct`
  (`u1` for at most 256 patterns, else `<u2`) when `distinct` holds any,
  else as `<f8`. `save` writes the codes only where the table and the
  codes take fewer bytes than `<f8` values, as for the few values a
  hash embedder repeats; past 2^16 patterns it stops counting them.

`load` reads the file once and checks every part of it, so a malformed
file fails there and never later; it ignores header keys it does not
read. A loaded KB keeps its entries as these columns: search reads a
hit row's fields from them (`KnowledgeBase.texts`) and makes no `Entry`,
and `entries` makes them all on first access. A file of another format
or version, of another dim than its caller expects or of one above
`providers.MAX_DIM`, or a malformed one, is a KnowledgeBaseError, and
the KB cache then rebuilds it.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import _read
from .docmodel import StructuredDocument, Table, outline_paths, render_table
from .errors import KnowledgeBaseError
from .providers import MAX_DIM, EmbeddingProvider, embed_matrix, split_sentences

logger = logging.getLogger(__name__)

KB_FORMAT = "esg_kb"
KB_VERSION = 6

DEFAULT_CHUNK_CHARS = 1200
DEFAULT_NAIVE_CHUNK_CHARS = 400
MIN_CHUNK_CHARS = 200

_SAVE_ROWS = 256  # entries and vector rows per piece `save` writes
_SAVE_BUFFER = 1 << 16  # bytes `save` buffers per write: a small KB goes out in one
_LOAD_VALUES = 1 << 16  # stored values `load` scatters at a time, so its temporaries stay small
_NORM_ROWS = 256  # partition rows per `np.linalg.norm` call, so its temporary stays small

_UINTS = ("u1", "<u2", "<u4", "<u8")  # the item types of an integer section, narrowest first
_MAX_DISTINCT = 1 << 16  # the most distinct values `save` codes: a code then fits `<u2`

# The sections after the header line, in file order, with the item types each may have.
_SECTIONS = {
    "source": _UINTS,
    "offsets": _UINTS,
    "summary": _UINTS,
    "text": ("u1",),
    "indptr": _UINTS,
    "indices": _UINTS,
    "distinct": ("<u8",),
    "values": ("<f8", *_UINTS),  # floats, or codes into `distinct`
}


class Source(Enum):
    TEXT = "Text"
    OUTLINE = "Outline"
    TABLE_KEYWORD = "TableKeyword"


_SOURCES = tuple(Source)  # each source at its code in the file, found by identity
_PREFIXES = ("t", "o", "k")  # of a built entry_id, at its source's code


@dataclass
class Entry:
    entry_id: str
    source: Source
    payload_text: str
    vector: Sequence[float]  # a row of the KB's matrix in KBs from build/load
    anchor: str
    summary: str | None = None


@dataclass(frozen=True)
class Partition:
    """One source's rows of a KB with the arrays exact search runs on."""

    rows: np.ndarray  # the KB row (file order) of each partition row, increasing
    matrix: np.ndarray  # float64 (len(rows), dim); row j is the vector of KB row rows[j]
    norms: np.ndarray  # L2 norm of each row

    def __len__(self) -> int:
        return len(self.rows)


def _partition(rows: np.ndarray, matrix: np.ndarray) -> Partition:
    """The partition of the KB rows `rows` of `matrix`: a view when they
    are one run, and their norms, `_NORM_ROWS` rows at a time into one
    array (the same floats as one `np.linalg.norm` of the whole)."""
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
        part = matrix[rows[0] : rows[-1] + 1]
    else:
        part = matrix[rows]
    norms = np.empty(len(rows))
    for start in range(0, len(rows), _NORM_ROWS):
        norms[start : start + _NORM_ROWS] = np.linalg.norm(part[start : start + _NORM_ROWS], axis=1)
    return Partition(rows, part, norms)


class KnowledgeBase:
    """One document's entries, split by source into the partitions that
    search runs on.

    Made from entries, with `matrix` the float64 (entries, dim) array
    whose row i is entries[i]'s vector (stacked from the entry vectors
    when not given), or by `load` from a file's columns (see `_setup`).
    """

    def __init__(
        self,
        scope: str,  # doc_id for per-document KBs
        provider_name: str,
        dim: int,
        entries: list[Entry],
        table_texts: dict[str, str] | None = None,
        matrix: np.ndarray | None = None,
    ) -> None:
        if matrix is None:
            for e in entries:
                if len(e.vector) != dim:
                    raise KnowledgeBaseError(
                        f"entry {e.entry_id!r} vector has dim {len(e.vector)}, KB dim is {dim}"
                    )
            matrix = np.array([e.vector for e in entries], dtype=np.float64)
            matrix = matrix.reshape(len(entries), dim)

        def texts(row: int) -> tuple[str, str | None, str]:
            e = entries[row]
            return e.payload_text, e.summary, e.anchor

        codes = map(_SOURCES.index, map(attrgetter("source"), entries))
        self._setup(
            scope, provider_name, dim, table_texts, [e.entry_id for e in entries],
            np.fromiter(codes, np.intp, len(entries)), matrix, texts,
        )
        self._entries = entries

    def _setup(
        self,
        scope: str,
        provider_name: str,
        dim: int,
        table_texts: dict[str, str] | None,
        entry_ids: list[str],
        codes: np.ndarray,
        matrix: np.ndarray,
        texts: Callable[[int], tuple[str, str | None, str]],
    ) -> None:
        """Sets every attribute, for len(entry_ids) entries whose entry i
        has source `Source` member codes[i] and the fields `texts(i)`;
        `entries` makes them all on first access unless they are given."""
        shape = (len(entry_ids), dim)
        if matrix.shape != shape:
            raise KnowledgeBaseError(f"vector matrix has shape {matrix.shape}, expected {shape}")
        if len(set(entry_ids)) < len(entry_ids):
            twice = Counter(entry_ids).most_common(1)[0][0]
            raise KnowledgeBaseError(f"duplicate entry_id {twice!r}")
        self.scope = scope
        self.provider_name = provider_name
        self.dim = dim
        self.table_texts = {} if table_texts is None else table_texts
        self.entry_ids = entry_ids  # of each entry, in file order
        # (payload_text, summary, anchor) of the entry at a KB row, made
        # from the columns: no `Entry`
        self.texts = texts
        self._codes = codes  # intp: each entry's source, as its index in `Source`
        self._matrix = matrix  # float64 (entries, dim), in file order
        self._entries: list[Entry] | None = None
        rows = [np.flatnonzero(codes == code) for code in range(len(_SOURCES))]
        self._partitions = {s: _partition(r, matrix) for s, r in zip(Source, rows)}
        by_id = sorted(range(len(entry_ids)), key=entry_ids.__getitem__)
        rank = np.empty(len(entry_ids), dtype=np.intp)
        rank[by_id] = np.arange(len(entry_ids))
        self._id_ranks = {s: rank[r] for s, r in zip(Source, rows)}

    @property
    def entries(self) -> list[Entry]:
        """Every entry in file order; a loaded KB makes them on first
        access, their vectors row views of its one matrix."""
        if self._entries is None:
            sources = map(_SOURCES.__getitem__, self._codes.tolist())
            fields = map(self.texts, range(len(self.entry_ids)))
            self._entries = [
                Entry(entry_id, source, payload, vector, anchor, summary)
                for entry_id, source, vector, (payload, summary, anchor)
                in zip(self.entry_ids, sources, self._matrix, fields)
            ]
        return self._entries

    def counts(self) -> dict[str, int]:
        return {s.value: len(self._partitions[s]) for s in Source}

    def partition(self, source: Source) -> Partition:
        return self._partitions[source]

    def id_rank(self, source: Source) -> np.ndarray:
        """Position of the entry_id of each row of `source`'s partition in
        the string order of all the KB's entry_ids."""
        return self._id_ranks[source]

    def table_text(self, table_id: str) -> str:
        try:
            return self.table_texts[table_id]
        except KeyError:
            raise KnowledgeBaseError(f"no stored text for table {table_id!r}") from None


def _runs(lengths: Sequence[int], limit: int) -> list[tuple[int, int]]:
    """The greedy runs of items of these lengths, as (start, stop) index
    pairs: each run takes the most items from its start whose lengths,
    plus one separator between each two, sum to at most `limit`, and
    always at least one."""
    runs: list[tuple[int, int]] = []
    start, used = 0, -1  # used: the open run's length; -1, as its first item has no separator
    for i, n in enumerate(lengths):
        used += n + 1
        if used > limit and i > start:
            runs.append((start, i))
            start, used = i, n
    if start < len(lengths):
        runs.append((start, len(lengths)))
    return runs


def chunk_text(doc: StructuredDocument, max_chars: int = DEFAULT_CHUNK_CHARS) -> list[tuple[str, str]]:
    """Split body blocks into (anchor, chunk) pairs.

    Whole blocks are packed greedily (joined with newlines) up to
    max_chars. A single block longer than max_chars is split at
    sentence boundaries, its sentences packed the same way (joined with
    spaces); an individual sentence longer than max_chars stays whole.
    Anchors are "blocks:i-j" (inclusive block range) or "blocks:i-i#p"
    for the p-th piece of a split block.
    """
    if max_chars < MIN_CHUNK_CHARS:
        raise KnowledgeBaseError(f"max_chars must be >= {MIN_CHUNK_CHARS}")
    texts = [block.text for block in doc.blocks]
    chunks: list[tuple[str, str]] = []
    start = 0  # the first block after the last split one
    for i in [*(i for i, text in enumerate(texts) if len(text) > max_chars), len(texts)]:
        chunks.extend(
            (f"blocks:{start + a}-{start + b - 1}", "\n".join(texts[start + a : start + b]))
            for a, b in _runs(list(map(len, texts[start:i])), max_chars)
        )
        if i < len(texts):
            sentences = split_sentences(texts[i])
            chunks.extend(
                (f"blocks:{i}-{i}#{part}", " ".join(sentences[a:b]))
                for part, (a, b) in enumerate(_runs(list(map(len, sentences)), max_chars))
            )
        start = i + 1
    return chunks


def naive_chunks(flat_text: str, size: int = DEFAULT_NAIVE_CHUNK_CHARS) -> list[tuple[str, str]]:
    """Fixed-size chunking of flattened text for the benchmark arm.

    Sentences are packed greedily up to `size` characters (joined with
    spaces); a single run without sentence boundaries longer than `size`
    is first hard-cut into pieces of `size`. Anchors are "flat:<n>"
    chunk ordinals.
    """
    if size < 1:
        raise KnowledgeBaseError("chunk size must be positive")
    pieces: list[str] = []
    for sentence in split_sentences(flat_text):
        while len(sentence) > size:
            pieces.append(sentence[:size])
            sentence = sentence[size:]
        if sentence:
            pieces.append(sentence)
    return [
        (f"flat:{n}", " ".join(pieces[a:b]))
        for n, (a, b) in enumerate(_runs(list(map(len, pieces)), size))
    ]


def summarize(text: str, sentences: int = 2) -> str:
    """A text chunk's summary: its first `sentences` sentences, as
    `" ".join(split_sentences(text)[:sentences])`, splitting no further."""
    if not text or sentences < 1:
        raise KnowledgeBaseError(f"cannot summarize {len(text)} chars in {sentences} sentences")
    return " ".join(split_sentences(text, sentences))


_NUMERIC_CELL_RE = re.compile(r"[\d\s.,%+-]+$")


def _purely_numeric(cell: str) -> bool:
    return bool(_NUMERIC_CELL_RE.match(cell)) and any(ch.isdigit() for ch in cell)


def extract_table_keywords(table: Table) -> list[str]:
    """Header-row cells plus first-column label cells, deduplicated.

    Purely numeric cells (digits with separators/signs/percent only)
    and empty cells are excluded; order follows first appearance.
    """
    seen: set[str] = set()
    keywords: list[str] = []

    def add(cell: str) -> None:
        text = cell.strip()
        if not text or _purely_numeric(text) or text in seen:
            return
        seen.add(text)
        keywords.append(text)

    for r in range(table.header_row_count):
        for cell in table.cells[r]:
            add(cell)
    for r in range(table.header_row_count, table.n_rows):
        add(table.cells[r][0])
    return keywords


@dataclass
class BuildConfig:
    """The build parameters of both KB modes; `kb_cache_path` names a
    cached KB by its mode's."""

    max_chars: int = DEFAULT_CHUNK_CHARS  # structured: text chunk size
    summary_sentences: int = 2  # structured: sentences per chunk summary
    naive_chunk_chars: int = DEFAULT_NAIVE_CHUNK_CHARS  # naive: chunk size


def build(
    doc: StructuredDocument,
    embedder: EmbeddingProvider,
    cfg: BuildConfig | None = None,
) -> KnowledgeBase:
    """Build the three-partition KB for one document."""
    cfg = cfg or BuildConfig()
    table_texts = {table.table_id: render_table(table) for table in doc.tables}
    parts = {
        Source.TEXT: [
            (anchor, chunk, summarize(chunk, cfg.summary_sentences))
            for anchor, chunk in chunk_text(doc, cfg.max_chars)
        ],
        Source.OUTLINE: [
            (f"outline:{path_index}", path, None)
            for path_index, (path, _node) in enumerate(outline_paths(doc.outline))
        ],
        Source.TABLE_KEYWORD: [
            (f"table:{table.table_id}", keyword, None)
            for table in doc.tables
            for keyword in extract_table_keywords(table)
        ],
    }
    return _assemble(doc.doc_id, embedder, parts, table_texts)


def flatten_document(doc: StructuredDocument) -> str:
    """Body blocks then linearized tables, newline-joined."""
    parts = [b.text for b in doc.blocks]
    parts.extend(render_table(t) for t in doc.tables)
    return "\n".join(parts)


def build_naive(
    doc: StructuredDocument,
    embedder: EmbeddingProvider,
    chunk_chars: int = DEFAULT_NAIVE_CHUNK_CHARS,
) -> KnowledgeBase:
    """Benchmark-arm KB: one Text partition of fixed-size chunks."""
    parts = [
        (anchor, chunk, None) for anchor, chunk in naive_chunks(flatten_document(doc), chunk_chars)
    ]
    return _assemble(doc.doc_id, embedder, {Source.TEXT: parts})


def _assemble(
    doc_id: str,
    embedder: EmbeddingProvider,
    parts: dict[Source, list[tuple[str, str, str | None]]],
    table_texts: dict[str, str] | None = None,
) -> KnowledgeBase:
    """The KB of each source's (anchor, payload, summary) parts, in turn:
    one `embed_matrix` call over every payload, and the `_built_ids`."""
    matrix = embed_matrix(embedder, [payload for ps in parts.values() for _, payload, _ in ps])
    rows = iter(matrix)
    codes = np.repeat([_SOURCES.index(s) for s in parts], [len(ps) for ps in parts.values()])
    ids = iter(_built_ids(codes))
    entries = [
        Entry(next(ids), source, payload, next(rows), anchor, summary)
        for source, ps in parts.items()
        for anchor, payload, summary in ps
    ]
    kb = KnowledgeBase(doc_id, embedder.name, embedder.dim, entries, table_texts, matrix)
    logger.info("built KB for %s: %s", doc_id, kb.counts())
    return kb


def _built_ids(codes: np.ndarray) -> list[str]:
    """The entry_id a build gives each entry of these source codes, in
    file order: its source's prefix and its four-digit ordinal among
    that source's entries."""
    ids = np.empty(len(codes), dtype=object)
    for code, prefix in enumerate(_PREFIXES):
        rows = np.flatnonzero(codes == code)
        # %-formatting: a fifth faster than an f-string per id, as `load` derives them
        ids[rows] = list(map(f"{prefix}%04d".__mod__, range(len(rows))))
    return ids.tolist()


def _summary_code(e: Entry) -> int:
    """The `summary` code of an entry: 0 for no summary, else 1 + the
    length of the longest head that its summary and payload_text share,
    found by `startswith` and a binary search, at C speed."""
    payload, summary = e.payload_text, e.summary
    if summary is None:
        return 0
    if payload.startswith(summary):
        return len(summary) + 1
    low, high = 0, min(len(payload), len(summary) - 1)  # the shared length is in [low, high]
    while low < high:
        mid = (low + high + 1) // 2
        if payload.startswith(summary[:mid]):
            low = mid
        else:
            high = mid - 1
    return low + 1


def _pieces(entries: Sequence[Entry], summary_codes: Sequence[int]) -> list[str]:
    """The text pieces of `entries` in file order: each entry's
    payload_text, its summary past the head that its code takes from
    the payload ("" for None), and anchor."""
    return [
        piece
        for e, code in zip(entries, summary_codes)
        for piece in (e.payload_text, e.summary[code - 1 :] if code else "", e.anchor)
    ]


def _uint(largest: int) -> str:
    """The narrowest of `_UINTS` that holds every integer from 0 to `largest`."""
    return next(t for t in _UINTS if largest <= np.iinfo(t).max)


def _sorted_distinct(patterns: np.ndarray) -> np.ndarray:
    """`np.unique(patterns)`, by one sort of `patterns` in place: a third
    of `np.unique`'s time on the blocks of a hash-embedded KB."""
    patterns.sort()
    first = np.ones(len(patterns), dtype=bool)  # the first of each run of equal patterns
    first[1:] = patterns[1:] != patterns[:-1]
    return patterns[first]


def save(kb: KnowledgeBase, path: str | Path) -> None:
    """Write the KB file (byte-reproducible): the header line, then each
    section in turn. The header's entry_id column (unless it is the
    built one), the text and the CSR arrays go out `_SAVE_ROWS` entries
    at a time, so neither the file nor its header, text or vector
    sections are held whole; a first pass over the entries finds their
    summary codes and the text's offsets and byte length, and one over
    the vector rows their counts of stored values and the distinct
    patterns of those."""
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    entries = kb.entries
    n = len(entries)
    summary_codes = np.fromiter(map(_summary_code, entries), np.int64, n)
    batches = [
        (entries[i : i + _SAVE_ROWS], summary_codes[i : i + _SAVE_ROWS].tolist())
        for i in range(0, n, _SAVE_ROWS)
    ]
    lengths = [np.zeros(1, dtype=np.int64)]
    text_bytes = 0
    for batch in batches:
        pieces = _pieces(*batch)
        lengths.append(np.fromiter(map(len, pieces), np.int64, len(pieces)))
        text_bytes += len("".join(pieces).encode("utf-8"))
    offsets = np.cumsum(np.concatenate(lengths))
    bits = kb._matrix.view(np.uint64)
    blocks = [bits[i : i + _SAVE_ROWS] for i in range(0, len(bits), _SAVE_ROWS)]
    sizes = []
    distinct: np.ndarray | None = np.zeros(0, dtype=np.uint64)  # None past _MAX_DISTINCT
    for block in blocks:
        flat = np.flatnonzero(block != 0)  # of a bool mask: faster than of the uint64 block
        sizes.append(np.diff(np.searchsorted(flat, np.arange(len(block) + 1) * kb.dim)))
        if distinct is not None:
            distinct = _sorted_distinct(np.concatenate([distinct, block.ravel()[flat]]))
            distinct = distinct if len(distinct) <= _MAX_DISTINCT else None
    indptr = np.cumsum(np.concatenate([np.zeros(1, dtype=np.intp), *sizes]))
    nnz = int(indptr[-1])
    value_type = "<f8"  # else codes into `distinct`, where those take fewer bytes
    if distinct is not None and len(distinct):
        code = _uint(len(distinct) - 1)
        if 8 * len(distinct) + np.dtype(code).itemsize * nnz < 8 * nnz:
            value_type = code
    if value_type == "<f8":
        distinct = np.zeros(0, dtype=np.uint64)
    types = dict(zip(_SECTIONS, (
        _uint(len(Source) - 1), _uint(int(offsets[-1])), _uint(int(summary_codes.max(initial=0))),
        "u1", _uint(nnz), _uint(kb.dim - 1), "<u8", value_type,
    )))
    items = (n, len(offsets), n, text_bytes, n + 1, nnz, len(distinct), nnz)
    header = {
        "format": KB_FORMAT,
        "version": KB_VERSION,
        "scope": kb.scope,
        "provider_name": kb.provider_name,
        "dim": kb.dim,
        "counts": kb.counts(),
        "table_texts": kb.table_texts,
        "sections": {
            name: [kind, np.dtype(kind).itemsize * count]
            for (name, kind), count in zip(types.items(), items)
        },
    }
    with open(path, "wb", buffering=_SAVE_BUFFER) as f:
        if kb.entry_ids == _built_ids(kb._codes):
            f.write(encode(header).encode("utf-8"))
        else:
            f.write(encode(header)[:-1].encode("utf-8"))
            f.write(b',"entry_id":[')
            for i in range(0, n, _SAVE_ROWS):
                f.write(b"," if i else b"")
                f.write(encode(kb.entry_ids[i : i + _SAVE_ROWS])[1:-1].encode("utf-8"))
            f.write(b"]}")
        f.write(b"\n")
        f.write(kb._codes.astype(types["source"]).tobytes())
        f.write(offsets.astype(types["offsets"]).tobytes())
        f.write(summary_codes.astype(types["summary"]).tobytes())
        for batch in batches:
            f.write("".join(_pieces(*batch)).encode("utf-8"))
        f.write(indptr.astype(types["indptr"]).tobytes())
        # each block's column indices and values go out from one scan of
        # it, each at the end of what its section holds so far
        at_indices = f.tell()
        f.seek(at_indices + nnz * np.dtype(types["indices"]).itemsize)
        f.write(distinct.astype("<u8").tobytes())
        at_values = f.tell()
        for block in blocks:
            flat = np.flatnonzero(block != 0)
            stored = block.ravel()[flat].astype("<u8", copy=False)
            if len(distinct):
                stored = np.searchsorted(distinct, stored).astype(value_type)
            f.seek(at_indices)
            at_indices += f.write((flat % kb.dim).astype(types["indices"]).tobytes())
            f.seek(at_values)
            at_values += f.write(stored.tobytes())


def _sections(specs: dict, body: memoryview) -> dict[str, np.ndarray]:
    """The sections that `specs` (the header's "sections") cut `body`,
    the bytes after the header line, into: arrays viewing `body`."""
    if not isinstance(specs, dict) or list(specs) != list(_SECTIONS):
        raise KnowledgeBaseError(f"sections are not {list(_SECTIONS)}")
    arrays, start = {}, 0
    for name, kinds in _SECTIONS.items():
        spec = specs[name]
        if not (isinstance(spec, list) and len(spec) == 2):
            raise KnowledgeBaseError(f"section {name!r} is not an [item type, byte length] pair")
        kind, size = spec
        if kind not in kinds:
            raise KnowledgeBaseError(
                f"section {name!r} has item type {kind!r}, not one of {list(kinds)}"
            )
        item = np.dtype(kind).itemsize
        if type(size) is not int or size < 0 or size % item:
            raise KnowledgeBaseError(
                f"section {name!r} has length {size!r}, not a count of {item}-byte items"
            )
        if start + size > len(body):
            raise KnowledgeBaseError(f"file ends inside section {name!r}")
        arrays[name] = np.frombuffer(body, kind, size // item, start)
        start += size
    if start != len(body):
        raise KnowledgeBaseError(f"{len(body) - start} bytes after the last section")
    return arrays


# The checks below compare unsigned arrays only by order: a difference
# of two would wrap where the second is the larger.


def _decode_vectors(
    indptr: np.ndarray,
    indices: np.ndarray,
    distinct: np.ndarray,
    values: np.ndarray,
    n: int,
    dim: int,
) -> np.ndarray:
    """The float64 (n, dim) matrix of the CSR sections, each stored value
    the `<f8` value or the `distinct` pattern its code points at; raises
    KnowledgeBaseError when they are malformed."""
    if indptr.shape != (n + 1,) or indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
        raise KnowledgeBaseError(f"indptr is not {n + 1} non-decreasing offsets from 0")
    if not indptr[-1] == len(indices) == len(values):
        raise KnowledgeBaseError(
            f"indptr ends at {indptr[-1]} for {len(indices)} indices "
            f"and {len(values)} values"
        )
    if len(indices) and indices.max() >= dim:
        raise KnowledgeBaseError(f"column index outside [0, {dim})")
    # made before the positions, so a dim too large for them is a ValueError
    matrix = np.zeros((n, dim), dtype=np.float64)
    # each value's position in the flat matrix: as every index is below
    # dim, these increase strictly exactly when each row's indices do
    flat = np.repeat(np.arange(n, dtype=np.intp) * dim, np.diff(indptr).astype(np.intp))
    np.add(flat, indices, out=flat, dtype=np.intp)  # a `<u8` section as intp, not float64
    if (flat[1:] <= flat[:-1]).any():
        raise KnowledgeBaseError("column indices not strictly increasing within a row")
    if len(distinct) and values.dtype.kind == "f":
        raise KnowledgeBaseError(f"values are floats beside {len(distinct)} distinct patterns")
    if not len(distinct) and values.dtype.kind == "u":
        raise KnowledgeBaseError("values are codes without distinct patterns")
    if (distinct[1:] <= distinct[:-1]).any():
        raise KnowledgeBaseError("distinct patterns not strictly increasing")
    if len(distinct) and distinct[0] == 0:
        raise KnowledgeBaseError("distinct patterns hold the all-zero pattern")
    if len(distinct) and len(values) and values.max() >= len(distinct):
        raise KnowledgeBaseError(f"value code {values.max()} past {len(distinct)} distinct patterns")
    bits = matrix.reshape(-1).view(np.uint64)
    for start in range(0, len(values), _LOAD_VALUES):
        part = slice(start, start + _LOAD_VALUES)
        bits[flat[part]] = distinct[values[part]] if len(distinct) else values[part].view("<u8")
    return matrix


def _decode_text(
    text: np.ndarray, offsets: np.ndarray, summary: np.ndarray, n: int
) -> tuple[str, list[int], list[int]]:
    """The text section as one str, and its offsets and the summary
    codes as lists; raises KnowledgeBaseError, or ValueError for invalid
    UTF-8, when they are malformed."""
    texts = str(text, "utf-8")
    if (
        offsets.shape != (3 * n + 1,)
        or offsets[0] != 0
        or offsets[-1] != len(texts)
        or (offsets[1:] < offsets[:-1]).any()
    ):
        raise KnowledgeBaseError(
            f"text offsets are not {3 * n + 1} non-decreasing offsets from 0 to {len(texts)}"
        )
    if summary.shape != (n,):
        raise KnowledgeBaseError(f"{len(summary)} summary codes for {n} entries")
    payloads = offsets[1::3].astype(np.uint64) - offsets[:-1:3]  # each payload's length
    if (summary.astype(np.uint64) > payloads + 1).any():
        raise KnowledgeBaseError("a summary code is past its payload's length")
    if (offsets[2::3] != offsets[1:-1:3])[summary == 0].any():
        raise KnowledgeBaseError("an entry without a summary has summary text")
    return texts, offsets.tolist(), summary.tolist()


def _decode_sources(codes: np.ndarray, n: int) -> np.ndarray:
    """The code section as intp source codes (indices in `Source`);
    raises KnowledgeBaseError when it is malformed."""
    if codes.shape != (n,):
        raise KnowledgeBaseError(f"{len(codes)} sources for {n} entries")
    if len(codes) and codes.max() >= len(Source):
        raise KnowledgeBaseError(f"unknown source code {codes.max()}")
    return codes.astype(np.intp)


def load(path: str | Path, dim: int | None = None) -> KnowledgeBase:
    """The KB of a file `save` wrote; raises KnowledgeBaseError when the
    file is missing, of another format or version, of a dim above
    `providers.MAX_DIM` or other than `dim` (when given; both checked
    before any section is decoded), or malformed in any part, so a KB
    that loads needs no further checks.
    No Python loop runs per entry or stored value but the entry_id
    derivation, checks and sort: the vectors decode by their flat
    positions (`row * dim + index`), and a summary is made only when its
    row's texts are asked for."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise KnowledgeBaseError(f"cannot load KB from {path}: {exc}") from exc
    end = data.find(b"\n")
    try:
        header = json.loads(data[: end if end >= 0 else len(data)])
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise KnowledgeBaseError(f"cannot load KB from {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != KB_FORMAT:
        raise KnowledgeBaseError(f"{path} is not a KB file")
    if header.get("version") != KB_VERSION:
        raise KnowledgeBaseError(
            f"{path}: KB version {header.get('version')!r} not supported "
            f"(expected {KB_VERSION})"
        )
    try:
        if end < 0:
            raise KnowledgeBaseError("no newline after the header")
        return _from_file(header, memoryview(data)[end + 1 :], dim)
    except (ValueError, KnowledgeBaseError) as exc:
        raise KnowledgeBaseError(f"{path}: malformed KB file: {exc}") from exc


_HEADER_REQUIRED = frozenset({"scope", "provider_name", "dim", "counts", "table_texts", "sections"})


def _from_file(header: dict, body: memoryview, want_dim: int | None) -> KnowledgeBase:
    """The KB of a parsed header and the bytes after its line; raises
    KnowledgeBaseError, or ValueError for text that is not UTF-8, when
    malformed. The scope is a doc_id, so it must be a file name."""
    E = KnowledgeBaseError
    header = _read.obj(header, ("header",), E, None, _HEADER_REQUIRED)
    table_texts = _read.obj(header["table_texts"], ("header", "table_texts"), E)
    for table_id, text in table_texts.items():
        _read.text(text, ("header", "table_texts", table_id), E)
    entry_ids = None  # unless the header holds them, the `_built_ids`
    if "entry_id" in header:
        entry_ids = _read.texts(header["entry_id"], ("header", "entry_id"), E)
    dim = _read.integer(header["dim"], ("header", "dim"), E, 1)
    if want_dim is not None and dim != want_dim:
        raise E(f"dim {dim} is not the expected {want_dim}")
    if dim > MAX_DIM:  # whatever the caller expects: the matrix would take dim * 8 bytes a row
        raise E(f"dim {dim} is above the largest, {MAX_DIM}")
    arrays = _sections(header["sections"], body)
    n = len(arrays["source"] if entry_ids is None else entry_ids)
    codes = _decode_sources(arrays["source"], n)
    if entry_ids is None:
        entry_ids = _built_ids(codes)
    text, offsets, summary_codes = _decode_text(
        arrays["text"], arrays["offsets"], arrays["summary"], n
    )
    matrix = _decode_vectors(
        arrays["indptr"], arrays["indices"], arrays["distinct"], arrays["values"], n, dim
    )

    def texts(row: int) -> tuple[str, str | None, str]:
        a, b, c, d = offsets[3 * row : 3 * row + 4]
        code = summary_codes[row]
        return text[a:b], text[a : a + code - 1] + text[b:c] if code else None, text[c:d]

    kb = KnowledgeBase.__new__(KnowledgeBase)  # the columns stand in for `__init__`'s entries
    kb._setup(
        _read.file_name(header["scope"], ("header", "scope"), E),
        _read.text(header["provider_name"], ("header", "provider_name"), E),
        dim, table_texts, entry_ids, codes, matrix, texts,
    )
    if header["counts"] != kb.counts():
        raise KnowledgeBaseError(f"counts {header['counts']!r} are not those of the entries")
    return kb


def verify_anchors(kb: KnowledgeBase, doc: StructuredDocument) -> None:
    """Check that every entry anchor resolves in `doc`; raises otherwise."""
    n_blocks = len(doc.blocks)
    n_paths = len(outline_paths(doc.outline))
    table_ids = {t.table_id for t in doc.tables}
    n_text = sum(1 for e in kb.entries if e.source is Source.TEXT)
    for e in kb.entries:
        kind, _, rest = e.anchor.partition(":")
        ok = False
        if kind == "blocks":
            span = rest.split("#")[0]
            start, _, end = span.partition("-")
            ok = start.isdigit() and end.isdigit() and int(end) < n_blocks and int(start) <= int(end)
        elif kind == "outline":
            ok = rest.isdigit() and int(rest) < n_paths
        elif kind == "table":
            ok = rest in table_ids
        elif kind == "flat":
            ok = rest.isdigit() and int(rest) < n_text
        if not ok:
            raise KnowledgeBaseError(
                f"entry {e.entry_id!r} anchor {e.anchor!r} does not resolve in "
                f"document {doc.doc_id!r}"
            )
