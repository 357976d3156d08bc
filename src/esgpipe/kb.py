"""Multi-type knowledge base: text chunks, outline paths, table keywords.

A structured build produces three index partitions per document:

- Text: block-respecting chunks of body text, each with a short summary
  (retrieval scores use the chunk vector; the summary is rendered into
  the evidence shown to the model).
- Outline: one entry per outline node, embedding the full title path.
- TableKeyword: one entry per keyword per table (header cells and
  first-column label cells), all anchored to the table so a keyword hit
  resolves to the full rendered table.

A naive build (for the benchmark pipeline arm) flattens body text and
linearized tables into one string and cuts fixed-size chunks into a
single Text partition with no summaries, no outline and no table index.

The KB persists to a single JSON file with a version header; loading a
mismatched version or provider dimension fails rather than guessing.
In version 2 the entries carry no vectors. One `"vectors"` block holds
them all as a CSR matrix (compressed sparse rows) over `entries` in file
order, in three base64 fields: `indptr` (`<i4`, entries + 1 row
offsets starting at 0), then per row its strictly increasing column
`indices` (`<i4`) and their `values` (`<f8`). A value is stored when its
bit pattern is not all zero, so -0.0, NaN and subnormals round-trip bit
for bit. A file of another version is rejected, and the KB cache then
rebuilds it.
"""

from __future__ import annotations

import base64
import bisect
import itertools
import json
import logging
import re
from dataclasses import InitVar, dataclass, field
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .docmodel import StructuredDocument, Table, outline_paths, render_table
from .errors import KnowledgeBaseError, ProviderError
from .providers import (
    EmbeddingProvider,
    LeadSentenceSummarizer,
    SummaryProvider,
    embed_matrix,
    split_sentences,
)

logger = logging.getLogger(__name__)

KB_FORMAT = "esg_kb"
KB_VERSION = 2

DEFAULT_CHUNK_CHARS = 1200
DEFAULT_NAIVE_CHUNK_CHARS = 400
MIN_CHUNK_CHARS = 200

_SAVE_ROWS = 256  # entries and vector rows per piece `save` writes
_SAVE_BUFFER = 1 << 16  # bytes `save` buffers per write: a small KB goes out in one


class Source(Enum):
    TEXT = "Text"
    OUTLINE = "Outline"
    TABLE_KEYWORD = "TableKeyword"


_SOURCES = {s.value: s for s in Source}  # what `load` maps each entry's "source" through


@dataclass
class Entry:
    entry_id: str
    source: Source
    doc_id: str
    payload_text: str
    vector: Sequence[float]  # a row of its partition's matrix in KBs from build/load
    anchor: str
    summary: str | None = None


@dataclass(frozen=True)
class Partition:
    """One source's entries with the arrays exact search runs on."""

    entries: list[Entry]
    matrix: np.ndarray  # float64 (n, dim); row j is entries[j].vector
    norms: np.ndarray  # L2 norm of each row


def _partition(entries: list[Entry], matrix: np.ndarray) -> Partition:
    return Partition(entries, matrix, np.linalg.norm(matrix, axis=1))


def _rows_by_source(entries: Sequence[Entry]) -> dict[Source, list[int]]:
    rows: dict[Source, list[int]] = {source: [] for source in Source}
    for i, e in enumerate(entries):
        rows[e.source].append(i)
    return rows


def _take_rows(matrix: np.ndarray, rows: list[int]) -> np.ndarray:
    """matrix[rows] for increasing rows; a view when they are one run."""
    if rows and rows[-1] - rows[0] == len(rows) - 1:
        return matrix[rows[0] : rows[-1] + 1]
    return matrix[rows]


def _adopt_rows(kb: KnowledgeBase) -> KnowledgeBase:
    """Points each entry's vector at its partition row, so the float
    lists the KB was made from can be freed."""
    for part in kb._partitions.values():
        for entry, row in zip(part.entries, part.matrix):
            entry.vector = row
    return kb


@dataclass
class KnowledgeBase:
    scope: str  # doc_id for per-document KBs
    provider_name: str
    dim: int
    entries: list[Entry]
    table_texts: dict[str, str] = field(default_factory=dict)
    summary_fallbacks: int = 0
    # float64 (entries, dim), row i is entries[i]'s vector; stacked from
    # the entry vectors when not given
    matrix: InitVar[np.ndarray | None] = None
    _partitions: dict[Source, Partition] = field(init=False, repr=False, compare=False)
    _id_ranks: dict[Source, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self, matrix: np.ndarray | None) -> None:
        seen: set[str] = set()
        for e in self.entries:
            if e.entry_id in seen:
                raise KnowledgeBaseError(f"duplicate entry_id {e.entry_id!r}")
            seen.add(e.entry_id)
            if matrix is None and len(e.vector) != self.dim:
                raise KnowledgeBaseError(
                    f"entry {e.entry_id!r} vector has dim {len(e.vector)}, "
                    f"KB dim is {self.dim}"
                )
        shape = (len(self.entries), self.dim)
        if matrix is None:
            matrix = np.array([e.vector for e in self.entries], dtype=np.float64).reshape(shape)
        elif matrix.shape != shape:
            raise KnowledgeBaseError(f"vector matrix has shape {matrix.shape}, expected {shape}")
        rows = _rows_by_source(self.entries)
        self._partitions = {
            source: _partition(
                [self.entries[i] for i in rows[source]], _take_rows(matrix, rows[source])
            )
            for source in Source
        }
        by_id = sorted(range(len(self.entries)), key=lambda i: self.entries[i].entry_id)
        rank = np.empty(len(self.entries), dtype=np.intp)
        rank[by_id] = np.arange(len(self.entries))
        self._id_ranks = {source: rank[rows[source]] for source in Source}

    def counts(self) -> dict[str, int]:
        return {s.value: len(self._partitions[s].entries) for s in Source}

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


def chunk_text(doc: StructuredDocument, max_chars: int = DEFAULT_CHUNK_CHARS) -> list[tuple[str, str]]:
    """Split body blocks into (anchor, chunk) pairs.

    Whole blocks are packed greedily (joined with newlines) up to
    max_chars. A single block longer than max_chars is split at
    sentence boundaries; an individual sentence longer than max_chars
    stays whole. Anchors are "blocks:i-j" (inclusive block range) or
    "blocks:i-i#p" for the p-th piece of a split block.
    """
    if max_chars < MIN_CHUNK_CHARS:
        raise KnowledgeBaseError(f"max_chars must be >= {MIN_CHUNK_CHARS}")
    chunks: list[tuple[str, str]] = []
    group: list[str] = []
    group_start = 0
    group_len = 0

    def flush(end_index: int) -> None:
        nonlocal group, group_len
        if group:
            anchor = f"blocks:{group_start}-{end_index}"
            chunks.append((anchor, "\n".join(group)))
            group = []
            group_len = 0

    for i, block in enumerate(doc.blocks):
        text = block.text
        if len(text) > max_chars:
            flush(i - 1)
            sentences = split_sentences(text)
            # ends[j] - ends[k] - 1 is the length of sentences[k:j] joined by spaces
            ends = list(itertools.accumulate(map((1).__add__, map(len, sentences)), initial=0))
            start = part = 0
            while start < len(sentences):
                # the most sentences from `start` that fit, and at least one
                stop = max(bisect.bisect_right(ends, ends[start] + max_chars + 1) - 1, start + 1)
                chunks.append((f"blocks:{i}-{i}#{part}", " ".join(sentences[start:stop])))
                start, part = stop, part + 1
            group_start = i + 1
            continue
        extra = len(text) + (1 if group else 0)
        if group and group_len + extra > max_chars:
            flush(i - 1)
        if not group:
            group_start = i
        group.append(text)
        group_len += len(text) + (0 if group_len == 0 else 1)
    flush(len(doc.blocks) - 1)
    return chunks


def naive_chunks(flat_text: str, size: int = DEFAULT_NAIVE_CHUNK_CHARS) -> list[tuple[str, str]]:
    """Fixed-size chunking of flattened text for the benchmark arm.

    Sentences are packed greedily up to `size` characters; a single
    run without sentence boundaries longer than `size` is hard-cut.
    Anchors are "flat:<n>" chunk ordinals.
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
    chunks: list[str] = []
    current = ""
    for piece in pieces:
        candidate = f"{current} {piece}" if current else piece
        if current and len(candidate) > size:
            chunks.append(current)
            current = piece
        else:
            current = candidate
    if current:
        chunks.append(current)
    return [(f"flat:{n}", chunk) for n, chunk in enumerate(chunks)]


def summarize(
    text: str,
    provider: SummaryProvider | None = None,
    fallback_sentences: int = 2,
) -> tuple[str, bool]:
    """Summarize text, falling back to leading sentences on failure.

    Returns (summary, used_fallback). A provider result that is empty
    or longer than the input counts as a provider failure; the error is
    logged and the offline fallback applies.
    """
    if not text:
        raise KnowledgeBaseError("cannot summarize empty text")
    fallback = LeadSentenceSummarizer(fallback_sentences)
    if provider is None:
        return fallback.summarize(text), False
    try:
        summary = provider.summarize(text)
        if not summary:
            raise ProviderError(f"summary provider {provider.name!r} returned empty text")
        if len(summary) > len(text):
            raise ProviderError(
                f"summary provider {provider.name!r} returned a summary longer than the input"
            )
        return summary, False
    except ProviderError as exc:
        logger.warning("summary fallback engaged: %s", exc)
        return fallback.summarize(text), True


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
    max_chars: int = DEFAULT_CHUNK_CHARS
    summary_provider: SummaryProvider | None = None
    summary_sentences: int = 2


def build(
    doc: StructuredDocument,
    embedder: EmbeddingProvider,
    cfg: BuildConfig | None = None,
) -> KnowledgeBase:
    """Build the three-partition KB for one document."""
    cfg = cfg or BuildConfig()
    fallbacks = 0

    text_parts: list[tuple[str, str, str | None]] = []  # (anchor, payload, summary)
    for anchor, chunk in chunk_text(doc, cfg.max_chars):
        summary, fell_back = summarize(
            chunk, cfg.summary_provider, cfg.summary_sentences
        )
        fallbacks += int(fell_back)
        text_parts.append((anchor, chunk, summary))

    outline_parts = [
        (f"outline:{path_index}", path, None)
        for path_index, (path, _node) in enumerate(outline_paths(doc.outline))
    ]

    keyword_parts: list[tuple[str, str, None]] = []
    table_texts: dict[str, str] = {}
    for table in doc.tables:
        table_texts[table.table_id] = render_table(table)
        anchor = f"table:{table.table_id}"
        keyword_parts.extend((anchor, keyword, None) for keyword in extract_table_keywords(table))

    sections = (
        (Source.TEXT, "t", text_parts),
        (Source.OUTLINE, "o", outline_parts),
        (Source.TABLE_KEYWORD, "k", keyword_parts),
    )
    matrix = embed_matrix(
        embedder, [payload for _, _, parts in sections for _, payload, _ in parts]
    )
    rows = iter(matrix)
    entries = [
        Entry(f"{prefix}{n:04d}", source, doc.doc_id, payload, next(rows), anchor, summary)
        for source, prefix, parts in sections
        for n, (anchor, payload, summary) in enumerate(parts)
    ]

    kb = KnowledgeBase(
        scope=doc.doc_id,
        provider_name=embedder.name,
        dim=embedder.dim,
        entries=entries,
        table_texts=table_texts,
        summary_fallbacks=fallbacks,
        matrix=matrix,
    )
    logger.info("built KB for %s: %s", doc.doc_id, kb.counts())
    return _adopt_rows(kb)


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
    parts = naive_chunks(flatten_document(doc), chunk_chars)
    matrix = embed_matrix(embedder, [p for _, p in parts])
    entries = [
        Entry(
            entry_id=f"t{n:04d}",
            source=Source.TEXT,
            doc_id=doc.doc_id,
            payload_text=payload,
            vector=row,
            anchor=anchor,
        )
        for n, ((anchor, payload), row) in enumerate(zip(parts, matrix))
    ]
    kb = KnowledgeBase(
        scope=doc.doc_id,
        provider_name=embedder.name,
        dim=embedder.dim,
        entries=entries,
        matrix=matrix,
    )
    logger.info("built naive KB for %s: %d chunks", doc.doc_id, len(entries))
    return _adopt_rows(kb)


def _file_order_bits(kb: KnowledgeBase) -> Iterator[np.ndarray]:
    """The bit patterns (uint64) of the KB's vectors over `kb.entries` in
    order, as row views of the partition matrices: one per run of
    entries of one source, cut every `_SAVE_ROWS` rows. `build`,
    `build_naive` and `load` keep each source's entries together, so
    their KBs give at most one run per source; entries whose sources
    interleave give a view per run, down to one per entry."""
    next_row = dict.fromkeys(Source, 0)
    for source, run in itertools.groupby(kb.entries, key=attrgetter("source")):
        bits = kb.partition(source).matrix.view(np.uint64)
        start = next_row[source]
        next_row[source] = stop = start + len(list(run))
        for cut in range(start, stop, _SAVE_ROWS):
            yield bits[cut : min(cut + _SAVE_ROWS, stop)]


def _write_base64(f: BinaryIO, chunks: Iterable[bytes]) -> None:
    """Writes the base64 of the concatenated `chunks`, encoding them as
    they come: the base64 of a concatenation is that of its parts while
    every part but the last has a multiple of 3 bytes."""
    rest = b""
    for chunk in chunks:
        data = rest + chunk
        cut = len(data) - len(data) % 3
        f.write(base64.b64encode(memoryview(data)[:cut]))
        rest = data[cut:]
    f.write(base64.b64encode(rest))


def _write_vectors(f: BinaryIO, kb: KnowledgeBase) -> None:
    """The fields of the `"vectors"` object, the CSR block over
    `kb.entries` in order, each base64-encoded a block of rows at a
    time. A value is stored when its bit pattern is not all zero, so
    -0.0 counts."""
    blocks = list(_file_order_bits(kb))  # views, so no copy of the vectors
    sizes = [np.count_nonzero(bits, axis=1) for bits in blocks]
    indptr = np.cumsum(np.concatenate([np.zeros(1, dtype=np.intp), *sizes]), dtype="<i4")
    columns = np.arange(kb.dim, dtype="<i4")
    f.write(b'"indptr":"')
    _write_base64(f, [indptr.tobytes()])
    f.write(b'","indices":"')
    _write_base64(f, (np.broadcast_to(columns, bits.shape)[bits != 0].tobytes() for bits in blocks))
    f.write(b'","values":"')
    _write_base64(f, (bits[bits != 0].astype("<u8").tobytes() for bits in blocks))
    f.write(b'"')


def _decode_vectors(block: dict, n: int, dim: int) -> np.ndarray:
    """The float64 (n, dim) matrix of a base64 CSR block; raises
    KnowledgeBaseError, ValueError, TypeError or KeyError when malformed."""
    indptr, indices, values = (
        np.frombuffer(base64.b64decode(block[name], validate=True), dtype=dtype)
        for name, dtype in (("indptr", "<i4"), ("indices", "<i4"), ("values", "<f8"))
    )
    if indptr.shape != (n + 1,) or indptr[0] != 0 or (np.diff(indptr) < 0).any():
        raise KnowledgeBaseError(f"indptr is not {n + 1} non-decreasing offsets from 0")
    if not indptr[-1] == len(indices) == len(values):
        raise KnowledgeBaseError(
            f"indptr ends at {indptr[-1]} for {len(indices)} indices "
            f"and {len(values)} values"
        )
    row = np.repeat(np.arange(n), np.diff(indptr))
    if len(indices) and (indices.min() < 0 or indices.max() >= dim):
        raise KnowledgeBaseError(f"column index outside [0, {dim})")
    if ((np.diff(indices) <= 0) & (np.diff(row) == 0)).any():
        raise KnowledgeBaseError("column indices not strictly increasing within a row")
    matrix = np.zeros((n, dim), dtype=np.float64)
    matrix[row, indices] = values
    return matrix


def save(kb: KnowledgeBase, path: str | Path) -> None:
    """Write the single-file KB format (byte-reproducible): the text
    `json.dumps(payload, ensure_ascii=False, separators=(",", ":"))`
    and a newline would give for the whole payload, written in pieces:
    the header, the entries `_SAVE_ROWS` at a time, then each base64
    vector field. So the file is never held whole, nor is any of its
    vector fields."""
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    header = {
        "format": KB_FORMAT,
        "version": KB_VERSION,
        "scope": kb.scope,
        "provider_name": kb.provider_name,
        "dim": kb.dim,
        "counts": kb.counts(),
        "summary_fallbacks": kb.summary_fallbacks,
        "table_texts": kb.table_texts,
    }
    with open(path, "wb", buffering=_SAVE_BUFFER) as f:
        f.write(encode(header)[:-1].encode("utf-8"))
        f.write(b',"entries":[')
        for start in range(0, len(kb.entries), _SAVE_ROWS):
            batch = [
                {
                    "entry_id": e.entry_id,
                    "source": e.source.value,
                    "doc_id": e.doc_id,
                    "payload_text": e.payload_text,
                    "summary": e.summary,
                    "anchor": e.anchor,
                }
                for e in kb.entries[start : start + _SAVE_ROWS]
            ]
            f.write(b"," if start else b"")
            f.write(encode(batch)[1:-1].encode("utf-8"))
        f.write(b'],"vectors":{')
        _write_vectors(f, kb)
        f.write(b"}}\n")


def load(path: str | Path) -> KnowledgeBase:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise KnowledgeBaseError(f"cannot load KB from {path}: {exc}") from exc
    if data.get("format") != KB_FORMAT:
        raise KnowledgeBaseError(f"{path} is not a KB file")
    if data.get("version") != KB_VERSION:
        raise KnowledgeBaseError(
            f"{path}: KB version {data.get('version')!r} not supported "
            f"(expected {KB_VERSION})"
        )
    try:
        dim = int(data["dim"])
        matrix = _decode_vectors(data["vectors"], len(data["entries"]), dim)
    except (KeyError, TypeError, ValueError, KnowledgeBaseError) as exc:
        raise KnowledgeBaseError(f"{path}: malformed vector block: {exc}") from exc
    try:
        entries = [
            Entry(
                entry_id=e["entry_id"],
                source=_SOURCES[e["source"]],
                doc_id=e["doc_id"],
                payload_text=e["payload_text"],
                summary=e["summary"],
                vector=row,
                anchor=e["anchor"],
            )
            for e, row in zip(data["entries"], matrix)
        ]
        kb = KnowledgeBase(
            scope=data["scope"],
            provider_name=data["provider_name"],
            dim=dim,
            entries=entries,
            table_texts=dict(data["table_texts"]),
            summary_fallbacks=int(data.get("summary_fallbacks", 0)),
            matrix=matrix,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise KnowledgeBaseError(f"{path}: malformed KB entry: {exc}") from exc
    return _adopt_rows(kb)


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
