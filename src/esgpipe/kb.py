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
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .docmodel import StructuredDocument, Table, outline_paths, render_table
from .errors import KnowledgeBaseError, ProviderError
from .providers import (
    EmbeddingProvider,
    LeadSentenceSummarizer,
    SummaryProvider,
    split_sentences,
)

logger = logging.getLogger(__name__)

KB_FORMAT = "esg_kb"
KB_VERSION = 1

DEFAULT_CHUNK_CHARS = 1200
DEFAULT_NAIVE_CHUNK_CHARS = 400
MIN_CHUNK_CHARS = 200


class Source(Enum):
    TEXT = "Text"
    OUTLINE = "Outline"
    TABLE_KEYWORD = "TableKeyword"


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
    rank: np.ndarray  # position of each row's entry_id in string order


def _partition(entries: list[Entry], dim: int) -> Partition:
    matrix = np.array([e.vector for e in entries], dtype=np.float64).reshape(len(entries), dim)
    by_id = sorted(range(len(entries)), key=lambda j: entries[j].entry_id)
    rank = np.empty(len(entries), dtype=np.intp)
    rank[by_id] = np.arange(len(entries))
    return Partition(entries, matrix, np.linalg.norm(matrix, axis=1), rank)


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
    _partitions: dict[Source, Partition] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for e in self.entries:
            if e.entry_id in seen:
                raise KnowledgeBaseError(f"duplicate entry_id {e.entry_id!r}")
            seen.add(e.entry_id)
            if len(e.vector) != self.dim:
                raise KnowledgeBaseError(
                    f"entry {e.entry_id!r} vector has dim {len(e.vector)}, "
                    f"KB dim is {self.dim}"
                )
        self._partitions = {
            source: _partition([e for e in self.entries if e.source is source], self.dim)
            for source in Source
        }

    def counts(self) -> dict[str, int]:
        out = {s.value: 0 for s in Source}
        for e in self.entries:
            out[e.source.value] += 1
        return out

    def partition(self, source: Source) -> Partition:
        return self._partitions[source]

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
            piece: list[str] = []
            piece_len = 0
            part = 0
            for sentence in split_sentences(text):
                extra = len(sentence) + (1 if piece else 0)
                if piece and piece_len + extra > max_chars:
                    chunks.append((f"blocks:{i}-{i}#{part}", " ".join(piece)))
                    part += 1
                    piece = []
                    piece_len = 0
                piece.append(sentence)
                piece_len += len(sentence) + (1 if piece_len else 0)
            if piece:
                chunks.append((f"blocks:{i}-{i}#{part}", " ".join(piece)))
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
        (f"outline:{path_index}", path)
        for path_index, (path, _node) in enumerate(outline_paths(doc.outline))
    ]

    keyword_parts: list[tuple[str, str]] = []
    table_texts: dict[str, str] = {}
    for table in doc.tables:
        table_texts[table.table_id] = render_table(table)
        for keyword in extract_table_keywords(table):
            keyword_parts.append((f"table:{table.table_id}", keyword))

    payloads = (
        [p for _, p, _ in text_parts]
        + [p for _, p in outline_parts]
        + [p for _, p in keyword_parts]
    )
    vectors = embedder.embed(payloads)
    if len(vectors) != len(payloads):
        raise ProviderError(
            f"embedder {embedder.name!r} returned {len(vectors)} vectors "
            f"for {len(payloads)} texts"
        )

    entries: list[Entry] = []
    vec = iter(vectors)
    for n, (anchor, payload, summary) in enumerate(text_parts):
        entries.append(
            Entry(
                entry_id=f"t{n:04d}",
                source=Source.TEXT,
                doc_id=doc.doc_id,
                payload_text=payload,
                summary=summary,
                vector=next(vec),
                anchor=anchor,
            )
        )
    for n, (anchor, payload) in enumerate(outline_parts):
        entries.append(
            Entry(
                entry_id=f"o{n:04d}",
                source=Source.OUTLINE,
                doc_id=doc.doc_id,
                payload_text=payload,
                vector=next(vec),
                anchor=anchor,
            )
        )
    for n, (anchor, payload) in enumerate(keyword_parts):
        entries.append(
            Entry(
                entry_id=f"k{n:04d}",
                source=Source.TABLE_KEYWORD,
                doc_id=doc.doc_id,
                payload_text=payload,
                vector=next(vec),
                anchor=anchor,
            )
        )

    kb = KnowledgeBase(
        scope=doc.doc_id,
        provider_name=embedder.name,
        dim=embedder.dim,
        entries=entries,
        table_texts=table_texts,
        summary_fallbacks=fallbacks,
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
    vectors = embedder.embed([p for _, p in parts])
    entries = [
        Entry(
            entry_id=f"t{n:04d}",
            source=Source.TEXT,
            doc_id=doc.doc_id,
            payload_text=payload,
            vector=vector,
            anchor=anchor,
        )
        for n, ((anchor, payload), vector) in enumerate(zip(parts, vectors))
    ]
    kb = KnowledgeBase(
        scope=doc.doc_id,
        provider_name=embedder.name,
        dim=embedder.dim,
        entries=entries,
    )
    logger.info("built naive KB for %s: %d chunks", doc.doc_id, len(entries))
    return _adopt_rows(kb)


def save(kb: KnowledgeBase, path: str | Path) -> None:
    """Write the single-file KB format (byte-reproducible)."""
    payload = {
        "format": KB_FORMAT,
        "version": KB_VERSION,
        "scope": kb.scope,
        "provider_name": kb.provider_name,
        "dim": kb.dim,
        "counts": kb.counts(),
        "summary_fallbacks": kb.summary_fallbacks,
        "table_texts": kb.table_texts,
        "entries": [
            {
                "entry_id": e.entry_id,
                "source": e.source.value,
                "doc_id": e.doc_id,
                "payload_text": e.payload_text,
                "summary": e.summary,
                "vector": e.vector,
                "anchor": e.anchor,
            }
            for e in kb.entries
        ],
    }
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"), default=_row_list)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _row_list(obj: object) -> list[float]:
    """JSON form of an entry vector held as a matrix row."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
        entries = [
            Entry(
                entry_id=e["entry_id"],
                source=Source(e["source"]),
                doc_id=e["doc_id"],
                payload_text=e["payload_text"],
                summary=e["summary"],
                vector=e["vector"],
                anchor=e["anchor"],
            )
            for e in data["entries"]
        ]
        kb = KnowledgeBase(
            scope=data["scope"],
            provider_name=data["provider_name"],
            dim=int(data["dim"]),
            entries=entries,
            table_texts=dict(data["table_texts"]),
            summary_fallbacks=int(data.get("summary_fallbacks", 0)),
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
