"""Structured-document model and ingestion.

A document enters the pipeline as one of three on-disk shapes:

1. Layout-element interchange JSON: ``{"doc_id", "company", "industry",
   "market_cap_mhkd"?, "elements": [...]}`` where each element carries
   exactly the fields of `LayoutElement` (``kind``, ``text``, ``page``,
   ``bbox``, ``font_size``, plus ``table_id``/``row``/``col`` for table
   cells). Unknown element fields are rejected. Numbers must be JSON
   numbers, not booleans or strings, that fit a float, and ``page``,
   ``row`` and ``col`` must be integral; a ``table_id`` must be a
   string.
2. Structured-document JSON (the output of `serialize`), recognized by
   ``"format": "structured_document"``. Its ``page``, ``n_rows``,
   ``n_cols``, ``header_row_count``, ``level`` and ``span`` numbers
   must be integral JSON numbers, as in layout JSON.
3. Markdown or plain text: ``#``-style headings become outline nodes,
   pipe tables become tables, blank-line-separated paragraphs become
   blocks.

In either JSON shape ``market_cap_mhkd`` is null, absent or a JSON
number that is finite and above 0. `read_fields` reads a file's
top-level fields by the same rules as `ingest`, without its body.

The outline of layout JSON is built from font sizes: the largest
distinct header font ranks as level 1, the next as level 2, and so on;
a markdown heading's level is its count of ``#``. Either way one rule
builds the tree: a heading nests under the last heading of a lower
level, and a paragraph extends the span of the last heading. Tables
are reconstructed either from explicit (row, col) assignments or by
clustering cell boxes geometrically.
"""

from __future__ import annotations

import json
import logging
import math
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DocumentError, TableStructureError

logger = logging.getLogger(__name__)

STRUCTURED_FORMAT = "structured_document"
STRUCTURED_VERSION = 1

# Vertical (or horizontal) bbox overlap required for two cells to share
# a row (or column), as a fraction of the smaller extent.
CLUSTER_OVERLAP = 0.5


class ElementKind(Enum):
    HEADER = "Header"
    PARAGRAPH = "Paragraph"
    TABLE_CELL = "TableCell"


@dataclass
class LayoutElement:
    """One positioned fragment emitted by an upstream layout analyzer."""

    kind: ElementKind
    text: str
    page: int
    bbox: tuple[float, float, float, float]
    font_size: float
    table_id: str | None = None
    row: int | None = None
    col: int | None = None

    def validate(self) -> None:
        if self.page < 1:
            raise DocumentError(f"element page must be >= 1, got {self.page}")
        x0, y0, x1, y1 = self.bbox
        if not (x0 < x1 and y0 < y1):
            raise DocumentError(f"degenerate bbox {self.bbox!r}")
        if not 0 < self.font_size < math.inf:
            raise DocumentError(f"font_size must be positive and finite, got {self.font_size}")
        if self.kind is ElementKind.TABLE_CELL:
            if not self.table_id:
                raise DocumentError("TableCell element requires table_id")
        elif self.table_id is not None:
            raise DocumentError(f"{self.kind.value} element must not carry table_id")
        for name, value in (("row", self.row), ("col", self.col)):
            if value is not None and value < 0:
                raise DocumentError(f"element {name} must be >= 0, got {value}")


@dataclass
class OutlineNode:
    """Outline tree node. The root is synthetic and uses level 0.

    ``span`` is a half-open [start, end) range of block indices holding
    the paragraphs attached directly to this node (not to descendants).
    """

    title: str
    level: int
    span: tuple[int, int]
    children: list["OutlineNode"] = field(default_factory=list)


@dataclass
class Block:
    """One paragraph of body text with the page it came from."""

    text: str
    page: int


@dataclass
class Table:
    table_id: str
    n_rows: int
    n_cols: int
    cells: list[list[str]]
    header_row_count: int = 0

    def validate(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise TableStructureError(
                f"table {self.table_id!r} must have positive dimensions"
            )
        if len(self.cells) != self.n_rows or any(
            len(row) != self.n_cols for row in self.cells
        ):
            raise TableStructureError(
                f"table {self.table_id!r} grid is not {self.n_rows}x{self.n_cols}"
            )
        if not 0 <= self.header_row_count <= self.n_rows:
            raise TableStructureError(
                f"table {self.table_id!r} header_row_count out of range"
            )


@dataclass
class StructuredDocument:
    doc_id: str
    company: str
    industry: str
    market_cap_mhkd: float | None
    outline: OutlineNode
    blocks: list[Block]
    tables: list[Table]


def iter_nodes(root: OutlineNode, include_root: bool = True) -> Iterator[OutlineNode]:
    """Pre-order traversal."""
    stack = [root]
    while stack:
        node = stack.pop()
        if include_root or node is not root:
            yield node
        stack.extend(reversed(node.children))


def flatten_block_order(root: OutlineNode) -> list[int]:
    """Block indices in pre-order traversal of the outline spans."""
    order: list[int] = []
    for node in iter_nodes(root):
        order.extend(range(node.span[0], node.span[1]))
    return order


def outline_paths(root: OutlineNode) -> list[tuple[str, OutlineNode]]:
    """(path string, node) for every non-root node, root-to-node titles
    joined with " / "."""
    out: list[tuple[str, OutlineNode]] = []

    def walk(node: OutlineNode, prefix: list[str]) -> None:
        for child in node.children:
            path = prefix + [child.title]
            out.append((" / ".join(path), child))
            walk(child, path)

    walk(root, [])
    return out


def render_table(table: Table) -> str:
    """Plain-text rendition: one line per row, cells joined by ' | '."""
    return "\n".join(" | ".join(row) for row in table.cells)


def build_outline(elements: Sequence[LayoutElement]) -> OutlineNode:
    """Build the outline tree from Header/Paragraph elements.

    Elements must already be in reading order. Header levels follow the
    rank of their font size among the distinct header font sizes seen
    (largest size = level 1); the tree is `_outline`'s. TableCell
    elements are ignored here.
    """
    header_sizes = sorted(
        {e.font_size for e in elements if e.kind is ElementKind.HEADER}, reverse=True
    )
    rank = {size: i + 1 for i, size in enumerate(header_sizes)}
    return _outline(
        (rank[e.font_size], e.text) if e.kind is ElementKind.HEADER else None
        for e in elements
        if e.kind is not ElementKind.TABLE_CELL
    )


def _outline(items: Iterable[tuple[int, str] | None]) -> OutlineNode:
    """The outline tree of headings, given as (level, title), and
    paragraphs, given as None, in reading order. A heading nests under
    the last heading of a lower level; a paragraph extends the span of
    the last heading, or of the synthetic root before the first."""
    root = OutlineNode(title="", level=0, span=(0, 0))
    stack = [root]
    cursor = 0  # the block index of the next paragraph
    for item in items:
        if item is None:
            top = stack[-1]
            top.span = (top.span[0], cursor + 1)
            cursor += 1
            continue
        level, title = item
        node = OutlineNode(title=title, level=level, span=(cursor, cursor))
        while stack[-1].level >= level:
            stack.pop()
        stack[-1].children.append(node)
        stack.append(node)
    return root


def _interval_overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return min(a1, b1) - max(a0, b0)


def _cluster_cells(
    cells: Sequence[LayoutElement], axis: str
) -> dict[int, int]:
    """Cluster cells along one axis by the bbox-overlap rule.

    Returns element index -> cluster index, clusters numbered in
    ascending coordinate order. A cell joins the current cluster when
    its overlap with the cluster seed is at least CLUSTER_OVERLAP of
    the smaller extent.
    """
    if axis == "y":
        lo, hi = 1, 3
        order = sorted(range(len(cells)), key=lambda i: (cells[i].bbox[1], cells[i].bbox[0]))
    else:
        lo, hi = 0, 2
        order = sorted(range(len(cells)), key=lambda i: (cells[i].bbox[0], cells[i].bbox[1]))

    assignment: dict[int, int] = {}
    seed: tuple[float, float] | None = None
    cluster = -1
    for idx in order:
        c0, c1 = cells[idx].bbox[lo], cells[idx].bbox[hi]
        if seed is not None:
            overlap = _interval_overlap(seed[0], seed[1], c0, c1)
            smaller = min(seed[1] - seed[0], c1 - c0)
            if overlap >= CLUSTER_OVERLAP * smaller:
                assignment[idx] = cluster
                continue
        cluster += 1
        seed = (c0, c1)
        assignment[idx] = cluster
    return assignment


def _heuristic_header_rows(cells: list[list[str]]) -> int:
    count = 0
    for row in cells:
        if any(any(ch.isdigit() for ch in cell) for cell in row):
            break
        count += 1
    return count


def reconstruct_table(
    cells: Sequence[LayoutElement], header_row_count: int | None = None
) -> Table:
    """Rebuild a dense grid from TableCell elements.

    When every cell carries an explicit (row, col) pair those are used
    directly; otherwise all positions are inferred geometrically (rows
    from vertical bbox overlap, columns from horizontal). Missing grid
    positions become empty strings. ``header_row_count`` defaults to
    the count of leading digit-free rows; pass a value to override.
    """
    if not cells:
        raise TableStructureError("cannot reconstruct a table from zero cells")
    table_ids = {c.table_id for c in cells}
    if len(table_ids) != 1 or None in table_ids:
        raise TableStructureError(f"cells span multiple table_ids: {sorted(map(str, table_ids))}")
    table_id = cells[0].table_id
    assert table_id is not None
    if len({c.page for c in cells}) != 1:
        raise TableStructureError(f"table {table_id!r} cells span multiple pages")

    explicit = all(c.row is not None and c.col is not None for c in cells)
    if explicit:
        positions = [(c.row, c.col) for c in cells]
    else:
        rows = _cluster_cells(cells, "y")
        cols = _cluster_cells(cells, "x")
        positions = [(rows[i], cols[i]) for i in range(len(cells))]

    n_rows = max(r for r, _ in positions) + 1
    n_cols = max(c for _, c in positions) + 1
    grid = [["" for _ in range(n_cols)] for _ in range(n_rows)]
    seen: set[tuple[int, int]] = set()
    for (r, c), element in zip(positions, cells):
        if (r, c) in seen:
            raise TableStructureError(
                f"table {table_id!r}: two cells assigned to position ({r}, {c})"
            )
        seen.add((r, c))
        grid[r][c] = element.text

    if header_row_count is None:
        header_row_count = _heuristic_header_rows(grid)
    table = Table(
        table_id=table_id,
        n_rows=n_rows,
        n_cols=n_cols,
        cells=grid,
        header_row_count=header_row_count,
    )
    table.validate()
    return table


def validate_document(doc: StructuredDocument) -> None:
    """Check structural invariants; raises DocumentError on violation."""
    if not doc.doc_id:
        raise DocumentError("document requires a non-empty doc_id")
    if not doc.blocks and not doc.tables:
        raise DocumentError(f"document {doc.doc_id!r} has no blocks and no tables")
    n = len(doc.blocks)

    def check(node: OutlineNode, parent_level: int) -> None:
        start, end = node.span
        if not (0 <= start <= end <= n):
            raise DocumentError(
                f"document {doc.doc_id!r}: outline span {node.span} out of range"
            )
        if node.level <= parent_level and node.level != 0:
            raise DocumentError(
                f"document {doc.doc_id!r}: node {node.title!r} level {node.level} "
                f"not below its parent"
            )
        prev_end = None
        for child in node.children:
            if prev_end is not None and child.span[0] < prev_end:
                raise DocumentError(
                    f"document {doc.doc_id!r}: sibling spans overlap at {child.title!r}"
                )
            prev_end = child.span[1] if child.span[1] > child.span[0] else prev_end
            check(child, node.level)

    check(doc.outline, -1)
    order = flatten_block_order(doc.outline)
    if sorted(order) != list(range(n)):
        raise DocumentError(
            f"document {doc.doc_id!r}: outline spans do not cover blocks exactly once"
        )
    seen_tables: set[str] = set()
    for table in doc.tables:
        table.validate()
        if table.table_id in seen_tables:
            raise DocumentError(
                f"document {doc.doc_id!r}: duplicate table_id {table.table_id!r}"
            )
        seen_tables.add(table.table_id)


# --- strict parsing of the two JSON shapes ---

_ELEMENT_REQUIRED = frozenset({"kind", "text", "page", "bbox", "font_size"})
_ELEMENT_FIELDS = _ELEMENT_REQUIRED | {"table_id", "row", "col"}
_KINDS = {k.value: k for k in ElementKind}
_NUMBERS = frozenset({int, float})  # the types of JSON numbers; a bool is not one


def _integer(value: object, what: str) -> int:
    """A JSON number with an integral value, as an int; `what` names it
    in the error."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise DocumentError(f"{what} must be an integer, got {value!r}")


def _float(value: int | float, what: str) -> float:
    """A JSON number as a float; an int too large for one is an error
    naming `what`."""
    try:
        return float(value)
    except OverflowError:
        raise DocumentError(f"{what} holds a number too large for a float") from None


def _parse_element(obj: object, pos: int) -> LayoutElement:
    if not isinstance(obj, dict):
        raise DocumentError(f"element {pos}: expected an object")
    fields = obj.keys()
    if not fields <= _ELEMENT_FIELDS:
        raise DocumentError(f"element {pos}: unknown fields {sorted(fields - _ELEMENT_FIELDS)}")
    if not fields >= _ELEMENT_REQUIRED:
        raise DocumentError(f"element {pos}: missing fields {sorted(_ELEMENT_REQUIRED - fields)}")
    try:
        kind = _KINDS[obj["kind"]]
    except (KeyError, TypeError):  # a TypeError for an unhashable kind
        raise DocumentError(
            f"element {pos}: unknown kind {obj['kind']!r}; expected one of {list(_KINDS)}"
        ) from None
    bbox = obj["bbox"]
    if not (isinstance(bbox, list) and len(bbox) == 4 and _NUMBERS.issuperset(map(type, bbox))):
        raise DocumentError(f"element {pos}: bbox must be a 4-number array")
    font_size = obj["font_size"]
    if type(font_size) not in _NUMBERS:
        raise DocumentError(f"element {pos}: font_size must be a number, got {font_size!r}")
    table_id = obj.get("table_id")
    if table_id is not None and type(table_id) is not str:
        raise DocumentError(f"element {pos}: table_id must be a string, got {table_id!r}")
    row = obj.get("row")
    col = obj.get("col")
    element = LayoutElement(
        kind,
        str(obj["text"]),
        _integer(obj["page"], f"element {pos}: page"),
        tuple(_float(x, f"element {pos}: bbox") for x in bbox),
        _float(font_size, f"element {pos}: font_size"),
        table_id,
        None if row is None else _integer(row, f"element {pos}: row"),
        None if col is None else _integer(col, f"element {pos}: col"),
    )
    try:
        element.validate()
    except DocumentError as exc:
        raise DocumentError(f"element {pos}: {exc}") from None
    return element


def document_from_elements(
    doc_id: str,
    company: str,
    industry: str,
    market_cap_mhkd: float | None,
    elements: Sequence[LayoutElement],
) -> StructuredDocument:
    """Assemble and validate a document from layout elements."""
    ordered = sorted(elements, key=lambda e: (e.page, e.bbox[1], e.bbox[0]))
    outline = build_outline(ordered)
    blocks = [
        Block(text=e.text, page=e.page)
        for e in ordered
        if e.kind is ElementKind.PARAGRAPH
    ]
    by_table: dict[str, list[LayoutElement]] = {}
    for e in ordered:
        if e.kind is ElementKind.TABLE_CELL:
            assert e.table_id is not None
            by_table.setdefault(e.table_id, []).append(e)
    tables = [reconstruct_table(cells) for cells in by_table.values()]
    doc = StructuredDocument(
        doc_id=doc_id,
        company=company,
        industry=industry,
        market_cap_mhkd=market_cap_mhkd,
        outline=outline,
        blocks=blocks,
        tables=tables,
    )
    validate_document(doc)
    return doc


def _market_cap(data: dict, path: Path) -> float | None:
    """The `market_cap_mhkd` of either JSON shape: None when null or
    absent, else a JSON number that is finite and above 0."""
    cap = data.get("market_cap_mhkd")
    if cap is None:
        return None
    if type(cap) not in _NUMBERS:
        raise DocumentError(f"{path}: market_cap_mhkd must be a number, got {cap!r}")
    if not 0 < cap <= sys.float_info.max:  # an int compares exactly, so a huge one fails here
        raise DocumentError(f"{path}: market_cap_mhkd must be positive and finite, got {cap!r}")
    return float(cap)


class DocumentFields(NamedTuple):
    """A document's top-level fields: all that `analyze` reads of it."""

    doc_id: str
    company: str
    industry: str
    market_cap_mhkd: float | None


def _fields(data: dict, path: Path) -> DocumentFields:
    """The top-level fields of either JSON shape: doc_id, company and
    industry must be there and are taken with `str()`; the market cap is
    `_market_cap`'s."""
    for key in ("doc_id", "company", "industry"):
        if key not in data:
            raise DocumentError(f"{path}: missing field {key!r}")
    return DocumentFields(
        str(data["doc_id"]), str(data["company"]), str(data["industry"]), _market_cap(data, path)
    )


def _parse_layout_json(data: dict, path: Path) -> StructuredDocument:
    known = {"doc_id", "company", "industry", "market_cap_mhkd", "elements"}
    unknown = set(data) - known
    if unknown:
        raise DocumentError(f"{path}: unknown top-level fields {sorted(unknown)}")
    fields = _fields(data, path)
    if not isinstance(data["elements"], list):
        raise DocumentError(f"{path}: elements must be an array")
    elements = [_parse_element(e, i) for i, e in enumerate(data["elements"])]
    return document_from_elements(*fields, elements=elements)


def _node_to_json(node: OutlineNode) -> dict:
    return {
        "title": node.title,
        "level": node.level,
        "span": list(node.span),
        "children": [_node_to_json(c) for c in node.children],
    }


def _node_from_json(obj: dict) -> OutlineNode:
    span = obj["span"]
    where = f"outline node {obj['title']!r}"
    return OutlineNode(
        title=obj["title"],
        level=_integer(obj["level"], f"{where}: level"),
        span=(_integer(span[0], f"{where}: span"), _integer(span[1], f"{where}: span")),
        children=[_node_from_json(c) for c in obj.get("children", [])],
    )


def serialize(doc: StructuredDocument) -> str:
    """Structured-document JSON; `ingest` reads it back identically."""
    payload = {
        "format": STRUCTURED_FORMAT,
        "version": STRUCTURED_VERSION,
        "doc_id": doc.doc_id,
        "company": doc.company,
        "industry": doc.industry,
        "market_cap_mhkd": doc.market_cap_mhkd,
        "outline": _node_to_json(doc.outline),
        "blocks": [{"text": b.text, "page": b.page} for b in doc.blocks],
        "tables": [
            {
                "table_id": t.table_id,
                "n_rows": t.n_rows,
                "n_cols": t.n_cols,
                "cells": t.cells,
                "header_row_count": t.header_row_count,
            }
            for t in doc.tables
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _parse_structured_json(data: dict, path: Path) -> StructuredDocument:
    fields = _fields(data, path)
    try:
        doc = StructuredDocument(
            *fields,
            outline=_node_from_json(data["outline"]),
            blocks=[
                Block(text=b["text"], page=_integer(b["page"], f"block {i}: page"))
                for i, b in enumerate(data["blocks"])
            ],
            tables=[
                Table(
                    table_id=t["table_id"],
                    n_rows=_integer(t["n_rows"], f"table {t['table_id']!r}: n_rows"),
                    n_cols=_integer(t["n_cols"], f"table {t['table_id']!r}: n_cols"),
                    cells=[[str(c) for c in row] for row in t["cells"]],
                    header_row_count=_integer(
                        t["header_row_count"], f"table {t['table_id']!r}: header_row_count"
                    ),
                )
                for t in data["tables"]
            ],
        )
    except (LookupError, TypeError, ValueError) as exc:
        raise DocumentError(f"{path}: malformed structured document: {exc}") from exc
    validate_document(doc)
    return doc


# --- markdown / plain-text fallback ---

_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_TABLE_SEP_RE = re.compile(r"^\s*:?-+:?\s*$")


def _split_pipe_row(line: str) -> list[str]:
    parts = line.strip().strip("|").split("|")
    return [p.strip() for p in parts]


def _parse_markdown(text: str, doc_id: str) -> StructuredDocument:
    outline: list[tuple[int, str] | None] = []  # `_outline`'s headings and paragraphs
    blocks: list[Block] = []
    tables: list[Table] = []
    paragraph: list[str] = []

    def flush_paragraph() -> None:
        if paragraph:
            outline.append(None)
            blocks.append(Block(text=" ".join(paragraph), page=1))
            paragraph.clear()

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        heading = _HEADING_RE.match(line)
        if heading:
            flush_paragraph()
            outline.append((len(heading.group(1)), heading.group(2).strip()))
            i += 1
        elif line.lstrip().startswith("|"):
            flush_paragraph()
            rows: list[list[str]] = []
            header_rows = 0
            while i < len(lines) and lines[i].lstrip().startswith("|"):
                cells = _split_pipe_row(lines[i])
                if all(_TABLE_SEP_RE.match(c) for c in cells):
                    header_rows = len(rows)
                else:
                    rows.append(cells)
                i += 1
            if not rows:
                continue
            width = max(len(r) for r in rows)
            grid = [r + [""] * (width - len(r)) for r in rows]
            table = Table(
                table_id=f"md-{len(tables) + 1}",
                n_rows=len(grid),
                n_cols=width,
                cells=grid,
                header_row_count=header_rows,
            )
            table.validate()
            tables.append(table)
        elif not line.strip():
            flush_paragraph()
            i += 1
        else:
            paragraph.append(line.strip())
            i += 1
    flush_paragraph()

    # No layout metadata in markdown input; identify the company by the
    # document id and leave the industry blank.
    doc = StructuredDocument(
        doc_id=doc_id,
        company=doc_id,
        industry="",
        market_cap_mhkd=None,
        outline=_outline(outline),
        blocks=blocks,
        tables=tables,
    )
    validate_document(doc)
    return doc


def name_doc_id(path: str | Path, text: str) -> str | None:
    """The doc_id `ingest` gives a file from its name: markdown and plain
    text carry none of their own. None for JSON, which declares its own:
    a `.json` file, or another whose text starts with `{`."""
    path = Path(path)
    return None if path.suffix.lower() == ".json" or text.lstrip().startswith("{") else path.stem


def _decoded(path: Path) -> tuple[str, str] | dict:
    """The front half of `ingest`: (text, doc_id from the file name) for
    markdown and plain text, else the JSON object of a known shape, a
    structured document of this version or a layout-element file."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        raise DocumentError(f"{path}: empty document")

    named = name_doc_id(path, text)
    if named is not None:
        return text, named
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DocumentError(f"{path}: expected a JSON object")
    if data.get("format") == STRUCTURED_FORMAT:
        if data.get("version") != STRUCTURED_VERSION:
            raise DocumentError(
                f"{path}: unsupported structured-document version {data.get('version')!r}"
            )
        return data
    if "elements" in data:
        return data
    raise DocumentError(
        f"{path}: JSON is neither a layout-element file (no 'elements') nor a "
        f"structured document (no 'format')"
    )


def ingest(path: str | Path) -> StructuredDocument:
    """Read one document file in any supported shape (see module doc)."""
    path = Path(path)
    decoded = _decoded(path)
    if isinstance(decoded, tuple):
        return _parse_markdown(*decoded)
    if decoded.get("format") == STRUCTURED_FORMAT:
        return _parse_structured_json(decoded, path)
    return _parse_layout_json(decoded, path)


def read_fields(path: str | Path) -> DocumentFields:
    """A document file's top-level fields by `ingest`'s rules, without
    reading its body: a JSON file's are `_fields`'; markdown and plain
    text have the doc_id `ingest` gives them, which is their company
    too, an empty industry and no market cap. A file that `ingest`
    rejects for its body alone (elements, outline, blocks or tables, or
    an unknown top-level field) passes."""
    path = Path(path)
    decoded = _decoded(path)
    if isinstance(decoded, tuple):
        doc_id = decoded[1]
        return DocumentFields(doc_id, doc_id, "", None)
    return _fields(decoded, path)
