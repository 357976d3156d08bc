"""Structured-document model and ingestion.

A document enters the pipeline as one of three on-disk shapes, whose
fields README's "Input files" table lists:

1. Layout-element interchange JSON: ``{"doc_id", "company", "industry",
   "market_cap_mhkd"?, "elements": [...]}`` where each element carries
   exactly the fields of `LayoutElement`.
2. Structured-document JSON (the output of `serialize`), recognized by
   ``"format": "structured_document"``.
3. Markdown or plain text: ``#``-style headings become outline nodes,
   pipe tables become tables, blank-line-separated paragraphs become
   blocks.

Both JSON shapes are read through the typed readers of `_read`, so a
malformed file is a DocumentError naming its key path. `read_fields`
reads a file's top-level fields by the same rules as `ingest`, without
its body.

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
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import _read
from .errors import DocumentError, TableStructureError

logger = logging.getLogger(__name__)

STRUCTURED_FORMAT = "structured_document"
STRUCTURED_VERSION = 1

# Vertical (or horizontal) bbox overlap required for two cells to share
# a row (or column), as a fraction of the smaller extent.
CLUSTER_OVERLAP = 0.5
MAX_TABLE_CELLS = 1 << 20  # per reconstructed grid, whose size a file's explicit row and col set


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
    if n_rows * n_cols > MAX_TABLE_CELLS:
        raise TableStructureError(f"table {table_id!r} has a grid of over {MAX_TABLE_CELLS} cells")
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
    _read.file_name(doc.doc_id, ("document", "doc_id"), DocumentError)
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
_TOP_REQUIRED = frozenset({"doc_id", "company", "industry"})
_LAYOUT_FIELDS = _TOP_REQUIRED | {"market_cap_mhkd", "elements"}
_STRUCTURED_REQUIRED = _TOP_REQUIRED | {"format", "version", "outline", "blocks", "tables"}
_STRUCTURED_FIELDS = _STRUCTURED_REQUIRED | {"market_cap_mhkd"}
_NODE_REQUIRED = frozenset({"title", "level", "span"})
_NODE_FIELDS = _NODE_REQUIRED | {"children"}
_BLOCK_FIELDS = frozenset({"text", "page"})
_TABLE_FIELDS = frozenset({"table_id", "n_rows", "n_cols", "cells", "header_row_count"})


def _parse_element(value: object, path: Path, pos: int) -> LayoutElement:
    """Element `pos` of a layout file; only a TableCell has a table_id."""
    at, E = (path, "elements", pos), DocumentError
    obj = _read.obj(value, at, E, _ELEMENT_FIELDS, _ELEMENT_REQUIRED)
    kind = _read.choice(obj["kind"], (path, "elements", pos, "kind"), E, ElementKind)
    x0, y0, x1, y1 = _read.array(obj["bbox"], (path, "elements", pos, "bbox"), E, 4)
    bbox = (
        _read.number(x0, (path, "elements", pos, "bbox", 0), E),
        _read.number(y0, (path, "elements", pos, "bbox", 1), E),
        _read.number(x1, (path, "elements", pos, "bbox", 2), E),
        _read.number(y1, (path, "elements", pos, "bbox", 3), E),
    )
    if not (bbox[0] < bbox[2] and bbox[1] < bbox[3]):
        raise E(f"{_read.path(at)}: degenerate bbox {bbox!r}")
    table_id, row, col = obj.get("table_id"), obj.get("row"), obj.get("col")
    if table_id is not None:
        table_id = _read.text(table_id, (path, "elements", pos, "table_id"), E)
    if kind is ElementKind.TABLE_CELL and not table_id:
        raise E(f"{_read.path(at)}: TableCell element requires table_id")
    if kind is not ElementKind.TABLE_CELL and table_id is not None:
        raise E(f"{_read.path(at)}: {kind.value} element must not carry table_id")
    return LayoutElement(
        kind,
        _read.text(obj["text"], (path, "elements", pos, "text"), E),
        _read.integer(obj["page"], (path, "elements", pos, "page"), E, 1),
        bbox,
        _read.number(obj["font_size"], (path, "elements", pos, "font_size"), E, 0, strict=True),
        table_id,
        None if row is None else _read.integer(row, (path, "elements", pos, "row"), E, 0),
        None if col is None else _read.integer(col, (path, "elements", pos, "col"), E, 0),
    )


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


class DocumentFields(NamedTuple):
    """A document's top-level fields: all that `analyze` reads of it."""

    doc_id: str
    company: str
    industry: str
    market_cap_mhkd: float | None


def _fields(data: dict, path: Path) -> DocumentFields:
    """The top-level fields of either JSON shape; the doc_id names the
    document's output files, so it must be a file name."""
    _read.obj(data, (path,), DocumentError, None, _TOP_REQUIRED)
    cap = data.get("market_cap_mhkd")
    if cap is not None:
        cap = _read.number(cap, (path, "market_cap_mhkd"), DocumentError, 0, strict=True)
    return DocumentFields(
        _read.file_name(data["doc_id"], (path, "doc_id"), DocumentError),
        _read.text(data["company"], (path, "company"), DocumentError),
        _read.text(data["industry"], (path, "industry"), DocumentError),
        cap,
    )


def _parse_layout_json(data: dict, path: Path) -> StructuredDocument:
    fields = _fields(data, path)
    _read.obj(data, (path,), DocumentError, _LAYOUT_FIELDS)
    elements = _read.array(data["elements"], (path, "elements"), DocumentError)
    return document_from_elements(
        *fields, elements=[_parse_element(e, path, i) for i, e in enumerate(elements)]
    )


def _node_to_json(node: OutlineNode) -> dict:
    return {
        "title": node.title,
        "level": node.level,
        "span": list(node.span),
        "children": [_node_to_json(c) for c in node.children],
    }


def _node_from_json(value: object, where: tuple) -> OutlineNode:
    E = DocumentError
    node = _read.obj(value, where, E, _NODE_FIELDS, _NODE_REQUIRED)
    children = _read.array(node.get("children", []), (*where, "children"), E)
    return OutlineNode(
        title=_read.text(node["title"], (*where, "title"), E),
        level=_read.integer(node["level"], (*where, "level"), E),
        span=tuple(
            _read.integer(n, (*where, "span"), E)
            for n in _read.array(node["span"], (*where, "span"), E, 2)
        ),
        children=[_node_from_json(c, (*where, "children", i)) for i, c in enumerate(children)],
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
    E = DocumentError
    fields = _fields(data, path)
    _read.obj(data, (path,), E, _STRUCTURED_FIELDS, _STRUCTURED_REQUIRED)
    blocks = []
    for i, value in enumerate(_read.array(data["blocks"], (path, "blocks"), E)):
        block = _read.obj(value, (path, "blocks", i), E, _BLOCK_FIELDS, _BLOCK_FIELDS)
        blocks.append(Block(
            _read.text(block["text"], (path, "blocks", i, "text"), E),
            _read.integer(block["page"], (path, "blocks", i, "page"), E),
        ))
    tables = []
    for i, value in enumerate(_read.array(data["tables"], (path, "tables"), E)):
        at = (path, "tables", i)
        table = _read.obj(value, at, E, _TABLE_FIELDS, _TABLE_FIELDS)
        rows = _read.array(table["cells"], (*at, "cells"), E)
        tables.append(Table(
            _read.text(table["table_id"], (*at, "table_id"), E),
            _read.integer(table["n_rows"], (*at, "n_rows"), E),
            _read.integer(table["n_cols"], (*at, "n_cols"), E),
            [_read.texts(row, (*at, "cells", r), E) for r, row in enumerate(rows)],
            _read.integer(table["header_row_count"], (*at, "header_row_count"), E),
        ))
    outline = _node_from_json(data["outline"], (path, "outline"))
    doc = StructuredDocument(*fields, outline=outline, blocks=blocks, tables=tables)
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
        return text, _read.file_name(named, (path, "doc_id"), DocumentError)
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
