"""Document structure: outline building, table reconstruction, ingest formats."""

import json
import random
import re
import sys

import pytest

from esgpipe.docmodel import (
    MAX_TABLE_CELLS,
    Block,
    ElementKind,
    LayoutElement,
    OutlineNode,
    StructuredDocument,
    Table,
    build_outline,
    document_from_elements,
    flatten_block_order,
    ingest,
    iter_nodes,
    read_fields,
    outline_paths,
    reconstruct_table,
    render_table,
    serialize,
    validate_document,
)
from esgpipe.errors import DocumentError, TableStructureError

from tests import corpusgen


def header(text, size, y, page=1):
    return LayoutElement(
        kind=ElementKind.HEADER, text=text, page=page,
        bbox=(50.0, y, 550.0, y + size), font_size=size,
    )


def para(text, y, page=1):
    return LayoutElement(
        kind=ElementKind.PARAGRAPH, text=text, page=page,
        bbox=(50.0, y, 550.0, y + 12.0), font_size=10.0,
    )


def cell(text, x0, y0, x1, y1, table_id="t1", row=None, col=None, page=1):
    return LayoutElement(
        kind=ElementKind.TABLE_CELL, text=text, page=page,
        bbox=(x0, y0, x1, y1), font_size=9.0,
        table_id=table_id, row=row, col=col,
    )


# --- outline ---


def test_outline_levels_follow_font_size_rank():
    # sizes 20, 14, 14, 20 in reading order: the first large header gets
    # both medium headers as children, the trailing large one is its sibling
    elements = [
        header("One", 20.0, 10),
        para("p0", 30),
        header("One A", 14.0, 50),
        para("p1", 70),
        header("One B", 14.0, 90),
        para("p2", 110),
        header("Two", 20.0, 130),
        para("p3", 150),
    ]
    root = build_outline(elements)
    assert [c.title for c in root.children] == ["One", "Two"]
    one, two = root.children
    assert [c.title for c in one.children] == ["One A", "One B"]
    assert one.level == two.level == 1
    assert {c.level for c in one.children} == {2}
    assert one.children[0].span == (1, 2)
    assert one.children[1].span == (2, 3)
    assert two.span == (3, 4)


def test_outline_descending_size_order_nests():
    elements = [
        header("Top", 20.0, 10),
        header("Mid", 14.0, 30),
        header("Top again", 20.0, 50),
        header("Mid again", 14.0, 70),
        para("p0", 90),
    ]
    root = build_outline(elements)
    assert [c.title for c in root.children] == ["Top", "Top again"]
    assert [c.title for c in root.children[1].children] == ["Mid again"]


def test_paragraphs_before_any_header_attach_to_root():
    elements = [para("pre", 10), header("H", 20.0, 30), para("body", 50)]
    root = build_outline(elements)
    assert root.span == (0, 1)
    assert root.children[0].span == (1, 2)


def test_outline_paths_join_titles():
    elements = [
        header("Report", 20.0, 10),
        header("Emissions", 14.0, 30),
        para("p", 50),
    ]
    root = build_outline(elements)
    paths = [p for p, _ in outline_paths(root)]
    assert paths == ["Report", "Report / Emissions"]


def test_iter_nodes_preorder():
    elements = [
        header("A", 20.0, 10),
        header("A1", 14.0, 30),
        header("B", 20.0, 50),
        para("p", 70),
    ]
    root = build_outline(elements)
    titles = [n.title for n in iter_nodes(root, include_root=False)]
    assert titles == ["A", "A1", "B"]


# --- table reconstruction ---


def test_reconstruct_from_explicit_positions():
    cells = [
        cell("Metric", 0, 0, 100, 10, row=0, col=0),
        cell("2024", 110, 0, 200, 10, row=0, col=1),
        cell("Energy", 0, 20, 100, 30, row=1, col=0),
        cell("12.5", 110, 20, 200, 30, row=1, col=1),
    ]
    table = reconstruct_table(cells)
    assert table.cells == [["Metric", "2024"], ["Energy", "12.5"]]
    assert table.n_rows == 2 and table.n_cols == 2
    # "2024" carries digits, so the digit-free header heuristic finds none
    assert table.header_row_count == 0


def test_reconstruct_geometric_clustering():
    # no explicit coordinates anywhere: rows from y overlap, cols from x
    cells = [
        cell("h1", 0, 0, 90, 10),
        cell("h2", 100, 1, 190, 11),  # slightly jittered, still row 0
        cell("a", 2, 20, 88, 30),
        cell("b", 101, 21, 189, 31),
    ]
    table = reconstruct_table(cells)
    assert table.cells == [["h1", "h2"], ["a", "b"]]


def test_reconstruct_geometric_ragged_gap():
    # a missing cell leaves an empty string at its grid position
    cells = [
        cell("h1", 0, 0, 90, 10),
        cell("h2", 100, 0, 190, 10),
        cell("only-right", 100, 20, 190, 30),
    ]
    table = reconstruct_table(cells)
    assert table.cells == [["h1", "h2"], ["", "only-right"]]


def test_reconstruct_duplicate_position_names_coordinates():
    cells = [
        cell("x", 0, 0, 90, 10, row=1, col=2),
        cell("y", 100, 0, 190, 10, row=1, col=2),
    ]
    with pytest.raises(TableStructureError, match=r"\(1, 2\)"):
        reconstruct_table(cells)


def test_reconstruct_rejects_empty_and_mixed_tables():
    with pytest.raises(TableStructureError):
        reconstruct_table([])
    mixed = [cell("a", 0, 0, 10, 10, table_id="t1"), cell("b", 0, 20, 10, 30, table_id="t2")]
    with pytest.raises(TableStructureError, match="multiple table_ids"):
        reconstruct_table(mixed)


def test_header_heuristic_stops_at_first_digit_row():
    cells = [
        cell("Category", 0, 0, 90, 10, row=0, col=0),
        cell("Notes", 100, 0, 190, 10, row=0, col=1),
        cell("Units", 0, 20, 90, 30, row=1, col=0),
        cell("Comment", 100, 20, 190, 30, row=1, col=1),
        cell("Water", 0, 40, 90, 50, row=2, col=0),
        cell("88", 100, 40, 190, 50, row=2, col=1),
    ]
    assert reconstruct_table(cells).header_row_count == 2
    assert reconstruct_table(cells, header_row_count=0).header_row_count == 0


def test_geometric_reconstruction_survives_bbox_jitter():
    # property: small jitter never changes the recovered grid
    rng = random.Random(77)
    for _ in range(50):
        n_rows = rng.randint(2, 5)
        n_cols = rng.randint(2, 4)
        cells = []
        for r in range(n_rows):
            for c in range(n_cols):
                jx = rng.uniform(-3, 3)
                jy = rng.uniform(-3, 3)
                x0 = c * 120 + jx
                y0 = r * 40 + jy
                cells.append(cell(f"r{r}c{c}", x0, y0, x0 + 100, y0 + 20))
        rng.shuffle(cells)
        table = reconstruct_table(cells)
        assert table.n_rows == n_rows and table.n_cols == n_cols
        for r in range(n_rows):
            for c in range(n_cols):
                assert table.cells[r][c] == f"r{r}c{c}"


def test_render_table_pipe_layout():
    table = Table(
        table_id="t", n_rows=2, n_cols=2,
        cells=[["Metric", "2022"], ["Scope 1", "12.5"]],
        header_row_count=1,
    )
    assert render_table(table) == "Metric | 2022\nScope 1 | 12.5"


# --- document assembly and validation ---


def _tiny_document() -> StructuredDocument:
    elements = [
        header("Report", 20.0, 10),
        para("Intro paragraph.", 30),
        header("Detail", 14.0, 50),
        para("Detail paragraph.", 70),
        cell("Metric", 0, 90, 90, 100, row=0, col=0),
        cell("Value", 100, 90, 190, 100, row=0, col=1),
        cell("Water", 0, 110, 90, 120, row=1, col=0),
        cell("7", 100, 110, 190, 120, row=1, col=1),
    ]
    return document_from_elements("tiny", "Tiny Co", "Utilities", 250.0, elements)


def test_document_from_elements_sorts_reading_order():
    doc = _tiny_document()
    assert [b.text for b in doc.blocks] == ["Intro paragraph.", "Detail paragraph."]
    assert len(doc.tables) == 1
    assert flatten_block_order(doc.outline) == [0, 1]
    validate_document(doc)


def test_validate_rejects_span_out_of_range():
    doc = _tiny_document()
    doc.outline.children[0].span = (0, 99)
    with pytest.raises(DocumentError, match="out of range"):
        validate_document(doc)


def test_validate_rejects_double_covered_block():
    # parent span widened over a child's blocks counts those blocks twice
    doc = _tiny_document()
    doc.outline.children[0].span = (0, 2)
    with pytest.raises(DocumentError, match="exactly once"):
        validate_document(doc)


def test_validate_rejects_sibling_overlap():
    doc = _tiny_document()
    node = doc.outline.children[0]
    node.children.append(OutlineNode(title="Extra", level=3, span=(0, 1)))
    with pytest.raises(DocumentError, match="overlap"):
        validate_document(doc)


def test_validate_rejects_duplicate_table_ids():
    doc = _tiny_document()
    doc.tables.append(doc.tables[0])
    with pytest.raises(DocumentError, match="duplicate table_id"):
        validate_document(doc)


# --- persistence and ingest ---


def test_serialize_ingest_round_trip(tmp_path):
    doc = _tiny_document()
    path = tmp_path / "tiny.json"
    path.write_text(serialize(doc), encoding="utf-8")
    again = ingest(path)
    assert again == doc
    # stable bytes on re-save
    assert serialize(again) == serialize(doc)


def test_ingest_layout_json(tmp_path, fixture_root):
    doc = ingest(fixture_root / "corpus" / "doc00.json")
    assert doc.doc_id == "doc00"
    assert doc.industry == "Utilities"
    assert len(doc.tables) == 3
    validate_document(doc)


def test_ingest_layout_json_rejects_unknown_fields(tmp_path):
    payload = {
        "doc_id": "x", "company": "X", "industry": "", "elements": [],
        "mystery": 1,
    }
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DocumentError, match="mystery"):
        ingest(path)


_KINDS = "['Header', 'Paragraph', 'TableCell']"
_GOOD_ELEMENT = {
    "kind": "Paragraph", "text": "Body.", "page": 1,
    "bbox": [50, 0, 550, 12], "font_size": 10,
}
_GOOD_CELL = {**_GOOD_ELEMENT, "kind": "TableCell", "table_id": "t1", "row": 0, "col": 0}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _was(n, message):
    """The id this case had when its message was `message`: the name of
    the test stays as it was."""
    return f"element{n}-{message}"


def _message_id(value):
    """A message's part of a test id, without the separator that joins it
    to the key path; None, for an element, keeps pytest's own id."""
    if isinstance(value, str):
        return value.lstrip(".:").removeprefix(" has ").removeprefix(" is ").strip()
    return None


@pytest.mark.parametrize(
    "element, message",
    [
        pytest.param(["Paragraph"], " must be an object, got ['Paragraph']",
                     id=_was(0, "expected an object")),
        ({**_GOOD_ELEMENT, "zzz": 1}, " has unknown fields ['zzz']"),
        (_without(_GOOD_ELEMENT, "font_size"), " is missing fields ['font_size']"),
        pytest.param({**_GOOD_ELEMENT, "kind": "Footer"},
                     f".kind must be one of {_KINDS}, got 'Footer'",
                     id=_was(3, f"unknown kind 'Footer'; expected one of {_KINDS}")),
        pytest.param({**_GOOD_ELEMENT, "kind": ["Header"]},
                     f".kind must be one of {_KINDS}, got ['Header']",
                     id=_was(4, f"unknown kind ['Header']; expected one of {_KINDS}")),
        pytest.param({**_GOOD_ELEMENT, "bbox": [0, 0, 1]},
                     ".bbox must be an array of 4, got [0, 0, 1]",
                     id=_was(5, "bbox must be a 4-number array")),
        pytest.param({**_GOOD_ELEMENT, "bbox": "0,0,1,1"},
                     ".bbox must be an array of 4, got '0,0,1,1'",
                     id=_was(6, "bbox must be a 4-number array")),
        ({**_GOOD_ELEMENT, "bbox": [10, 0, 5, 1]}, ": degenerate bbox (10.0, 0.0, 5.0, 1.0)"),
        pytest.param({**_GOOD_ELEMENT, "bbox": [float("nan"), 0, 1, 1]},
                     ".bbox[0] must be finite, got nan",
                     id=_was(8, "degenerate bbox (nan, 0.0, 1.0, 1.0)")),
        pytest.param({**_GOOD_ELEMENT, "page": 0}, ".page must be >= 1, got 0",
                     id=_was(9, "element page must be >= 1, got 0")),
        pytest.param({**_GOOD_ELEMENT, "font_size": 0}, ".font_size must be > 0 and finite, got 0.0",
                     id=_was(10, "font_size must be positive and finite, got 0.0")),
        pytest.param({**_GOOD_ELEMENT, "font_size": -1.5},
                     ".font_size must be > 0 and finite, got -1.5",
                     id=_was(11, "font_size must be positive and finite, got -1.5")),
        (_without(_GOOD_CELL, "table_id"), ": TableCell element requires table_id"),
        ({**_GOOD_ELEMENT, "table_id": "t1"}, ": Paragraph element must not carry table_id"),
        pytest.param({**_GOOD_CELL, "row": -1}, ".row must be >= 0, got -1",
                     id=_was(14, "element row must be >= 0, got -1")),
        pytest.param({**_GOOD_CELL, "col": -2}, ".col must be >= 0, got -2",
                     id=_was(15, "element col must be >= 0, got -2")),
        # numbers that are not numbers of the right kind
        ({**_GOOD_ELEMENT, "page": "x"}, ".page must be an integer, got 'x'"),
        ({**_GOOD_ELEMENT, "page": True}, ".page must be an integer, got True"),
        ({**_GOOD_ELEMENT, "page": 1.7}, ".page must be an integer, got 1.7"),
        pytest.param({**_GOOD_ELEMENT, "bbox": ["a", 0, 1, 1]},
                     ".bbox[0] must be a number, got 'a'",
                     id=_was(19, "bbox must be a 4-number array")),
        pytest.param({**_GOOD_ELEMENT, "bbox": [0, 0, True, 1]},
                     ".bbox[2] must be a number, got True",
                     id=_was(20, "bbox must be a 4-number array")),
        ({**_GOOD_ELEMENT, "font_size": None}, ".font_size must be a number, got None"),
        ({**_GOOD_CELL, "row": "z"}, ".row must be an integer, got 'z'"),
        ({**_GOOD_CELL, "col": 0.5}, ".col must be an integer, got 0.5"),
        # a table_id that is not a string, which a cold KB build cannot resolve
        ({**_GOOD_CELL, "table_id": 5}, ".table_id must be a string, got 5"),
        # non-finite font sizes, which json.loads reads from NaN and Infinity
        *(
            pytest.param({**_GOOD_ELEMENT, "font_size": float(x)},
                         f".font_size must be > 0 and finite, got {x}",
                         id=_was(n, f"font_size must be positive and finite, got {x}"))
            for n, x in ((25, "nan"), (26, "inf"), (27, "-inf"))
        ),
        # integers too large for a float, which json.loads reads whole
        ({**_GOOD_ELEMENT, "font_size": 10**400}, ".font_size holds a number too large for a float"),
        pytest.param({**_GOOD_ELEMENT, "bbox": [0, 0, 10**400, 1]},
                     ".bbox[2] holds a number too large for a float",
                     id=_was(29, "bbox holds a number too large for a float")),
        # a text that is not a string, once taken through str()
        ({**_GOOD_ELEMENT, "text": 5}, ".text must be a string, got 5"),
        # an infinite coordinate, once taken
        ({**_GOOD_ELEMENT, "bbox": [0, 0, float("inf"), 1]}, ".bbox[2] must be finite, got inf"),
    ],
    ids=_message_id,
)
def test_ingest_layout_json_rejects_malformed_elements(tmp_path, element, message):
    """Each message is the file, the element's key path and `message`."""
    payload = {
        "doc_id": "x", "company": "X", "industry": "",
        "elements": [_GOOD_ELEMENT, element],
    }
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DocumentError) as caught:
        ingest(path)
    assert str(caught.value) == f"{path}: elements[1]{message}"


def test_ingest_layout_json_rejects_a_table_too_large_to_hold(tmp_path):
    """A row or col far past any real table once made its grid, rows of
    empty strings until memory or time ran out."""
    for key in ("row", "col"):
        payload = {"doc_id": "x", "company": "X", "industry": "",
                   "elements": [_GOOD_ELEMENT, {**_GOOD_CELL, key: 10**400}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(TableStructureError, match=f"over {MAX_TABLE_CELLS} cells"):
            ingest(path)


# Where each integer field of structured-document JSON sits in the
# tiny document's JSON: the object or array that holds it, and its key.
_STRUCTURED_INTEGERS = {
    "page": lambda d: (d["blocks"][0], "page"),
    "n_rows": lambda d: (d["tables"][0], "n_rows"),
    "n_cols": lambda d: (d["tables"][0], "n_cols"),
    "header_row_count": lambda d: (d["tables"][0], "header_row_count"),
    "level": lambda d: (d["outline"]["children"][0], "level"),
    "span": lambda d: (d["outline"]["children"][0]["span"], 1),
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("page", "1"), ("page", True), ("page", 1.9),
        ("n_rows", "2"), ("n_rows", 2.9),
        ("n_cols", "2"), ("n_cols", 2.9),
        ("header_row_count", "1"), ("header_row_count", True), ("header_row_count", 1.9),
        ("level", "1"), ("level", True), ("level", 1.9),
        ("span", "1"), ("span", True), ("span", 1.9),
    ],
)
def test_ingest_structured_json_rejects_non_integral_numbers(tmp_path, field, value):
    """An integer field given as a string, a boolean or a non-integral
    number is rejected, not read through int() as the number it stands for."""
    payload = json.loads(serialize(_tiny_document()))
    holder, key = _STRUCTURED_INTEGERS[field](payload)
    assert holder[key] == int(float(value))
    holder[key] = value
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DocumentError) as caught:
        ingest(path)
    assert f"{field} must be an integer, got {value!r}" in str(caught.value)


def test_ingest_structured_json_rejects_a_one_number_span(tmp_path):
    payload = json.loads(serialize(_tiny_document()))
    payload["outline"]["children"][0]["span"] = [0]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DocumentError, match=re.escape("outline.children[0].span must be an array of 2")):
        ingest(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(extra=1), " has unknown fields ['extra']"),
        (lambda d: d["tables"][0]["cells"][1].__setitem__(0, 5),
         ": tables[0].cells[1] must be an array of strings, got [5, "),
        (lambda d: d["outline"]["children"][0].update(title=None),
         ": outline.children[0].title must be a string, got None"),
        (lambda d: d["blocks"][0].update(text={}), ": blocks[0].text must be a string, got {}"),
        (lambda d: d.update(blocks={}), ": blocks must be an array, got {}"),
        (lambda d: d["blocks"][0].update(note="x"), ": blocks[0] has unknown fields ['note']"),
        (lambda d: d["tables"][0].update(note="x"), ": tables[0] has unknown fields ['note']"),
        (lambda d: d["outline"]["children"][0].update(note="x"),
         ": outline.children[0] has unknown fields ['note']"),
    ],
)
def test_ingest_structured_json_rejects_fields_of_the_wrong_type(tmp_path, edit, message):
    """Each once taken through str(), left unchecked, or read as a
    KeyError or TypeError that the parser turned into one message."""
    payload = json.loads(serialize(_tiny_document()))
    edit(payload)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DocumentError) as caught:
        ingest(path)
    assert str(caught.value).startswith(f"{path}{message}")


def test_a_file_name_that_gives_no_safe_doc_id_is_rejected(tmp_path):
    path = tmp_path / "...md"  # its stem is ".."
    path.write_text("# Emissions\n\nBody.\n", encoding="utf-8")
    for read in (ingest, read_fields):
        with pytest.raises(DocumentError, match="doc_id must be a file name"):
            read(path)


_ABSENT = object()


def _doc_with_market_cap(tmp_path, shape, cap):
    """A one-paragraph document file of `shape`, "layout" or
    "structured", whose market_cap_mhkd is `cap` (left out if _ABSENT)."""
    payload = {"doc_id": "x", "company": "X", "industry": "", "elements": [_GOOD_ELEMENT]}
    if shape == "structured":
        doc = document_from_elements("x", "X", "", None, [para("Body.", 0)])
        payload = json.loads(serialize(doc))
        del payload["market_cap_mhkd"]
    if cap is not _ABSENT:
        payload["market_cap_mhkd"] = cap
    path = tmp_path / f"{shape}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")  # NaN and Infinity as bare tokens
    return path


@pytest.mark.parametrize(
    "cap",
    [
        "n/a", "12.5", True, [1], "12", "NaN", "Infinity",
        0, 0.0, -5, float("nan"), float("inf"), float("-inf"),
        pytest.param(10**400, id="10**400"),
    ],
)
def test_ingest_layout_json_rejects_non_number_market_cap(tmp_path, cap):
    """In either JSON shape, a market cap that is not a JSON number, or
    one that is not finite and above 0, skips the file."""
    if type(cap) not in (int, float):
        want = f"must be a number, got {cap!r}"
    elif type(cap) is int and abs(cap) > sys.float_info.max:
        want = "holds a number too large for a float"
    else:
        want = f"must be > 0 and finite, got {float(cap)!r}"
    for shape in ("layout", "structured"):
        path = _doc_with_market_cap(tmp_path, shape, cap)
        for read in (ingest, read_fields):
            with pytest.raises(DocumentError) as caught:
                read(path)
            assert str(caught.value) == f"{path}: market_cap_mhkd {want}"


@pytest.mark.parametrize(
    "cap, want",
    [pytest.param(_ABSENT, None, id="absent"), (None, None), (12, 12.0), (0.5, 0.5), (1e308, 1e308)],
)
def test_ingest_takes_a_market_cap_null_absent_or_finite_above_0(tmp_path, cap, want):
    for shape in ("layout", "structured"):
        path = _doc_with_market_cap(tmp_path, shape, cap)
        for doc in (ingest(path), read_fields(path)):
            assert doc.market_cap_mhkd == want and type(doc.market_cap_mhkd) is type(want)


def _ingest_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return ingest(path)


def _fields_of(doc):
    return (doc.doc_id, doc.company, doc.industry, doc.market_cap_mhkd)


def test_read_fields_are_the_fields_ingest_gives(tmp_path):
    """Both JSON shapes, markdown and plain text; a number in a text
    field, once taken with str(), is rejected by both."""
    files = {f"layout{i}.json": json.dumps(corpusgen.build_layout_json(i)) for i in (0, 9)}
    files["structured.json"] = serialize(_ingest_text(tmp_path, "x.json", files["layout0.json"]))
    files["notes.md"] = "# Emissions\n\n| a | b |\n|---|---|\n| 1 | 2 |\n"
    files["memo.txt"] = "  A plain memo.\n"
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert read_fields(path) == _fields_of(ingest(path)), name
    assert read_fields(tmp_path / "memo.txt") == ("memo", "memo", "", None)
    for key, value in (("doc_id", 7), ("company", 1.5), ("industry", False)):
        path = tmp_path / "numbered.json"
        path.write_text(json.dumps({**corpusgen.build_layout_json(3), key: value}), "utf-8")
        for read in (ingest, read_fields):
            with pytest.raises(DocumentError, match=re.escape(f"{key} must be a")):
                read(path)


@pytest.mark.parametrize(
    "text",
    [
        "",
        " \n",
        "{",
        '{"doc_id": "x", "company": "X", "industry": ""}',
        '{"format": "structured_document", "version": 2, "doc_id": "x"}',
        '{"doc_id": "x", "industry": "", "elements": []}',
        '{"format": "structured_document", "version": 1, "doc_id": "x", "company": "X"}',
    ],
)
def test_read_fields_rejects_what_ingest_rejects_before_the_body(tmp_path, text):
    path = tmp_path / "x.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DocumentError) as by_ingest:
        ingest(path)
    with pytest.raises(DocumentError) as by_read:
        read_fields(path)
    assert str(by_read.value) == str(by_ingest.value)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(elements=[{"kind": "Bogus"}]),
        lambda d: d.update(elements="none"),
        lambda d: d.update(surprise=1),
        lambda d: d["elements"].clear(),
    ],
    ids=["bad element", "elements not an array", "unknown top-level field", "no body"],
)
def test_read_fields_passes_a_body_that_ingest_rejects(tmp_path, mutate):
    layout = corpusgen.build_layout_json(0)
    mutate(layout)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(layout), encoding="utf-8")
    with pytest.raises(DocumentError):
        ingest(path)
    assert read_fields(path) == ("doc00", layout["company"], layout["industry"],
                                 layout["market_cap_mhkd"])


def test_ingest_layout_json_keeps_integral_numbers(tmp_path):
    elements = [
        {**_GOOD_ELEMENT, "page": 2.0},
        {**_GOOD_CELL, "row": 1.0, "col": 0, "bbox": [50, 20, 300, 32]},
        {**_GOOD_CELL, "row": 0, "col": 0, "bbox": [50, 0, 300, 12], "page": 1},
    ]
    payload = {"doc_id": "x", "company": "X", "industry": "", "market_cap_mhkd": 10,
               "elements": elements}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    doc = ingest(path)
    assert doc.blocks == [Block(text="Body.", page=2)]
    assert doc.market_cap_mhkd == 10.0
    assert doc.tables[0].cells == [["Body."], ["Body."]]


def test_ingest_markdown_fallback(tmp_path):
    md = """# Annual Report

Opening remarks span
two source lines.

## Emissions

Emissions fell this year.

| Metric | 2024 |
| --- | --- |
| NOx | 14 |
"""
    path = tmp_path / "report.md"
    path.write_text(md, encoding="utf-8")
    doc = ingest(path)
    assert doc.doc_id == "report"
    assert doc.company == "report"
    assert [b.text for b in doc.blocks] == [
        "Opening remarks span two source lines.",
        "Emissions fell this year.",
    ]
    assert [p for p, _ in outline_paths(doc.outline)] == [
        "Annual Report",
        "Annual Report / Emissions",
    ]
    assert doc.tables[0].cells == [["Metric", "2024"], ["NOx", "14"]]
    assert doc.tables[0].header_row_count == 1
    validate_document(doc)


def test_layout_json_and_markdown_give_the_same_outline(tmp_path):
    """Headings of the same levels and paragraphs in the same order give
    equal outlines, whether levels come from font-size ranks or from
    `#` counts."""
    outline = [  # (level, title) for a heading, a text for a paragraph
        "Preface.", (1, "Report"), "Intro.", (2, "Environment"), "E one.", "E two.",
        (3, "Air"), "Air text.", (2, "Social"), (1, "Governance"), "G text.",
    ]
    sizes = {1: 20, 2: 16, 3: 13}
    elements = [
        {**_GOOD_ELEMENT, "text": item, "bbox": [50, 20 * y, 550, 20 * y + 12]}
        if isinstance(item, str)
        else {**_GOOD_ELEMENT, "kind": "Header", "text": item[1],
              "bbox": [50, 20 * y, 550, 20 * y + 12], "font_size": sizes[item[0]]}
        for y, item in enumerate(outline)
    ]
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps(
        {"doc_id": "x", "company": "X", "industry": "", "elements": elements}
    ), encoding="utf-8")
    markdown = tmp_path / "x.md"
    markdown.write_text("\n\n".join(
        item if isinstance(item, str) else "#" * item[0] + " " + item[1] for item in outline
    ), encoding="utf-8")
    from_layout, from_markdown = ingest(layout), ingest(markdown)
    assert from_layout.outline == from_markdown.outline
    assert from_layout.blocks == from_markdown.blocks
    assert [p for p, _ in outline_paths(from_layout.outline)] == [
        "Report", "Report / Environment", "Report / Environment / Air",
        "Report / Social", "Governance",
    ]


def test_ingest_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.md"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DocumentError):
        ingest(path)


def test_ingest_missing_file_rejected(tmp_path):
    with pytest.raises(DocumentError):
        ingest(tmp_path / "missing.json")


def test_block_texts_never_change_through_round_trip(tmp_path):
    # property: serialize/ingest preserves every block and rendered table
    rng = random.Random(4242)
    for trial in range(10):
        elements = [header(f"T{trial}", 20.0, 0)]
        y = 20
        for b in range(rng.randint(1, 6)):
            words = [f"w{rng.randrange(100)}" for _ in range(rng.randint(3, 12))]
            elements.append(para(" ".join(words) + ".", y))
            y += 20
        doc = document_from_elements(f"d{trial}", "C", "I", None, elements)
        path = tmp_path / f"d{trial}.json"
        path.write_text(serialize(doc), encoding="utf-8")
        again = ingest(path)
        assert [b.text for b in again.blocks] == [b.text for b in doc.blocks]
        assert [render_table(t) for t in again.tables] == [
            render_table(t) for t in doc.tables
        ]
