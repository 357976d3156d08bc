"""Benchmark inputs: the fixture corpus and a seeded scaled corpus.

The scaled corpus keeps the planted facts, mock replies and labels of
`tests.corpusgen` (imported read-only) for each document it emits, and
adds filler until a document has about `target_entries` KB entries:

- filler sections, one outline entry each, whose paragraphs are longer
  than `chunking.max_chars`, so the chunker splits them on their own and
  planted blocks keep their own chunks;
- filler tables whose first-column labels run to many tokens: a short
  label that shares one hash bucket with a one-word search term reaches
  cosine 0.5 or more and crowds planted text out of the top k.

Filler words are made-up syllable strings, so the only similarity
between filler and a query comes from hash-bucket collisions.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from esgpipe import metadata
from esgpipe.providers import DEFAULT_REFUSAL
from tests import corpusgen

# Share of a scaled document's KB entries per partition.
TEXT_SHARE = 0.4
OUTLINE_SHARE = 0.2
# TableKeyword takes the rest.

FILLER_ROWS_PER_TABLE = 24
FILLER_TABLE_COLS = 3
SENTENCES_PER_PARAGRAPH = 22  # about 1,900 characters: two chunks at max_chars 1200
WORDS_PER_SENTENCE = (9, 13)
LABEL_WORDS = (9, 12)
VOCABULARY_SIZE = 4000

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _vocabulary(rng: random.Random) -> list[str]:
    words: set[str] = set()
    while len(words) < VOCABULARY_SIZE:
        n = rng.randint(2, 3)
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n))
        words.add(word + rng.choice("qxj"))
    return sorted(words)


def _phrase(rng: random.Random, vocab: list[str], bounds: tuple[int, int]) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(*bounds)))


def _sentence(rng: random.Random, vocab: list[str]) -> str:
    return _phrase(rng, vocab, WORDS_PER_SENTENCE).capitalize() + "."


def planted_strings(i: int) -> list[str]:
    """Evidence a filler string must never contain for fixture doc i."""
    out = list(corpusgen.evidence_sentences(i).values())
    out.extend(corpusgen.wide_row_line(t) for t in corpusgen.build_tables(i).values())
    out.append(corpusgen.KNOWLEDGE_GATE_PHRASE)
    return out


def expected_partitions(layout: dict) -> dict[str, int]:
    """Outline and TableKeyword sizes a structured build should give.

    Counted from the layout alone: one outline entry per header, and per
    table its distinct non-numeric header-row and first-column cells.
    """
    outline = sum(1 for e in layout["elements"] if e["kind"] == "Header")
    cells: dict[str, dict[tuple[int, int], str]] = {}
    for e in layout["elements"]:
        if e["kind"] == "TableCell":
            cells.setdefault(e["table_id"], {})[(e["row"], e["col"])] = e["text"]
    keywords = 0
    for grid in cells.values():
        n_rows = max(r for r, _ in grid) + 1
        header_rows = 0
        for r in range(n_rows):
            row = [t for (rr, _), t in grid.items() if rr == r]
            if any(ch.isdigit() for t in row for ch in t):
                break
            header_rows += 1
        candidates = [t for (r, _), t in sorted(grid.items()) if r < header_rows]
        candidates += [grid.get((r, 0), "") for r in range(header_rows, n_rows)]
        seen: set[str] = set()
        for text in candidates:
            text = text.strip()
            numeric = any(ch.isdigit() for ch in text) and all(
                ch.isdigit() or ch in " .,%+-" for ch in text
            )
            if text and not numeric and text not in seen:
                seen.add(text)
                keywords += 1
    return {"Outline": outline, "TableKeyword": keywords}


def scaled_layout(i: int, target_entries: int, rng: random.Random) -> dict:
    """Fixture doc i plus filler reaching about target_entries KB entries."""
    layout = corpusgen.build_layout_json(i)
    vocab = _vocabulary(rng)
    elements = layout["elements"]
    n_planted = len(elements)
    page = max(e["page"] for e in elements) + 1

    n_sections = round(target_entries * OUTLINE_SHARE)
    text_chunks = round(target_entries * TEXT_SHARE)
    keyword_target = target_entries - n_sections - text_chunks
    y = 10.0

    def add(kind: str, text: str, font: float, **extra) -> None:
        nonlocal y
        elements.append(
            {
                "kind": kind,
                "text": text,
                "page": page,
                "bbox": [50.0, y, 550.0, y + 14.0],
                "font_size": font,
                **extra,
            }
        )
        y += 20.0

    # Two chunks per filler paragraph, so one paragraph per two text chunks.
    n_paragraphs = text_chunks // 2
    for s in range(n_sections):
        add("Header", _phrase(rng, vocab, (3, 5)).title(), 14.0)
        paragraphs = n_paragraphs // n_sections + (1 if s < n_paragraphs % n_sections else 0)
        for _ in range(paragraphs):
            add(
                "Paragraph",
                " ".join(_sentence(rng, vocab) for _ in range(SENTENCES_PER_PARAGRAPH)),
                10.0,
            )

    n_tables = max(1, round(keyword_target / (FILLER_ROWS_PER_TABLE + FILLER_TABLE_COLS)))
    for t in range(n_tables):
        page += 1
        y = 10.0
        rows = [[_phrase(rng, vocab, (3, 4)).title() for _ in range(FILLER_TABLE_COLS)]]
        for _ in range(FILLER_ROWS_PER_TABLE):
            label = _phrase(rng, vocab, LABEL_WORDS)
            rows.append([label] + [str(rng.randint(10, 99999)) for _ in range(FILLER_TABLE_COLS - 1)])
        for r, row in enumerate(rows):
            for c, text in enumerate(row):
                add("TableCell", text, 9.0, table_id=f"filler-{t:04d}", row=r, col=c)

    forbidden = planted_strings(i)
    for e in elements[n_planted:]:
        for needle in forbidden:
            if needle in e["text"]:
                raise RuntimeError(f"filler contains planted evidence {needle!r}")
    return layout


def _write_common(root: Path, doc_indices: list[int], layouts: list[dict]) -> None:
    registry = metadata.load_registry(metadata.bundled_registry_path())
    replies, labels = corpusgen.build_fixture(registry)
    corpusgen._check_fixture(registry, replies)
    wanted = {f"doc{i:02d}" for i in doc_indices}
    corpus = root / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    for layout in layouts:
        path = corpus / f"{layout['doc_id']}.json"
        path.write_text(json.dumps(layout, indent=1) + "\n", encoding="utf-8")
    (root / "mock_replies.json").write_text(
        json.dumps(
            {
                "default_reply": DEFAULT_REFUSAL,
                "replies": [r for r in replies if r["doc_id"] in wanted],
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    (root / "labels.jsonl").write_text(
        "".join(json.dumps(obj) + "\n" for obj in labels if obj["doc_id"] in wanted),
        encoding="utf-8",
    )


def write_fixture(root: Path, doc_indices: list[int]) -> dict:
    """The fixture documents doc_indices, unchanged."""
    layouts = [corpusgen.build_layout_json(i) for i in doc_indices]
    _write_common(root, doc_indices, layouts)
    return {"docs": [layout["doc_id"] for layout in layouts]}


def write_scaled(root: Path, seed: int, targets: list[int]) -> dict:
    """One scaled document per target size; the fixture docs used and
    the filler text both follow from the seed."""
    rng = random.Random(seed)
    # Sorted, so the docs are built in the order of `targets` whatever the
    # seed: build-kb still holds one KB while it builds the next, so the
    # order moves peak memory by about 12 MB.
    doc_indices = sorted(rng.sample(range(corpusgen.N_DOCS), len(targets)))
    layouts = [scaled_layout(i, n, rng) for i, n in zip(doc_indices, targets)]
    _write_common(root, doc_indices, layouts)
    expected = {layout["doc_id"]: expected_partitions(layout) for layout in layouts}
    (root / "expected_partitions.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return {"docs": [layout["doc_id"] for layout in layouts], "expected_partitions": expected}
