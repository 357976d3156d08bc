"""Each corpus's outputs against their golden digests
(`tests/golden/<corpus>.json`, written by `tests/make_golden.py`)."""

import json
import shutil

from tests import make_golden


def _check(corpus, fixture_root, tmp_path):
    want = json.loads((make_golden.GOLDEN_DIR / f"{corpus}.json").read_text(encoding="utf-8"))
    root = tmp_path / corpus
    shutil.copytree(fixture_root, root)
    make_golden.CORPORA[corpus](root)
    got = make_golden.run(root)
    assert list(got) == list(want)
    for step, entry in want.items():
        assert got[step] == entry, step


def test_fixture_outputs_match_the_golden_digests(fixture_root, tmp_path):
    _check("fixture", fixture_root, tmp_path)


def test_markdown_corpus_outputs_match_the_golden_digests(fixture_root, tmp_path):
    _check("markdown", fixture_root, tmp_path)
