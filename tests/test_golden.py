"""Each corpus's outputs against their golden digests
(`tests/golden/<corpus>.json`, written by `tests/make_golden.py`)."""

import json
import re
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
    # an ablate that builds every KB in memory writes what one after build-kb writes
    for jobs in make_golden.JOBS:
        warm, cold = (
            _ablate_outputs(want[f"jobs {jobs}: {step}"]["files"])
            for step in ("ablate", "ablate (cold)")
        )
        assert len(cold) == 7 and cold == warm, jobs


def _ablate_outputs(files):
    """The digests of an ablate's records, reports and comparison table."""
    pattern = re.compile(r"records-.+\.jsonl|report-.+\.json|comparison\.txt")
    return {name: digest for name, digest in files.items() if pattern.fullmatch(name)}


def test_fixture_outputs_match_the_golden_digests(fixture_root, tmp_path):
    _check("fixture", fixture_root, tmp_path)


def test_markdown_corpus_outputs_match_the_golden_digests(fixture_root, tmp_path):
    _check("markdown", fixture_root, tmp_path)
