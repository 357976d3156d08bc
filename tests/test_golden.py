"""The fixture corpus's outputs against their golden digests
(`tests/golden/fixture.json`, written by `tests/make_golden.py`)."""

import json
import shutil

from tests import make_golden


def test_fixture_outputs_match_the_golden_digests(fixture_root, tmp_path, capsys):
    want = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
    root = tmp_path / "fixture"
    shutil.copytree(fixture_root, root)
    got = make_golden.run(root)
    assert list(got) == list(want)
    for step, entry in want.items():
        assert got[step] == entry, step
