"""Golden digests of the fixture corpus's outputs.

`run(root)` runs, on the fixture written under `root` (`corpusgen.generate`),
these commands in turn into one output directory per `jobs` setting:
`ingest`, a cold `extract`, a warm `extract`, `evaluate` of the records
that `extract` wrote, `build-kb`, `ablate` and `analyze`; then the same
`evaluate` in an output directory of its own, which holds no records, so
it extracts them first. Each step's entry holds its exit code, its stdout
(with `root` written as `<root>`) and the sha256 of each output file the
step created or changed in its output directory; `manifest.json`, which
holds the run's times, is left out.

    PYTHONPATH=src python -m tests.make_golden [PATH]

rewrites `tests/golden/fixture.json` (or writes PATH). The test compares
against that file and never rewrites it: a change that moves a digest
regenerates the file and names each moved file in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import yaml

from esgpipe import cli

from tests import corpusgen

GOLDEN = Path(__file__).resolve().parent / "golden" / "fixture.json"

JOBS = (1, 3)
EVALUATE = ("evaluate", "--arm", "enhanced_rag_knowledge")
# (step, command, suffix of its output directory's name)
STEPS = (
    ("ingest", ("ingest",), ""),
    ("extract (cold)", ("extract",), ""),
    ("extract (warm)", ("extract",), ""),
    ("evaluate (recorded)", EVALUATE, ""),
    ("build-kb", ("build-kb",), ""),
    ("ablate", ("ablate",), ""),
    ("analyze", ("analyze",), ""),
    ("evaluate (fresh)", EVALUATE, "-fresh"),
)


def _digests(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def run(root: Path) -> dict[str, dict]:
    """The golden entries of the fixture under `root`, in run order."""
    root = root.resolve()
    base = yaml.safe_load((root / "config.yaml").read_text(encoding="utf-8"))
    table = {}
    for jobs in JOBS:
        before: dict[str, dict[str, str]] = {}  # output directory -> its digests
        for step, command, suffix in STEPS:
            out = f"out-jobs{jobs}{suffix}"
            config = root / f"config-jobs{jobs}{suffix}.yaml"
            config.write_text(
                yaml.safe_dump({**base, "jobs": jobs, "output_dir": out}), encoding="utf-8"
            )
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = cli.main([*command, "--config", str(config)])
            files = _digests(root / out)
            earlier = before.get(out, {})
            table[f"jobs {jobs}: {step}"] = {
                "exit": code,
                "stdout": stdout.getvalue().replace(str(root), "<root>").splitlines(),
                "files": {name: d for name, d in files.items() if earlier.get(name) != d},
            }
            before[out] = files
    return table


def main(argv: list[str]) -> int:
    target = Path(argv[0]) if argv else GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        corpusgen.generate(Path(tmp))
        table = run(Path(tmp))
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} entries to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
