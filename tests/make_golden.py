"""Golden digests of the outputs of two corpora: the fixture, and the
fixture plus one markdown report (`add_markdown`).

`run(root)` runs, on a corpus written under `root` (`corpusgen.generate`,
then the corpus's addition in `CORPORA`), these commands in turn into one
output directory per `jobs` setting:
`ingest`, a cold `extract`, a warm `extract`, `evaluate` of the records
that `extract` wrote, `build-kb`, `ablate` and `analyze`; then the same
`evaluate` in an output directory of its own, which holds no records, so
it extracts them first; then `ablate` in another directory of its own,
which holds no `kb_cache/`, so it builds every KB in memory, where the
`ablate` after `build-kb` finds the structured KBs cached. Each step's entry holds its exit code, its stdout
(with `root` written as `<root>`) and the sha256 of each output file the
step created or changed in its output directory; `manifest.json`, which
holds the run's times, is left out.

    PYTHONPATH=src python -m tests.make_golden [DIR]

rewrites `tests/golden/<corpus>.json` for each corpus (or writes them in
DIR). The tests compare against those files and never rewrite them: a
change that moves a digest regenerates the files and names each moved
file in CHANGES.md.
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

from esgpipe import cli, metadata

from tests import corpusgen

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

MARKDOWN_ID = "doc10-md"
# nested headings, paragraphs and a pipe table; the mock answers two
# indicators from them and refuses the rest
MARKDOWN = """\
# Company K Holdings ESG Report

## Environment

### Emissions

Nitrogen oxides emissions from combustion sources totalled 53,000 kg for the year.

### Use of Resources

| Indicator | Amount | Unit |
| --- | --- | --- |
| Total energy consumption | 15200 | MWh |
| Direct greenhouse gas emissions (Scope 1) | 3100 | tCO2e |

## Social

### Our People

The total workforce headcount stood at 2210 employees as at 31 December.
"""
# indicator -> (topic, value, unit) of each value label of the report
MARKDOWN_VALUES = {
    "A1.1-nox": ("Nitrogen Oxides", "53000", "kg"),
    "A2.1-energy": ("Energy", "15200", "MWh"),
    "B1.1-headcount": ("Employees", "2210", "persons"),
}
# indicator -> the text the mock's reply needs in the prompt; the headcount
# has no reply, so every arm misses it
MARKDOWN_EVIDENCE = {
    "A1.1-nox": "totalled 53,000 kg",
    "A2.1-energy": "Total energy consumption | 15200 | MWh",
}


def add_markdown(root: Path) -> None:
    """Adds the markdown report to the fixture under `root`, with its
    mock replies and labels line."""
    (root / "corpus" / f"{MARKDOWN_ID}.md").write_text(MARKDOWN, encoding="utf-8")
    value_labels = [
        {"indicator_id": indicator_id, "topic": topic, "value": value, "unit": unit}
        for indicator_id, (topic, value, unit) in MARKDOWN_VALUES.items()
    ]
    replies_path = root / "mock_replies.json"
    replies = json.loads(replies_path.read_text(encoding="utf-8"))
    for label in value_labels:
        if label["indicator_id"] in MARKDOWN_EVIDENCE:
            answer = {"disclosure": True, **{k: label[k] for k in ("topic", "value", "unit")}}
            replies["replies"].append({
                "doc_id": MARKDOWN_ID, "indicator_id": label["indicator_id"],
                "required_evidence": [MARKDOWN_EVIDENCE[label["indicator_id"]]],
                "reply": json.dumps(answer),
            })
    replies_path.write_text(json.dumps(replies, indent=1) + "\n", encoding="utf-8")
    registry = metadata.load_registry(metadata.bundled_registry_path())
    labels = {
        "doc_id": MARKDOWN_ID,
        "disclosure_labels": {spec.id: spec.id in MARKDOWN_VALUES for spec in registry.indicators},
        "value_labels": value_labels,
    }
    with open(root / "labels.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(labels) + "\n")


# corpus -> what it adds to the fixture
CORPORA = {"fixture": lambda root: None, "markdown": add_markdown}

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
    ("ablate (cold)", ("ablate",), "-cold"),
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
    target_dir = Path(argv[0]) if argv else GOLDEN_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    for corpus in CORPORA:
        with tempfile.TemporaryDirectory() as tmp:
            corpusgen.generate(Path(tmp))
            CORPORA[corpus](Path(tmp))
            table = run(Path(tmp))
        target = target_dir / f"{corpus}.json"
        target.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(table)} entries to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
