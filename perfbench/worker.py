"""Runs one workload's commands through `esgpipe.cli.main` and times them.

    python3 perfbench/worker.py SPEC_JSON RESULT_JSON

The spec names the config, the set-up command (run several times, each
into an empty output dir, until `min_setups` ran and `setup_seconds`
passed or `max_setups` ran), the commands of one round (run in whole
rounds until the time is up), the records files a round writes and how
many extractions a round attempts. With `trace` set it then repeats one
set-up and one round under the tracer.

Every command runs in a child forked after the imports, as each
`esgpipe` invocation starts in a fresh process: nothing one command
leaves in process memory speeds up the next, and import time stays out
of the timings. Peak resident memory is the largest of the children's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from esgpipe import cli  # noqa: E402
from probe import SpeedProbe, scale  # noqa: E402
from tracing import CallCounter, Tracer  # noqa: E402

FAILED_FLAGS = {"provider-failed", "parse-failure"}


class CommandFailed(RuntimeError):
    pass


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise CommandFailed(f"esgpipe {' '.join(argv)} exited {rc}:\n{out.getvalue()}")
    return out.getvalue()


def failed_ops(spec: dict, stdout: str) -> int:
    """Extractions that failed in one round: flagged records, plus every
    extraction of a skipped or errored document."""
    failed: set[tuple[str, str, str]] = set()
    for arm, path in spec["records"].items():
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if FAILED_FLAGS & set(rec["flags"]):
                failed.add((arm, rec["doc_id"], rec["indicator_id"]))
    per_doc = spec["ops_per_doc_arm"]
    arms = len(spec["records"])
    lost_docs = 0
    for line in stdout.splitlines():
        if line.startswith("skipped "):
            lost_docs += arms
        elif line.startswith("warning ["):
            lost_docs += 1
    return len(failed) + lost_docs * per_doc


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Counts:
    """Provider call counts: the stand-in's online, wrappers offline."""

    def __init__(self, stats_url: str | None, probe_url: str | None) -> None:
        self.stats_url = stats_url
        self.probe_url = probe_url
        self.counter = CallCounter()
        self.counter.install()

    def snapshot(self) -> dict[str, int]:
        if self.stats_url:
            with urllib.request.urlopen(self.stats_url, timeout=10) as resp:
                return json.loads(resp.read())
        return self.counter.snapshot()

    def standin_samples(self, start: float, end: float) -> list:
        """The stand-in's speed samples between start and end, if online."""
        if not self.probe_url:
            return []
        url = f"{self.probe_url}?start={start!r}&end={end!r}"
        with urllib.request.urlopen(url, timeout=10) as resp:
            return [tuple(s) for s in json.loads(resp.read())]


def diff(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def in_child(fn, *args):
    """fn(*args) in a forked child; its JSON-able result, or CommandFailed."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = {"ok": fn(*args)}
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            payload, code = {"error": f"{type(exc).__name__}: {exc}"}, 1
        with os.fdopen(write_fd, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as f:
        text = f.read()
    _, status = os.waitpid(pid, 0)
    if not text:
        raise CommandFailed(f"child exited with status {status} and no result")
    payload = json.loads(text)
    if "error" in payload:
        raise CommandFailed(payload["error"])
    return payload["ok"]


def command(argv: list[str], counts: Counts, trace: bool) -> dict:
    """One esgpipe command, timed, with its provider counts (and trace)."""
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    before = counts.snapshot()
    probe = SpeedProbe()
    start = time.perf_counter()
    stdout = run_cli(argv)
    end = time.perf_counter()
    probe.close()
    result = {
        "span": [start, end],
        # Online, the stand-in's samples join the command's own: its
        # process does part of the round's work, often on the other CPU.
        "scale": scale(probe.samples + counts.standin_samples(start, end), start, end),
        "own_scale": scale(probe.samples, start, end),
        "stdout": stdout,
        "counts": diff(counts.snapshot(), before),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.export()
    return result


def setup_once(spec: dict, counts: Counts, trace: bool = False) -> dict:
    """One set-up into an empty output dir, in a fresh child."""
    shutil.rmtree(Path(spec["output_dir"]), ignore_errors=True)
    return in_child(command, spec["setup"], counts, trace)


def round_once(spec: dict, counts: Counts, trace: bool = False) -> list[dict]:
    """One round of the timed commands, each in a fresh child."""
    return [in_child(command, argv, counts, trace) for argv in spec["round"]]


def round_counts(cmds: list[dict]) -> dict:
    total = dict.fromkeys(cmds[0]["counts"], 0)
    for c in cmds:
        total = {k: total[k] + c["counts"][k] for k in total}
    return total


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    counts = Counts(spec.get("stats_url"), spec.get("probe_url"))
    ops = spec["ops_per_round"]

    setups = [setup_once(spec, counts)]
    kb_bytes = tree_bytes(Path(spec["output_dir"]))
    while len(setups) < spec["min_setups"] or (
        sum(e - s for s, e in (c["span"] for c in setups)) < spec["setup_seconds"]
        and len(setups) < spec["max_setups"]
    ):
        setups.append(setup_once(spec, counts))
        if tree_bytes(Path(spec["output_dir"])) != kb_bytes:
            raise CommandFailed("set-up wrote a different number of bytes on a repeat")

    rounds, round_failed, digests = [], [], []
    deadline = time.perf_counter() + spec["seconds"]
    while len(rounds) < spec["min_rounds"] or time.perf_counter() < deadline:
        cmds = round_once(spec, counts)
        rounds.append(cmds)
        round_failed.append(failed_ops(spec, "".join(c["stdout"] for c in cmds)))
        digests.append(digest(spec["outputs"]))

    def seconds(cmds: list[dict], scale_key: str | None = None) -> float:
        """The commands' time, scaled by each one's `scale_key` if given."""
        return sum((c["span"][1] - c["span"][0]) * (c[scale_key] if scale_key else 1.0)
                   for c in cmds)

    setup_times = [seconds([c]) for c in setups]
    round_times = [seconds(cmds) for cmds in rounds]
    per_round_counts = [round_counts(cmds) for cmds in rounds]
    result = {
        "setup_s": setup_times,
        "round_s": round_times,
        "setup_scaled_s": [seconds([c], "scale") for c in setups],
        "round_scaled_s": [seconds(cmds, "scale") for cmds in rounds],
        "round_own_scaled_s": [seconds(cmds, "own_scale") for cmds in rounds],
        "round_failed": round_failed,
        "rounds_identical": len(set(digests)) == 1
        and all(c == per_round_counts[0] for c in per_round_counts),
        "workload_counts": {
            k: setups[0]["counts"][k] + per_round_counts[0][k] for k in per_round_counts[0]
        },
        "kb_bytes": kb_bytes,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in setups + [c for r in rounds for c in r]),
        "setup_peak_rss_mb": max(c["peak_rss_mb"] for c in setups),
        "ops_per_round": ops,
    }

    if spec["trace"]:
        traced = [setup_once(spec, counts, trace=True)] + round_once(spec, counts, trace=True)
        round_failed.append(failed_ops(spec, "".join(c["stdout"] for c in traced[1:])))
        tracer = Tracer()
        for c in traced:
            tracer.absorb(c["trace"])
        layer = tracer.metrics()
        traced_s = seconds(traced)
        untraced = statistics.median(setup_times) + statistics.median(round_times)
        layer["trace.overhead_s"] = traced_s - untraced
        result["per_layer"] = layer
        result["traced_s"] = traced_s
        result["untraced_s"] = untraced
        tracer.write_spans(Path(spec["spans_path"]))

    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CommandFailed as exc:
        print(f"worker: {exc}", file=sys.stderr)
        sys.exit(1)
