"""esgpipe benchmark: one workload per run, through `esgpipe.cli.main`.

    python3 perfbench/run.py --workload fixture-ablate --seed 1 --seconds 20 --trace 0

Run it from the repository root. It generates the workload's inputs from
the seed under `.perfbench-work/`, runs the set-up and the timed rounds
in a worker process, checks every output apart from the program, and
prints one JSON line: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics, or with `--trace 1` the per-layer ones). See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench-work"

ARMS = ("benchmark", "enhanced_rag", "enhanced_rag_knowledge")
INDICATORS = 70
# Set-ups per run: at least MIN_SETUPS, then more while they took less
# than SETUP_SECONDS in all, up to MAX_SETUPS; setup_s is their median.
MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_SECONDS = 2.0
MIN_ROUNDS = 2
WORKER_TIMEOUT_S = 150
SCALED_ENTRIES = [1000, 5000]
ONLINE_DOCS = 2
TOP_K = 5  # retrieval.k, which the configs leave at its default

# A workload's worker result and the checks to run on its outputs.
Run = tuple[dict, Callable[[], None]]

END_TO_END_UNITS = {
    "setup_s": "s",
    "extractions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "kb_bytes": "bytes",
    "chat_calls": "count",
    "embed_calls": "count",
    "embed_texts": "count",
}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def write_config(path: Path, **keys) -> Path:
    """A run config in YAML's JSON subset."""
    base = {"corpus_dir": "corpus", "labels": "labels.jsonl"}
    base.update(keys)
    path.write_text(json.dumps(base, indent=1) + "\n", encoding="utf-8")
    return path


def offline_providers() -> dict:
    return {"chat": {"kind": "mock", "replies": "mock_replies.json"}}


class StandIn:
    """The loopback provider stand-in, in its own process."""

    def __init__(self, replies: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "standin.py"), "--replies", str(replies)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("provider stand-in did not start")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_worker(spec: dict, work: Path) -> dict:
    spec_path = work / "worker-spec.json"
    result_path = work / "worker-result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def base_spec(work: Path, config: Path, n_docs: int, arms: tuple[str, ...], seconds: int,
              trace: bool, spans: Path) -> dict:
    return {
        "output_dir": str(work / "out"),
        "setup": ["build-kb", "--config", str(config)],
        "min_setups": MIN_SETUPS,
        "max_setups": MAX_SETUPS,
        "setup_seconds": SETUP_SECONDS,
        "seconds": seconds,
        "min_rounds": MIN_ROUNDS,
        "trace": trace,
        "spans_path": str(spans),
        "ops_per_doc_arm": INDICATORS,
        "ops_per_round": n_docs * INDICATORS * len(arms),
    }


def ablate_spec(spec: dict, work: Path, config: Path) -> dict:
    out = work / "out"
    spec["round"] = [["ablate", "--config", str(config)]]
    spec["records"] = {arm: str(out / f"records-{arm}.jsonl") for arm in ARMS}
    spec["outputs"] = [str(out / f"records-{arm}.jsonl") for arm in ARMS] + [
        str(out / f"report-{arm}.json") for arm in ARMS
    ]
    return spec


def check_ablation(work: Path, out: Path, n_docs: int, seed: int, result: dict) -> dict:
    import checks

    labels = {o["doc_id"]: o for o in checks.read_jsonl(work / "labels.jsonl")}
    units = checks.Units()
    recounts, by_arm = {}, {}
    for arm in ARMS:
        records = checks.read_jsonl(out / f"records-{arm}.jsonl")
        by_arm[arm] = records
        recounts[arm] = checks.score(records, labels, units)
        checks.check_report(out / f"report-{arm}.json", recounts[arm])
        checks.planted_recall(records, units)
    checks.check_arm_ordering(recounts)
    checks.require(
        result["workload_counts"]["chat_calls"] == n_docs * INDICATORS * len(ARMS),
        f"chat_calls {result['workload_counts']['chat_calls']} != docs x 70 x arms",
    )
    n = checks.check_search(out / "kb", seed, TOP_K)
    log(f"search equals the full scan on {n} sampled queries")
    return by_arm


def fixture_ablate(work: Path, seed: int, seconds: int, trace: bool, spans: Path) -> Run:
    import corpus

    corpus.write_fixture(work, list(range(10)))
    config = write_config(work / "config.yaml", output_dir="out", mode="offline", arm="all",
                          providers=offline_providers())
    out = work / "out"
    erk_records = out / "records-enhanced_rag_knowledge.jsonl"
    spec = ablate_spec(base_spec(work, config, 10, ARMS, seconds, trace, spans), work, config)
    spec["round"].append(["analyze", "--config", str(config), "--records", str(erk_records)])
    spec["outputs"].append(str(out / "analysis" / "analysis.json"))
    result = run_worker(spec, work)

    def verify() -> None:
        import checks

        by_arm = check_ablation(work, out, 10, seed, result)
        checks.check_analysis(out / "analysis" / "analysis.json",
                              by_arm["enhanced_rag_knowledge"], work / "corpus")

    return result, verify


def large_kb_extract(work: Path, seed: int, seconds: int, trace: bool, spans: Path) -> Run:
    import corpus

    info = corpus.write_scaled(work, seed, SCALED_ENTRIES)
    n_docs = len(info["docs"])
    config = write_config(work / "config.yaml", output_dir="out", mode="offline",
                          arm="enhanced_rag_knowledge", providers=offline_providers())
    out = work / "out"
    spec = base_spec(work, config, n_docs, ("enhanced_rag_knowledge",), seconds, trace, spans)
    spec["round"] = [["extract", "--config", str(config)]]
    spec["records"] = {"enhanced_rag_knowledge": str(out / "records.jsonl")}
    spec["outputs"] = [str(out / "records.jsonl")]
    result = run_worker(spec, work)

    def verify() -> None:
        import checks
        from worker import run_cli

        units = checks.Units()
        labels = {o["doc_id"]: o for o in checks.read_jsonl(work / "labels.jsonl")}
        records = checks.read_jsonl(out / "records.jsonl")
        run_cli(["evaluate", "--config", str(config), "--records", str(out / "records.jsonl")])
        checks.check_report(out / "report.json", checks.score(records, labels, units))
        found, planted = checks.planted_recall(records, units)
        log(f"planted recall at {SCALED_ENTRIES} entries: {found}/{planted}")
        checks.require(
            result["workload_counts"]["chat_calls"] == n_docs * INDICATORS,
            "chat_calls != docs x 70 x arms",
        )
        checks.check_partitions(out / "kb", info["expected_partitions"])
        n = checks.check_search(out / "kb", seed, TOP_K)
        log(f"search equals the full scan on {n} sampled queries")
        fresh = write_config(work / "config-fresh.yaml", output_dir="fresh", mode="offline",
                             arm="enhanced_rag_knowledge", providers=offline_providers())
        run_cli(["extract", "--config", str(fresh)])
        checks.require(
            (work / "fresh" / "records.jsonl").read_bytes() == (out / "records.jsonl").read_bytes(),
            "warm-cache extract differs from a fresh build",
        )

    return result, verify


def online_slow_chat(work: Path, seed: int, seconds: int, trace: bool, spans: Path) -> Run:
    import corpus

    docs = sorted(random.Random(seed).sample(range(10), ONLINE_DOCS))
    corpus.write_fixture(work, docs)
    standin = StandIn(work / "mock_replies.json")
    try:
        providers = {
            "embedding": {"kind": "http", "url": f"{standin.url}/embed", "dim": 256},
            "chat": {"kind": "http", "url": f"{standin.url}/chat"},
        }
        config = write_config(work / "config.yaml", output_dir="out", mode="online", arm="all",
                              jobs=2, providers=providers)
        spec = ablate_spec(base_spec(work, config, len(docs), ARMS, seconds, trace, spans),
                           work, config)
        spec["stats_url"] = f"{standin.url}/stats"
        spec["probe_url"] = f"{standin.url}/probe"
        result = run_worker(spec, work)
    finally:
        standin.close()

    def verify() -> None:
        import checks
        from worker import run_cli

        out = work / "out"
        by_arm = check_ablation(work, out, len(docs), seed, result)
        offline = write_config(work / "config-offline.yaml", output_dir="offline", mode="offline",
                               arm="all", providers=offline_providers())
        run_cli(["ablate", "--config", str(offline)])
        for arm in ARMS:
            want = checks.disclosure_view(checks.read_jsonl(work / "offline" / f"records-{arm}.jsonl"))
            checks.require(
                checks.disclosure_view(by_arm[arm]) == want,
                f"{arm}: online records differ from offline on disclosure, value or unit",
            )

    return result, verify


WORKLOADS = {
    "fixture-ablate": fixture_ablate,
    "large-kb-extract": large_kb_extract,
    "online-slow-chat": online_slow_chat,
}


def main() -> int:
    parser = argparse.ArgumentParser(description="esgpipe benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/esgpipe/cli.py", "tests/corpusgen.py"):
        if not (ROOT / needed).is_file():
            log(f"{needed} not found under {ROOT}; run from a checkout of the repository")
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(BENCH)]
    # One BLAS thread: on two shared cores OpenBLAS's pool made the same
    # extract take 2.1 s or 4.2 s from one round to the next.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = WORK_ROOT / f"spans-{args.workload}.jsonl"
    started = time.perf_counter()
    import checks

    try:
        result, verify = WORKLOADS[args.workload](work, args.seed, args.seconds, bool(args.trace), spans)
        try:
            verify()
            correct = result["rounds_identical"]
        except checks.CheckFailed as exc:
            log(f"check failed: {exc}")
            correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops_per_round"]

    def rate(key: str) -> float:
        """Completed extractions per second, the mean over rounds without
        the fastest and the slowest round: over groups of 12 fixture
        rounds it spread less than the median (0.040 against 0.052)."""
        rates = sorted((ops - failed) / t for t, failed in zip(result[key], result["round_failed"]))
        return statistics.mean(rates[1:-1] if len(rates) > 3 else rates)

    if args.trace:
        from tracing import PER_LAYER_UNITS

        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        log(f"traced pass {result['traced_s']:.3f} s vs untraced {result['untraced_s']:.3f} s; "
            f"spans in {spans}")
    else:
        values = {
            "setup_s": statistics.median(result["setup_scaled_s"]),
            "extractions_per_s": rate("round_scaled_s"),
            "peak_rss_mb": result["peak_rss_mb"],
            "kb_bytes": result["kb_bytes"],
            **result["workload_counts"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    log(f"raw setup_s {statistics.median(result['setup_s']):.4f}, raw extractions_per_s "
        f"{rate('round_s'):.2f}, CPU-speed scaled {rate('round_scaled_s'):.2f} "
        f"({rate('round_own_scaled_s'):.2f} by the commands' own probes alone)")
    log(f"peak RSS {result['peak_rss_mb']:.1f} MB, of the set-ups "
        f"{result['setup_peak_rss_mb']:.1f} MB")
    log(f"{args.workload}: rounds {[round(s, 3) for s in result['round_s']]}, scaled "
        f"{[round(s, 3) for s in result['round_scaled_s']]}, set-ups "
        f"{[round(s, 3) for s in result['setup_s']]}, wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": ops * len(result["round_failed"]),
        "failed": sum(result["round_failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        log(f"run failed: {exc}")
        sys.exit(1)
