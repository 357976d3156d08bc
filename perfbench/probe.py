"""How fast the CPU runs Python right now, sampled beside the program.

`probe_task` is a fixed piece of work: regex tokenising, dict counting
and JSON encoding, the kinds of work the program does most, and an
integer loop. `SpeedProbe` times it on a daemon thread in the process
of the command it measures, at once and then every PROBE_EVERY_S; the
loopback stand-in times it on its event loop at the same rate. Over 253
fixture `ablate` runs in two sittings, taken in groups of 12, the two
parts together left a quartile spread of 0.040 in the scaled times
against 0.053 for the text part alone, 0.038 for the loop alone and
0.131 unscaled; in an earlier sitting the text part alone had beaten the
loop alone (0.024 against 0.040), so the task has both.

The task holds the GIL for about 1 ms and never waits, so on a thread
it is not slowed by the program's own threads taking the GIL.
"""

from __future__ import annotations

import json
import re
import statistics
import threading
import time

PROBE_EVERY_S = 0.02
# About the median time of `probe_task` on an idle 2-vCPU Xeon VM.
REFERENCE_PROBE_S = 0.001
LOOP_STEPS = 5000
_TEXT = " ".join(f"lorem{i} ipsum dolor sit amet {i * 7} adipiscing elit" for i in range(40))
_TOKEN_RE = re.compile(r"\w+")

Sample = tuple[float, float]  # (perf_counter at the end, duration)


def probe_task() -> Sample:
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(2):
        for token in _TOKEN_RE.findall(_TEXT.lower()):
            counts[token] = counts.get(token, 0) + 1
    json.dumps(counts)
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i
    end = time.perf_counter()
    return end, end - start


def scale(samples: list[Sample], start: float, end: float) -> float:
    """REFERENCE_PROBE_S over the median sample between start and end: a
    span's time times its scale is the time it would have taken at the
    reference speed. `perf_counter` is the system's monotonic clock, so
    samples from several processes can be pooled."""
    inside = [d for t, d in samples if start <= t <= end]
    if not inside:
        inside = [min(samples, key=lambda s: abs(s[0] - end))[1]]
    return REFERENCE_PROBE_S / statistics.median(inside)


class SpeedProbe:
    """`probe_task` on a daemon thread until `close`."""

    def __init__(self) -> None:
        self.samples: list[Sample] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            self.samples.append(probe_task())
            if self._stop.wait(PROBE_EVERY_S):
                return

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
