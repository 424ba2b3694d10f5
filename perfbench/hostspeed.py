"""The host's current speed, measured next to each benchmark request.

Shared VMs change speed under the benchmark: on a 2-core x86 VM a fixed
pure-Python loop ran up to 1.8x slower for tens of seconds at a time.
The worker divides each request's latency by a calibration taken around
(and for in-process requests, during) it.  In-process requests are
calibrated by `calibrate`, a slice of pure-Python work in the worker.
Cold CLI requests are calibrated by `calibrate_cold`, a fresh interpreter
doing the same kind of start-up and work: their cost is mostly process
start, imports and page faults, which the in-process slice does not
track (it left a cold request's latency spreading 0.17 where the cold
reference brought it to 0.05-0.08).
"""
from __future__ import annotations

import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
# what `calibrate` reads on an idle 2-core x86 VM; set-up seconds are
# scaled to this speed
REFERENCE_MS = 3.0
COLD_REPEATS = 30
# a fresh interpreter importing what isofib imports and running the
# calibration work COLD_REPEATS times: about 0.5 s on a 2-core x86 VM
COLD_REFERENCE = (
    f"import sys; sys.path.insert(0, {str(HERE)!r}); import numpy, scipy.linalg; "
    f"from hostspeed import calibration_work; "
    f"[calibration_work() for _ in range({COLD_REPEATS})]"
)


def calibration_work() -> int:
    """A fixed slice of the kind of work isofib does: exact fractions and
    tuple/dict churn.  About 3 ms on an idle 2-core x86 VM."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    d = {(i, i % 7): (i, str(i)) for i in range(4000)}
    return s.denominator + len(d)


def calibrate() -> float:
    """The host's current speed: best of three timed runs of the
    calibration work, in ms.  A warm request's latency divided by the
    calibration around it stayed within about 5% while the raw latency
    nearly doubled."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        calibration_work()
        best = min(best, time.perf_counter() - t)
    return best * 1e3


class HostSpeed:
    """Calibrates while a request runs: a SIGALRM handler calls `calibrate`
    every `period_s` of wall time (never when `period_s` is 0).  `spent_s`
    is the time the handler took, which the caller takes out of the
    request's latency."""

    def __init__(self, period_s: float) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.spent_s += time.perf_counter() - t

    def __enter__(self) -> "HostSpeed":
        self.samples, self.spent_s = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def calibrate_cold() -> float:
    """The host's current speed for a cold request: the wall time of one
    COLD_REFERENCE interpreter, in ms."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_REFERENCE], check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t) * 1e3
