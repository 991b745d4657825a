"""Reference work that gauges the host's speed during a run.

On a shared host the same code runs 20-60% faster or slower from one
minute to the next, and process CPU time moves with wall time, so the
slowdown is the processor's, not the scheduler's.  The benchmark runs a
reference between ops and scales each op's time by
``nominal / reference time``: timings read as seconds on a host where the
reference takes its nominal time.  The references are benchmark code and
call no library function, so a change to the library moves the op times
and not the gauge.  Two kinds:

- ``loop`` (in-process ops): interpreter-bound scalar loops with ``math``
  calls and small numpy arrays, then numpy dot products over a few
  thousand points, the two kinds of work the library does;
- ``process`` (ops that start an ``nt`` process): one interpreter start
  that imports numpy, which tracks process start-up and import cost far
  better than any in-process loop.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

_RNG = np.random.default_rng(0)
_LONG = _RNG.standard_normal(8000)
_SMALL = [_RNG.standard_normal(16) for _ in range(8)]


def loop_reference() -> float:
    """One pass of the reference loop; returns its seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for k in range(1, 4000):
        x = 1.0 + k * 1e-3
        s += math.lgamma(x) / k + abs(math.sin(x))
        if k % 8 == 0:
            s += float(np.sum(_SMALL[k % 8] * x))
    for _ in range(20):
        for n in range(1000, 8000, 350):
            s += float(np.dot(_LONG[:n], _LONG[n - 1 :: -1]))
    if not math.isfinite(s):
        raise RuntimeError("reference loop produced a non-finite sum")
    return time.perf_counter() - t0


def process_reference() -> float:
    """One interpreter start that imports numpy; returns its seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


#: kind -> (reference, nominal seconds, passes per sample, op seconds
#: between samples).  The nominal times are medians taken together on the
#: host the benchmark was built on (2 vCPUs of an Intel Xeon under KVM) in
#: a fast phase; every scaled timing is in seconds at that speed.
KINDS = {
    "loop": (loop_reference, 0.0045, 3, 0.25),
    "process": (process_reference, 0.18, 1, 1.0),
}


class Gauge:
    """Samples of one kind of reference taken during one run."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.reference, self.nominal, self.reps, self.every_s = KINDS[kind]
        self.samples: list[float] = []

    def sample(self, reps: int | None = None) -> float:
        """Median of ``reps`` reference passes (default: the kind's), kept and returned."""
        t = statistics.median(self.reference() for _ in range(reps or self.reps))
        self.samples.append(t)
        return t

    def scale(self, before: float, after: float) -> float:
        """Factor from raw seconds to seconds at the nominal speed, for work
        done between two samples."""
        return self.nominal / (0.5 * (before + after))

    def summary(self) -> dict:
        xs = self.samples
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        return {"kind": self.kind, "samples": len(xs), "ref_median_s": q[1], "ref_q1_s": q[0], "ref_q3_s": q[2], "ref_nominal_s": self.nominal}
