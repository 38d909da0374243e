"""A clock corrected for host contention by an interleaved reference kernel.

On a shared virtual machine the speed of a core swings with the load of
other tenants: on the 2-vCPU x86_64 VM this benchmark was developed on,
the same work took 1.45x longer in the slow phases, which last from a
fraction of a second to many seconds.  Raw wall times then vary by 10-60%
between runs, more than any bound worth enforcing.

The clock runs a fixed reference kernel (small matrix products and a
Python loop, like the program's own per-op work) at most every
``PROBE_EVERY_S`` of benchmark time, only at the benchmark's own marks:
between calls into the program and between the checks of the invariant
suite.  Each probe gives the host speed factor
``REF_PROBE_S / probe time``; between probes the factor is interpolated
linearly.  A duration is the integral of that factor over the interval,
without the time spent in probes: seconds at the speed of an uncontended
core of the development VM.  Over ten runs of each workload on that VM,
the corrected throughput and train-step latencies spread by 3-8%
(interquartile range over median); raw wall times of the same work had
spread by 5-32%.  Snapshots, resumes and the invariant suite follow the
probe less well; the benchmark prints those times but does not bound them.

Marks return raw ``perf_counter`` readings; durations are computed after
the run, when the probes on both sides of every interval are known.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

PROBE_EVERY_S = 0.05
# About the probe time in the fastest phases seen on the development VM.
REF_PROBE_S = 1.0e-3

_GEN = np.random.default_rng(0)
_A = _GEN.standard_normal((96, 64))
_W = 0.1 * _GEN.standard_normal((64, 64))


def probe_kernel() -> float:
    """Seconds taken by the reference work; the median of three tries."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = _A
        for _ in range(30):
            x = np.tanh(x @ _W)
        s = 0
        for i in range(3000):
            s += i
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class SpeedClock:
    def __init__(self, probe=probe_kernel, every_s: float = PROBE_EVERY_S,
                 ref_s: float = REF_PROBE_S):
        self.probe = probe
        self.every_s = every_s
        self.ref_s = ref_s
        self.times: list[float] = []     # probe midpoints, increasing
        self.factors: list[float] = []   # host speed factor at each probe
        self.spans: list[tuple[float, float]] = []   # time spent probing
        self._last = -float("inf")

    def __call__(self) -> float:
        """A mark: raw time, after probing the host when a probe is due."""
        now = time.perf_counter()
        if now - self._last >= self.every_s:
            took = self.probe()
            end = time.perf_counter()
            self.times.append((now + end) / 2)
            self.factors.append(self.ref_s / took)
            self.spans.append((now, end))
            self._last = end
            return end
        return now

    def _integral(self, a: float, b: float) -> float:
        if not self.times:
            return b - a
        lo, hi = bisect.bisect_right(self.times, a), bisect.bisect_left(self.times, b)
        xs = np.array([a] + self.times[lo:hi] + [b])
        fs = np.interp(xs, self.times, self.factors)
        return float(np.sum((fs[1:] + fs[:-1]) / 2 * np.diff(xs)))

    def duration(self, a: float, b: float) -> float:
        """Corrected seconds between marks ``a`` and ``b``, probes excluded."""
        total = self._integral(a, b)
        i = bisect.bisect_left(self.spans, (a,))
        while i < len(self.spans) and self.spans[i][1] <= b:
            total -= self._integral(*self.spans[i])
            i += 1
        return total

    def speed(self) -> float:
        """Median host speed factor over the run (1.0 = reference speed)."""
        return float(np.median(self.factors)) if self.factors else 1.0
