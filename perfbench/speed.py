"""Machine-speed probe that puts wall times on a fixed scale.

The benchmark shares its CPUs with other tenants: on a shared 2-vCPU
virtual machine the same deterministic operation took from 0.41 to 0.76 s
within a minute, and process CPU time moved with wall time, so it does not
help.  A fixed kernel of about 3 ms (small LAPACK calls from a Python loop,
like the oracle and partition search, plus array passes over a 4000 x 4
matrix, like BCD) slows down with the machine, so each operation's wall
time is divided by the kernel's slowdown measured around it:

    reference time = wall time * REFERENCE_KERNEL_S / kernel time

``REFERENCE_KERNEL_S`` is the kernel's typical time on that machine; it
only sets the scale.  The kernel does not touch slsid, so a change to slsid
moves the reference times exactly as it moves the wall times.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 0.003
PROBE_EVERY_S = 0.25
# one probe is noisy (consecutive probes differ by about 20%), while the
# slowdown itself drifts over seconds; each operation is scaled by the
# median of the probes within this many seconds of it
WINDOW_S = 1.5


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._small = rng.normal(size=(2, 2))
        self._rhs = rng.normal(size=2)
        self._rows = rng.normal(size=(4000, 4))
        self._theta = rng.normal(size=4)
        self.times: list[float] = []
        self.stamps: list[float] = []
        self.kernel()  # first LAPACK calls load code; keep them out of the record

    def kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(60):
            np.linalg.svd(self._small, compute_uv=False)
            np.linalg.lstsq(self._small, self._rhs, rcond=None)
        for _ in range(10):
            r = self._rows @ self._theta
            float((r * r).sum())
            np.argmin(np.abs(self._rows), axis=1)
        return time.perf_counter() - start

    def probe(self) -> None:
        self.times.append(self.kernel())
        self.stamps.append(time.perf_counter())

    def due(self) -> bool:
        return not self.stamps or time.perf_counter() - self.stamps[-1] >= PROBE_EVERY_S

    def factor(self, start: float, end: float) -> float:
        """Slowdown against the reference for work done from start to end.

        Needs a probe before ``start`` and one after ``end``.
        """
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        # the probes on either side always count, however long the work took
        lo = min(lo, bisect.bisect_left(self.stamps, start) - 1)
        hi = max(hi, bisect.bisect_right(self.stamps, end) + 1)
        return statistics.median(self.times[max(lo, 0):hi]) / REFERENCE_KERNEL_S
