"""A fixed CPU kernel, timed between trials, as the unit for gated timings.

On a host whose cores are shared, the speed of a vCPU steps up and down by
tens of percent for seconds at a time, so raw seconds from runs taken
minutes apart differ by more than the regressions worth catching.  The same
steps slow this kernel by nearly the same factor, so a time divided by the
kernel's time at that moment ("ref" units) stays put.  The benchmark gates
on these ratios and prints the raw seconds beside them.
"""

from __future__ import annotations

import math
import time

PERIOD_S = 0.25  # least time between two probes
WINDOW_S = 1.0  # probes within this distance describe an instant
_KEYS = [(i, i * 7 % 1013) for i in range(5000)]


def kernel() -> int:
    """A few milliseconds of interpreter work: integer arithmetic, then dict
    inserts and lookups.  Of the kernels tried (these, a numpy sort, small and
    page-faulting allocations) these tracked the workloads' speed best."""
    total = 0
    for i in range(20_000):
        total += i * i
    table = {}
    for key in _KEYS:
        table[key] = key[0]
    return total + sum(table[key] for key in _KEYS)


class Reference:
    """Probes of :func:`kernel`: ``(start, seconds)`` pairs, in time order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[tuple[float, float]] = []
        self._next = -math.inf

    def probe(self, force: bool = False) -> None:
        """Time the kernel, unless the last probe was under PERIOD_S ago."""
        start = self.clock()
        if start < self._next and not force:
            return
        kernel()
        end = self.clock()
        self.samples.append((start, end - start))
        self._next = end + PERIOD_S

    def spent(self, t0: float, t1: float) -> float:
        """Seconds spent in probes that started in ``[t0, t1)``."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def unit(self, t0: float, t1: float | None = None) -> float:
        """Mean kernel time over probes within WINDOW_S of ``[t0, t1]``.

        The slowest and the fastest tenth of those probes are dropped.  A mean
        follows a pass that spans several speed steps better than a median
        does.  Falls back to the nearest probe when none is that close.
        """
        t1 = t0 if t1 is None else t1
        close = sorted(d for s, d in self.samples if t0 - WINDOW_S <= s <= t1 + WINDOW_S)
        if not close:
            return min(self.samples, key=lambda sd: abs(sd[0] - t0))[1]
        cut = len(close) // 10
        kept = close[cut : len(close) - cut]
        return sum(kept) / len(kept)
