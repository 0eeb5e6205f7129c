"""Machine-speed calibration for a shared, noisy host.

The speed of the same pure-Python work on the machines this benchmark
runs on drifts by tens of percent within seconds, as other tenants come
and go.  A fixed kernel written here, outside the program, is timed
between measured operations, at most every :data:`EVERY_S` seconds;
each operation's time is scaled by :data:`REF_S` over the kernel time
measured around it.  Times therefore read in seconds at the speed at
which the kernel takes :data:`REF_S` seconds, and a change to the
program moves them while a change in machine speed mostly does not.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

#: Kernel seconds at the reference speed: about what it takes on an idle
#: Intel Xeon core under Python 3.11.
REF_S = 0.0014
EVERY_S = 0.05

_TEXT = "".join(f"node{i} -> step{i * 7 % 13} [label=\"x{i}\"];\n" for i in range(240))


def _kernel() -> int:
    counts: dict[str, int] = {}
    for ch in _TEXT:
        if ch.isalnum():
            counts[ch] = counts.get(ch, 0) + 1
    rows = [(i * 7919 % 997, str(i), i) for i in range(2400)]
    rows.sort()
    return len(counts) + rows[-1][2]


class Speed:
    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            _kernel()
            took = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.at.append(start)
        self.took.append(took)

    def maybe_sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def _smoothed(self, i: int) -> float:
        return statistics.median(self.took[max(0, i - 1): i + 2])

    def scale(self, start: float, end: float) -> float:
        """REF_S over the kernel time around [start, end]."""
        before = max(0, bisect.bisect_right(self.at, start) - 1)
        after = min(len(self.at) - 1, bisect.bisect_left(self.at, end))
        return 2.0 * REF_S / (self._smoothed(before) + self._smoothed(after))
