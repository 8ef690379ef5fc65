"""The host's current speed, from a fixed reference computation.

The benchmark host is shared, and its throughput drifts.  The same work runs
up to a third slower for a minute or more at a time, and the process sees no
stolen CPU time that would explain it.  Even the fastest of 50 consecutive
timings moves with these phases, so no statistic over one run's timings
removes them.

End-to-end host times are therefore reported at a nominal host speed. A
reference computation is timed right after every timed stretch. The
stretch's durations are scaled by ``REF_NOMINAL`` over the mean of the
reference times just before and just after it.  The drift cancels. A change
in chronosim's own speed does not, because the reference never calls
chronosim.  The reference also allocates no container inside its loops, so
garbage collection, whose cost grows with the program's live objects, never
runs in it.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

REF_REPEATS = 5        # reference computations per sample; the median is kept
REF_NOMINAL = 0.030    # seconds one reference computation takes at nominal speed


class _Record:
    def __init__(self, key: int, due: int):
        self.key = key
        self.due = due


# A few thousand objects with instance dicts, scanned through a dict the way
# the dispatcher scans its delayed lists.  Built once, never mutated.
_RECORDS = {i: _Record(i, i * 7919 % 5003) for i in range(2000)}
_BY_DUE = sorted(_RECORDS, key=lambda i: _RECORDS[i].due)


def reference_work() -> int:
    """Three fixed loops in the styles of chronosim's hot paths: a heap with
    a dict (the scheduler), a scan over objects found through a dict (the
    dispatcher's sorted inserts) and gcd arithmetic (the solver)."""
    heap: list[int] = []
    table: dict[int, int] = {}
    total = 0
    for i in range(700):
        for j in range(20):
            key = (i * 7919 + j * 104729) % 1009
            heapq.heappush(heap, key * 32 + j)
            table[key] = table.get(key, 0) + j
        while len(heap) > 10:
            total += heapq.heappop(heap)
    for r in range(150):
        bound = r * 104729 % 5003
        for other in _BY_DUE:
            if _RECORDS[other].due > bound:
                break
            total += 1
    a, b = 1, 1
    for i in range(40000):
        a, b = (a * 7 + i) % 1000003, (b * 13 + i) % 999983
        total += math.gcd(a, b)
    return total


class HostSpeed:
    """Reference timings taken between the timed stretches of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        durations = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            reference_work()
            durations.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(durations))

    def close(self, raw: list[float]) -> list[float]:
        """Sample now; return the durations timed since the last sample,
        scaled to the nominal speed."""
        self.sample()
        scale = REF_NOMINAL / statistics.mean(self.samples[-2:])
        return [t * scale for t in raw]

    def speed(self) -> float:
        """Median host speed over the run, as a multiple of the nominal."""
        return REF_NOMINAL / statistics.median(self.samples)
