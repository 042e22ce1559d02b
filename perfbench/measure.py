"""Latency samples, their summaries, and the machine-speed calibration.

Percentiles interpolate linearly between the two nearest order statistics.
A tail percentile is reported only when at least ten samples lie beyond it;
otherwise it is None.

Times are scaled to a reference machine speed. On a shared host the speed
of this kind of code drifts by up to 1.8x over seconds to minutes, far more
than the changes the benchmark must resolve. A fixed kernel, run between
operations, measures that speed; each operation's time is multiplied by
CAL_REFERENCE_NS over the kernel's recent median time. The kernel does not
use the package under test, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from array import array
from bisect import bisect_right
from collections import deque

TAIL_MIN_BEYOND = 10
CAL_REFERENCE_NS = 1_500_000
CAL_WINDOW = 3


def calibration_kernel() -> complex:
    """Fixed work shaped like the package's inner loops.

    Short complex ascending series, plus log-gamma and log calls. On the
    2-core host where this was tuned, the kernel's time follows the time of
    an enumeration of zeros to within 11% while both drift by 1.6x.
    """
    total = 0j
    for k in range(300):
        term = 1 + 0j
        z = 0.25 + 0.01 * k
        for j in range(1, 12):
            term = term * z / (j * complex(j, 1.5))
            total += term
        total += math.lgamma(1.0 + 0.01 * k) + math.log(1.0 + k)
    return total


class Speed:
    """The machine's speed: the factor that scales a time to the reference.

    `factor` is CAL_REFERENCE_NS over the median of the last CAL_WINDOW
    kernel times.
    """

    def __init__(self):
        self._recent: deque = deque(maxlen=CAL_WINDOW)
        self.factor = 1.0
        for _ in range(CAL_WINDOW):
            self.measure()

    def measure(self) -> int:
        """Run the kernel once; return its wall time in ns."""
        t0 = time.perf_counter_ns()
        calibration_kernel()
        took = time.perf_counter_ns() - t0
        self._recent.append(took)
        self.factor = CAL_REFERENCE_NS / statistics.median(self._recent)
        return took


class Reservoir:
    """A uniform sample of at most `capacity` values from a stream.

    The buffer is allocated up front, so the worker's peak memory does not
    grow with the number of operations a run completes.
    """

    def __init__(self, capacity: int, rng: random.Random):
        self.values = array("q", [0]) * capacity
        self.count = 0
        self._random = rng.random

    def add(self, value: int) -> None:
        count, capacity = self.count, len(self.values)
        if count < capacity:
            self.values[count] = value
        else:
            slot = int(self._random() * (count + 1))
            if slot < capacity:
                self.values[slot] = value
        self.count = count + 1

    def samples(self) -> list[int]:
        return list(self.values[:min(self.count, len(self.values))])


def percentile(ordered: list, q: float) -> float:
    """The q-quantile (0 <= q <= 1) of an ascending, non-empty list."""
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(ordered: list, q: float) -> float | None:
    """The q-quantile, or None when fewer than ten samples lie beyond it."""
    value = percentile(ordered, q)
    beyond = len(ordered) - bisect_right(ordered, value)
    return value if beyond >= TAIL_MIN_BEYOND else None


def median(values: list) -> float:
    return percentile(sorted(values), 0.5)
