"""Timing that is corrected for the speed the machine runs at.

The benchmark runs on shared machines whose CPU speed drifts: on the
2-vCPU VM this benchmark was tuned on, a fixed Python loop took 42 ms in
one minute and 80 ms in the next, with phases lasting from one second to
over half a minute. Wall times taken minutes apart then differ by more
than any useful regression bound.

:class:`SpeedClock` measures that speed while the benchmark runs. A
``SIGALRM`` timer interrupts the process every :data:`SAMPLE_INTERVAL_S`
and runs :func:`reference_kernel`, a fixed piece of pure-Python work. The
kernel's own time is subtracted from every interval measured through the
clock. Afterwards, :meth:`SpeedClock.scale` turns a wall interval into
*reference seconds*: the wall time multiplied by
``NOMINAL_KERNEL_S / kernel time`` around that interval, which is the
time the work would have taken at the speed where the kernel takes
:data:`NOMINAL_KERNEL_S`.

The kernel is a tight loop of dictionary updates. Over the largest swing
seen while tuning (wall times 1.65x apart), the TPC-E pipeline and the
TATP window slowed down about as much as this loop. A kernel that also
did lookups in a large table slowed down 10-20% less than they did.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

#: seconds between two speed samples
SAMPLE_INTERVAL_S = 0.05
#: duration of :func:`reference_kernel` that defines reference seconds
NOMINAL_KERNEL_S = 0.001
#: speed samples smoothed into one estimate (a running median)
SMOOTHING = 5


def reference_kernel() -> None:
    """Fixed pure-Python work: a tight loop of small-dictionary updates."""
    table: dict[int, int] = {}
    for i in range(6000):
        key = i & 255
        table[key] = table.get(key, 0) + i


class SpeedClock:
    """A ``perf_counter`` that excludes its own speed samples.

    Use as a context manager; :meth:`now` is valid inside it, and
    :meth:`scale` once enough samples exist (normally after the run).
    """

    def __init__(self) -> None:
        #: ``now()`` reading at each sample, and the kernel's duration there
        self.sample_times = array("d")
        self.kernel_seconds = array("d")
        self.sampling_seconds = 0.0
        self._factors: list[float] | None = None
        self._previous_handler = None

    def __enter__(self) -> "SpeedClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _sample(self, signum: int, frame: object) -> None:
        started = time.perf_counter()
        reference_kernel()
        ended = time.perf_counter()
        self.sample_times.append(started - self.sampling_seconds)
        self.kernel_seconds.append(ended - started)
        self.sampling_seconds += ended - started
        self._factors = None

    def now(self) -> float:
        """Seconds on a clock that stops while a speed sample runs."""
        return time.perf_counter() - self.sampling_seconds

    def _speed_factors(self) -> list[float]:
        if self._factors is None:
            costs = self.kernel_seconds
            if not costs:
                raise RuntimeError("no speed samples were taken")
            half = SMOOTHING // 2
            self._factors = [
                NOMINAL_KERNEL_S
                / statistics.median(costs[max(0, i - half) : i + half + 1])
                for i in range(len(costs))
            ]
        return self._factors

    def factor_at(self, moment: float) -> float:
        """Reference seconds per wall second around the ``now()`` reading
        *moment*."""
        factors = self._speed_factors()
        index = bisect.bisect_left(self.sample_times, moment)
        return factors[min(index, len(factors) - 1)]

    def scale(self, started: float, ended: float) -> float:
        """Reference seconds for the wall interval between two ``now()``s."""
        factors = self._speed_factors()
        low = bisect.bisect_left(self.sample_times, started)
        high = bisect.bisect_right(self.sample_times, ended)
        inside = factors[low:high]
        if inside:
            factor = sum(inside) / len(inside)
        else:
            factor = self.factor_at((started + ended) / 2)
        return (ended - started) * factor
