"""CPU and memory metering for the resource-consumption experiments.

Tables 1 and 2 of the paper report RAM (MB) and CPU (seconds) per
partitioner. We meter CPU with ``time.process_time`` and memory with
``tracemalloc`` peak allocation during the metered region — absolute
numbers are not comparable to the paper's JVM/SQL-Server setup, but the
*relative* shape (Schism's growth with coverage vs JECB's flat profile) is
what the experiment demonstrates.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass


@dataclass
class ResourceUsage:
    """Peak memory (bytes), CPU and wall time (seconds) of a metered region."""

    peak_memory_bytes: int = 0
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes / (1024.0 * 1024.0)

    def to_dict(self) -> dict:
        return {
            "peak_memory_bytes": self.peak_memory_bytes,
            "peak_memory_mb": self.peak_memory_mb,
            "cpu_seconds": self.cpu_seconds,
            "wall_seconds": self.wall_seconds,
        }

    def __str__(self) -> str:
        return (
            f"{self.peak_memory_mb:.1f} MB, {self.cpu_seconds:.2f} s CPU, "
            f"{self.wall_seconds:.2f} s wall"
        )


class ResourceMeter:
    """Context manager measuring peak allocations and CPU time.

    Usage::

        with ResourceMeter() as meter:
            partitioner.run(...)
        print(meter.usage)

    Nesting is not supported (``tracemalloc`` is process-global); the
    benches meter one partitioner at a time.
    """

    def __init__(self) -> None:
        self.usage = ResourceUsage()
        self._cpu_start = 0.0
        self._wall_start = 0.0
        self._started_tracing = False

    def __enter__(self) -> "ResourceMeter":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        tracemalloc.reset_peak()
        self._cpu_start = time.process_time()
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.usage.cpu_seconds = time.process_time() - self._cpu_start
        self.usage.wall_seconds = time.perf_counter() - self._wall_start
        _current, peak = tracemalloc.get_traced_memory()
        self.usage.peak_memory_bytes = peak
        if self._started_tracing:
            tracemalloc.stop()
