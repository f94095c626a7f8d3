"""Span tracing around the public entry points of each layer.

The benchmark measures end-to-end metrics with tracing off. For per-layer
numbers it runs one more round with :func:`instrument` active: the public
functions listed in :data:`TRACED` are replaced by wrappers that record a
span (name, start, end, parent) per call, and restored afterwards. Spans
live in flat arrays, so a round with a few hundred thousand calls stays a
few megabytes, and are written out once the run ends.

A span's self time is its duration minus the time its direct children
cover; :meth:`Tracer.totals` aggregates both per span name.
"""

from __future__ import annotations

import gc
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.cluster import Cluster
from repro.core.partitioner import JECBPartitioner
from repro.engine.executor import Executor
from repro.evaluation import framework
from repro.evaluation.evaluator import PartitioningEvaluator
from repro.routing.lookup_table import LookupTable
from repro.routing.router import Router
from repro.workloads.base import Benchmark

#: (span name, owner, attribute): the layer boundaries that get a span.
#: ``train_test_split`` is patched where the evaluation framework looks
#: it up, since that module imported it by name.
TRACED: tuple[tuple[str, Any, str], ...] = (
    ("workloads.generate", Benchmark, "generate"),
    ("engine.execute", Executor, "execute"),
    ("trace.split", framework, "train_test_split"),
    ("core.partition", JECBPartitioner, "run"),
    ("evaluation.evaluate", PartitioningEvaluator, "evaluate"),
    ("routing.route", Router, "route"),
    ("routing.route_batch", Router, "route_batch"),
    ("routing.lookup_build", LookupTable, "build"),
    ("cluster.install", Cluster, "install"),
    ("cluster.replay", Cluster, "run_trace"),
    ("cluster.execute", Cluster, "execute"),
)


@dataclass
class SpanTotals:
    """Per-name aggregate of spans."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory span recorder; one instance per traced round."""

    def __init__(self, now: Callable[[], float] = time.perf_counter) -> None:
        self._now = now
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = [-1]
        #: start and end of every garbage collection, flattened
        self.gc_intervals = array("d")

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
        return nid

    def _open_span(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(self._now())
        return index

    def _close_span(self, index: int) -> None:
        self.end[index] = self._now()
        self._open.pop()

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """*function* with every call recorded as a span called *name*."""
        nid = self._name_id(name)
        open_span, close_span = self._open_span, self._close_span

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span(nid)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        self.gc_intervals.append(self._now())

    def totals(
        self, duration: Callable[[float, float], float]
    ) -> dict[str, SpanTotals]:
        """Call count, inclusive time and self time per span name.

        *duration* turns a span's start and end into its length, so the
        caller can express spans in its own unit of time.
        """
        lengths = [duration(s, e) for s, e in zip(self.start, self.end)]
        children = [0.0] * len(lengths)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += lengths[index]
        out = {name: SpanTotals() for name in self.names}
        for index, nid in enumerate(self.name_id):
            length = lengths[index]
            agg = out[self.names[nid]]
            agg.count += 1
            agg.total_s += length
            agg.self_s += length - children[index]
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tname\tparent\tstart_s\tend_s\n")
            for index, nid in enumerate(self.name_id):
                out.write(
                    f"{index}\t{self.names[nid]}\t{self.parent[index]}\t"
                    f"{self.start[index]!r}\t{self.end[index]!r}\n"
                )


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every :data:`TRACED` function and watch the collector."""
    saved = []
    for name, owner, attribute in TRACED:
        original = vars(owner)[attribute]
        if isinstance(original, classmethod):
            patched: Any = classmethod(tracer.wrap(name, original.__func__))
        else:
            patched = tracer.wrap(name, original)
        saved.append((owner, attribute, original))
        setattr(owner, attribute, patched)
    gc.callbacks.append(tracer._on_gc)
    try:
        yield tracer
    finally:
        gc.callbacks.remove(tracer._on_gc)
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
