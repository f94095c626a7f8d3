"""The partitioning evaluator: Definitions 5 and 6.

Given a database partitioning and a (testing) trace, compute the fraction
of distributed transactions. A transaction is distributed when

1. it **writes** a replicated tuple (table replicated, or its value mapped
   to partition 0), or
2. the tuples it accesses span **more than one partition**.

Tuples whose join path cannot produce a root value are unroutable — they
would have to be located by broadcast — and make the transaction count as
distributed (the conservative reading the paper's router section implies).

This is the one implementation of Definition 5: every trace is interned
(:class:`~repro.trace.columnar.ColumnarTrace`) and scored by segmented
reductions over its columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.path_eval import ColumnarEngine
from repro.core.solution import DatabasePartitioning
from repro.storage.database import Database
from repro.trace.columnar import ColumnarClassTrace, ColumnarTrace
from repro.trace.events import Trace


@dataclass
class CostReport:
    """Aggregate and per-class distributed-transaction fractions."""

    total_transactions: int = 0
    distributed_transactions: int = 0
    per_class_total: dict[str, int] = field(default_factory=dict)
    per_class_distributed: dict[str, int] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        """Definition 6: fraction of distributed transactions."""
        if self.total_transactions == 0:
            return 0.0
        return self.distributed_transactions / self.total_transactions

    def class_cost(self, class_name: str) -> float:
        total = self.per_class_total.get(class_name, 0)
        if total == 0:
            return 0.0
        return self.per_class_distributed.get(class_name, 0) / total

    @property
    def class_costs(self) -> dict[str, float]:
        return {name: self.class_cost(name) for name in self.per_class_total}

    def __str__(self) -> str:
        lines = [
            f"cost: {self.cost:.1%} "
            f"({self.distributed_transactions}/{self.total_transactions} distributed)"
        ]
        for name in sorted(self.per_class_total):
            lines.append(f"  {name}: {self.class_cost(name):.1%}")
        return "\n".join(lines)


class PartitioningEvaluator:
    """Applies a partitioning to a trace and reports its cost (Figure 4).

    Every trace is scored on interned columns: each table solution gives
    the partition ids of the distinct tuples the trace touches, then three
    segmented reductions per class stream find the distributed
    transactions (an unroutable tuple, a replicated write, more than one
    partition touched).

    *engine* is the run's :class:`ColumnarEngine`, when there is one: its
    source trace (while unchanged), its :class:`ColumnarTrace` and its
    class views are read from its columns as they are. Any other trace is
    interned into an engine this evaluator keeps, and interned again when
    a different trace object arrives or the trace's length has changed.
    ``eval_seconds`` accumulates cost-evaluation wall time for the stage
    timers.
    """

    def __init__(
        self, database: Database, engine: ColumnarEngine | None = None
    ) -> None:
        self.database = database
        self.engine = engine
        self.eval_seconds = 0.0
        #: the engine holding the last trace that was not the run's
        self._interned: ColumnarEngine | None = None

    def evaluate(
        self, partitioning: DatabasePartitioning, trace: Trace
    ) -> CostReport:
        """Cost of *partitioning* over *trace* with per-class breakdown."""
        started = time.perf_counter()
        try:
            found = self._views(trace)
            if found is None:
                engine = ColumnarEngine(
                    self.database, ColumnarTrace.from_trace(trace)
                )
                self._interned = engine
                found = engine, list(engine.ctrace.views.values()), True
            return self._score(partitioning, *found)
        finally:
            self.eval_seconds += time.perf_counter() - started

    def _views(
        self, trace: Trace
    ) -> tuple[ColumnarEngine, list[ColumnarClassTrace], bool] | None:
        """The engine already holding *trace*, with its class views and
        whether they cover that engine's whole interned trace."""
        for engine in (self.engine, self._interned):
            if engine is None:
                continue
            ctrace = engine.ctrace
            source = ctrace.source
            unchanged = (
                source is not None and len(source) == ctrace.n_transactions
            )
            if trace is ctrace or (trace is source and unchanged):
                # Class views are kept in first-seen order, which is the
                # order each class first appears in the trace.
                return engine, list(ctrace.views.values()), True
            if isinstance(trace, ColumnarClassTrace) and trace.parent is ctrace:
                return engine, [trace], False
        return None

    def _score(
        self,
        partitioning: DatabasePartitioning,
        engine: ColumnarEngine,
        views: list[ColumnarClassTrace],
        whole: bool,
    ) -> CostReport:
        ctrace = engine.ctrace
        # Partition id per interned tuple: -1 unroutable, 0 replicated
        # (replicated tables are left at 0). Only tuples the evaluated
        # views actually touch are computed — evaluating one class's trace
        # (the statistics fallback does this per candidate mapping) must
        # not walk every key of every table. The whole trace touches every
        # interned tuple, so its per-table groups are read as they are.
        pid_of = np.zeros(max(ctrace.n_tuples, 1), dtype=np.int64)
        if whole:
            groups = {
                tid: (gids, np.arange(gids.size))
                for tid, gids in enumerate(ctrace.table_gids)
            }
        else:
            groups = ctrace.group_touched(
                np.concatenate([v.utuple_ids for v in views])
            )
        for tid, (gids, local_ids) in groups.items():
            solution = partitioning.solution_for(ctrace.tables[tid])
            if not solution.replicated:
                pid_of[gids] = solution.partition_ids(engine, local_ids)
        report = CostReport()
        for view in views:
            ntxn = len(view)
            if ntxn == 0:
                continue  # a class with no transactions is not reported
            report.total_transactions += ntxn
            report.per_class_total[view.class_name] = (
                report.per_class_total.get(view.class_name, 0) + ntxn
            )
            if view.tuple_ids.size == 0:
                continue
            pids = pid_of[view.tuple_ids]
            offsets = view.offsets
            starts = offsets[:-1]
            lengths = offsets[1:] - starts
            safe_starts = np.minimum(starts, pids.size - 1)
            # Condition union per access: unroutable, or replicated write.
            bad = (pids < 0) | ((pids == 0) & (view.write_bits != 0))
            any_bad = np.maximum.reduceat(bad.view(np.int8), safe_starts) > 0
            # Condition 2: more than one distinct positive partition id.
            lifted = np.where(pids > 0, pids, np.iinfo(np.int64).max)
            floored = np.where(pids > 0, pids, -1)
            mins = np.minimum.reduceat(lifted, safe_starts)
            maxs = np.maximum.reduceat(floored, safe_starts)
            multi = (maxs > -1) & (mins != maxs)
            distributed = int(((any_bad | multi) & (lengths > 0)).sum())
            if distributed:
                report.distributed_transactions += distributed
                report.per_class_distributed[view.class_name] = (
                    report.per_class_distributed.get(view.class_name, 0)
                    + distributed
                )
        return report

    def cost(self, partitioning: DatabasePartitioning, trace: Trace) -> float:
        return self.evaluate(partitioning, trace).cost
