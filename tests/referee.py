"""Referees: Definitions 5 and 7 computed by object scans.

The partitioner decides both definitions with vectorized kernels over an
interned trace (:class:`~repro.core.path_eval.ColumnarEngine` and
:class:`~repro.evaluation.evaluator.PartitioningEvaluator`). The scans
here compute the same definitions one transaction and one access at a
time through a :class:`~repro.core.path_eval.JoinPathEvaluator`, and the
differential tests hold the kernels to them.

:func:`intern` is how tests hand plain traces to the kernels.
"""

from __future__ import annotations

from repro.core.join_tree import JoinTree
from repro.core.mapping import REPLICATED
from repro.core.path_eval import ColumnarEngine, JoinPathEvaluator
from repro.core.solution import DatabasePartitioning
from repro.evaluation.evaluator import CostReport
from repro.storage.database import Database
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import Trace, TransactionTrace

#: "no value seen yet" marker for the Definition-7 scan
_NO_VALUE = object()


def intern(database: Database, *traces: Trace):
    """Intern traces of one transaction class into one engine.

    Returns the engine followed by one class view per trace, in order.
    A single trace becomes the engine's source trace; several are
    interned together and cut back apart, so every view reads the same
    engine.
    """
    if len(traces) == 1:
        ctrace = ColumnarTrace.from_trace(traces[0])
    else:
        ctrace = ColumnarTrace.from_trace(
            Trace([txn for trace in traces for txn in trace])
        )
    engine = ColumnarEngine(database, ctrace)
    (whole,) = ctrace.views.values()
    if len(traces) == 1:
        return engine, whole
    views = []
    start = 0
    for trace in traces:
        stop = start + len(trace)
        views.append(whole._subset(list(range(start, stop))))
        start = stop
    return (engine, *views)


def mapping_independent(
    tree: JoinTree, trace, evaluator: JoinPathEvaluator
) -> bool:
    """Definition 7: every transaction maps to exactly one root value.

    Stops at the first covered tuple whose root value is missing or
    differs from the transaction's first one; tuples of tables outside
    the tree are ignored.
    """
    for txn in trace:
        first = _NO_VALUE
        for table, key in txn.tuples:
            path = tree.paths.get(table)
            if path is None:
                continue
            value = evaluator.evaluate(path, key)
            if value is None or (
                first is not _NO_VALUE
                and value is not first
                and value != first
            ):
                return False
            first = value
    return True


def transaction_is_distributed(
    txn: TransactionTrace,
    partitioning: DatabasePartitioning,
    evaluator: JoinPathEvaluator,
) -> bool:
    """Definition 5 for a single transaction."""
    partitions: set[int] = set()
    for access in txn.accesses:
        solution = partitioning.solution_for(access.table)
        pid = solution.partition_of(access.key, evaluator)
        if pid is None:
            return True  # unroutable tuple: must broadcast
        if pid == REPLICATED:
            if access.write:
                return True  # condition 1: writes a replicated tuple
            continue  # replicated reads are local anywhere
        partitions.add(pid)
    return len(partitions) > 1  # condition 2


def cost_report(
    partitioning: DatabasePartitioning, trace, database: Database
) -> CostReport:
    """Definition 6 with per-class breakdown, one transaction at a time."""
    evaluator = JoinPathEvaluator(database)
    report = CostReport()
    for txn in trace:
        name = txn.class_name
        report.total_transactions += 1
        report.per_class_total[name] = report.per_class_total.get(name, 0) + 1
        if transaction_is_distributed(txn, partitioning, evaluator):
            report.distributed_transactions += 1
            report.per_class_distributed[name] = (
                report.per_class_distributed.get(name, 0) + 1
            )
    return report
