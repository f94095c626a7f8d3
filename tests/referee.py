"""Referees: Definitions 5 and 7 and the row placement, computed naively.

The partitioner decides both definitions with vectorized kernels over an
interned trace (:class:`~repro.core.path_eval.ColumnarEngine` and
:class:`~repro.evaluation.evaluator.PartitioningEvaluator`). The scans
here compute the same definitions one transaction and one access at a
time with an uncached walk per key (:func:`naive_root_value`), and the
differential tests hold the kernels to them.

The serving tier reads one maintained
:class:`~repro.core.placement.PlacementStore`. :func:`naive_placement`
places every live row again with an uncached walk per key
(:func:`naive_root_value`), and :func:`naive_lookup` groups it by one
attribute; the router and cluster tests hold the store and its lookup
views to them after every write.

:func:`intern` is how tests hand plain traces to the kernels.
"""

from __future__ import annotations

from repro.core.join_path import JoinPath
from repro.core.join_tree import JoinTree
from repro.core.mapping import REPLICATED
from repro.core.path_eval import ColumnarEngine
from repro.core.solution import DatabasePartitioning
from repro.evaluation.evaluator import CostReport
from repro.schema.attribute import Attr
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


def mapping_independent(tree: JoinTree, trace, database: Database) -> bool:
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
            value = naive_root_value(database, path, key)
            if value is None or (
                first is not _NO_VALUE
                and value is not first
                and value != first
            ):
                return False
            first = value
    return True


def naive_pid(database: Database, solution, key: tuple) -> int | None:
    """Partition id of the tuple *key*: ``0`` replicated, None unroutable.

    A tuple-map solution (Schism's, no join path) answers for itself.
    """
    if solution.replicated:
        return REPLICATED
    if solution.path is None:
        return solution.partition_of(key)
    value = naive_root_value(database, solution.path, key)
    return None if value is None else solution.mapping(value)


def transaction_is_distributed(
    txn: TransactionTrace,
    partitioning: DatabasePartitioning,
    database: Database,
) -> bool:
    """Definition 5 for a single transaction."""
    partitions: set[int] = set()
    for access in txn.accesses:
        solution = partitioning.solution_for(access.table)
        pid = naive_pid(database, solution, access.key)
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
    report = CostReport()
    for txn in trace:
        name = txn.class_name
        report.total_transactions += 1
        report.per_class_total[name] = report.per_class_total.get(name, 0) + 1
        if transaction_is_distributed(txn, partitioning, database):
            report.distributed_transactions += 1
            report.per_class_distributed[name] = (
                report.per_class_distributed.get(name, 0) + 1
            )
    return report


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def naive_root_value(database, path: JoinPath, key: tuple):
    """Walk *path* from *key* with no cache and eager row fetches.

    Mirrors the path semantics — primary-key columns are known for free
    (so deleted rows with intra-key paths still evaluate), foreign-key
    hops resolve against live rows first and tombstones second — but
    shares none of the evaluator's laziness or memoization.
    """
    table = database.table(path.source_table)
    primary_key = table.schema.primary_key
    key = tuple(key)
    if len(primary_key) != len(key):
        return None
    env = dict(zip(primary_key, key))
    row = table.get_snapshot(key)
    if row is not None:
        env = {**row, **env}
    for step, node in zip(path.steps, path.nodes[1:]):
        if step.kind == "intra":
            if not all(attr.column in env for attr in node):
                return None
            continue
        fk = step.fk
        values = tuple(env.get(column) for column in fk.columns)
        if any(value is None for value in values):
            return None
        ref_table = database.table(fk.ref_table)
        matches = ref_table.lookup(fk.ref_columns, values)
        if matches:
            env = dict(matches[0])
        elif tuple(fk.ref_columns) == ref_table.schema.primary_key:
            tombstone = ref_table.get_snapshot(values)
            if tombstone is None:
                return None
            env = dict(tombstone)
        else:
            return None
    return env.get(path.destination.column)


def naive_placement(
    database: Database, partitioning: DatabasePartitioning
) -> dict[str, dict[tuple, int]]:
    """Every live row's partition id, per partitioned table.

    ``0`` value-replicated, ``-1`` unroutable; replicated tables are left
    out (every row of one is everywhere).
    """
    out: dict[str, dict[tuple, int]] = {}
    for table in database:
        solution = partitioning.solution_for(table.schema.name)
        if solution.replicated:
            continue
        assert solution.path is not None and solution.mapping is not None
        column = {}
        for key in table.keys():
            value = naive_root_value(database, solution.path, key)
            column[key] = -1 if value is None else solution.mapping(value)
        out[table.schema.name] = column
    return out


def naive_lookup(
    database: Database,
    partitioning: DatabasePartitioning,
    attribute: Attr,
    placement: dict[str, dict[tuple, int]] | None = None,
) -> dict:
    """*attribute* value -> partitions of its singly-homed rows.

    Every non-NULL value of a live row is a key; *placement* defaults to
    :func:`naive_placement`.
    """
    if placement is None:
        placement = naive_placement(database, partitioning)
    pids = placement.get(attribute.table, {})
    out: dict = {}
    for key, row in database.table(attribute.table).items():
        value = row.get(attribute.column)
        if value is None:
            continue
        found = out.setdefault(value, set())
        pid = pids.get(key, REPLICATED)
        if pid > 0:
            found.add(pid)
    return {value: frozenset(found) for value, found in out.items()}
