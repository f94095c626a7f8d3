"""Referees: Definitions 5 and 7 and the row placement, computed naively.

The partitioner decides both definitions with vectorized kernels over an
interned trace (:class:`~repro.core.path_eval.ColumnarEngine` and
:class:`~repro.evaluation.evaluator.PartitioningEvaluator`). The scans
here compute the same definitions one transaction and one access at a
time with an uncached walk per key (:func:`naive_root_value`), and the
differential tests hold the kernels to them. :func:`blame` counts greedy
elimination's offending tables from per-transaction value sets the same
way, where Phase 2 reads value codes; :func:`footprint` does the
same for the sites and partitions each transaction touches, which the
evaluator reports as ``Footprints``. :func:`chunk_tables` groups
the tuples a chunk of a class view touches by table with ``np.unique``;
the kernels do it with one mask and are held to it.

The serving tier reads one maintained
:class:`~repro.core.placement.PlacementStore`. :func:`naive_placement`
places every live row again with an uncached walk per key
(:func:`naive_root_value`), and :func:`naive_lookup` groups it by one
attribute; the router and cluster tests hold the store and its lookup
views to them after every write. :func:`eager_route` routes calls the
way the router did before it resolved lookups lazily: every candidate's
lookup (a :func:`naive_lookup`) is resolved before any argument is read.

:func:`intern` is how tests hand plain traces to the kernels;
:func:`named_transactions` hands a class view's transactions back to the
scans, and :func:`gathered_values` decodes the engine's per-tuple value
codes for comparison with them.

The executor runs compiled plans (:mod:`repro.engine.plan`): index
probes in a greedy join order, fused filters, closures.
:func:`naive_execute` runs a bound statement with none of that: full
scans in FROM order, nested loops over every combination, each predicate
interpreted from the AST. Only the binder's column resolution is shared.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from repro.core.join_path import JoinPath
from repro.core.join_tree import JoinTree
from repro.core.mapping import REPLICATED, stable_hash
from repro.core.path_eval import ColumnarEngine
from repro.core.solution import DatabasePartitioning
from repro.errors import BindingError, ExecutionError
from repro.evaluation.evaluator import CostReport
from repro.procedures.procedure import ProcedureCatalog
from repro.routing.router import (
    MISSING_ARGUMENT,
    NO_BINDINGS,
    UNKNOWN_VALUE,
    RoutingDecision,
)
from repro.schema.attribute import Attr
from repro.sql import ast
from repro.sql.bind import BoundStatement
from repro.sql.dataflow import analyze_dataflow
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


def named_transactions(view, trace: Trace) -> Trace:
    """The transactions of the object *trace* a class view names by id,
    in the view's order: the referee scans read objects, views hold ids."""
    by_id = {txn.txn_id: txn for txn in trace}
    return Trace([by_id[txn_id] for txn_id in view.txn_ids.tolist()])


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


def blame(tree: JoinTree, trace, database: Database) -> dict[str, int]:
    """Greedy elimination's per-table offender counts, from sets of
    values.

    In each transaction that breaks Definition 7, a table offends once
    if one of its tuples has no root value, and once more, when the
    transaction maps to several values, if it holds any value but the
    modal one (held by the most tables, ties to the smallest ``repr``).
    Values come from one :func:`naive_root_value` walk per tuple.
    """
    offenders = {table: 0 for table in tree.paths}
    for txn in trace:
        per_table: dict[str, set] = {}
        broken: set[str] = set()
        for table, key in txn.tuples:
            path = tree.paths.get(table)
            if path is None:
                continue
            value = naive_root_value(database, path, key)
            if value is None:
                broken.add(table)
            else:
                per_table.setdefault(table, set()).add(value)
        all_values = set().union(*per_table.values())
        if not broken and len(all_values) <= 1:
            continue
        for table in broken:
            offenders[table] += 1
        if len(all_values) > 1:
            counts: dict = {}
            for values in per_table.values():
                for value in values:
                    counts[value] = counts.get(value, 0) + 1
            modal = max(sorted(counts, key=repr), key=lambda v: counts[v])
            for table, values in per_table.items():
                if values != {modal}:
                    offenders[table] += 1
    return offenders


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
    for table, key, write in txn.accesses:
        solution = partitioning.solution_for(table)
        pid = naive_pid(database, solution, key)
        if pid is None:
            return True  # unroutable tuple: must broadcast
        if pid == REPLICATED:
            if write:
                return True  # condition 1: writes a replicated tuple
            continue  # replicated reads are local anywhere
        partitions.add(pid)
    return len(partitions) > 1  # condition 2


def footprint(
    txn: TransactionTrace,
    partitioning: DatabasePartitioning,
    database: Database,
) -> tuple[frozenset[int], bool, bool]:
    """The partitions *txn* touches, whether it writes a replicated tuple
    and whether it touches an unroutable one, with an uncached
    :func:`naive_pid` per access."""
    partitions: set[int] = set()
    writes_replicated = False
    unroutable = False
    for table, key, write in txn.accesses:
        solution = partitioning.solution_for(table)
        pid = naive_pid(database, solution, key)
        if pid is None:
            unroutable = True
        elif pid == REPLICATED:
            if write:
                writes_replicated = True
        else:
            partitions.add(pid)
    return frozenset(partitions), writes_replicated, unroutable


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


def chunk_tables(view, start: int, stop: int) -> dict[int, tuple[Any, Any]]:
    """Per-table (global ids, local ids) of the distinct tuples that
    transactions ``start:stop`` of *view* touch, by sorting the ids.

    :meth:`~repro.trace.columnar.ColumnarClassTrace.chunk_tables` answers
    with one mask over every interned tuple instead.
    """
    ctrace = view.parent
    uids = view.utuple_ids[view.uoffsets[start] : view.uoffsets[stop]]
    unique_gids = np.unique(uids)
    tids = ctrace.tuple_table[unique_gids]
    groups = {}
    for tid in np.unique(tids).tolist():
        gids = unique_gids[tids == tid]
        groups[tid] = (gids, ctrace.tuple_local[gids])
    return groups


def gathered_values(engine: ColumnarEngine, view, paths) -> list[tuple]:
    """``(table, key, value)`` of each distinct tuple *view* touches in a
    table *paths* covers, decoded from :meth:`ColumnarEngine.tuple_codes`
    (code 0 decodes to ``None``), for comparison with
    :func:`naive_root_value`. Every uncovered tuple must read ``-1``."""
    ctrace = engine.ctrace
    found = []
    codes = engine.tuple_codes(view, paths).tolist()
    for gid, code in zip(view.utuple_ids.tolist(), codes):
        table = ctrace.table_of(gid)
        if table not in paths:
            assert code == -1, (table, code)
            continue
        found.append((table, ctrace.key_of(gid), engine.values[code]))
    return found


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


def eager_route(
    database: Database,
    catalog: ProcedureCatalog,
    partitioning: DatabasePartitioning,
    calls,
) -> tuple[list[tuple[RoutingDecision, str | None]], set[Attr]]:
    """Route *calls* with every candidate lookup resolved up front.

    A procedure's candidates are its dataflow ``(attribute, parameter)``
    pairs in the router's order; each is routed against
    :func:`naive_lookup` over one :func:`naive_placement`. Returns each
    call's decision and broadcast cause (``None`` unless it broadcasts),
    and the attributes whose lookup some call consulted.
    """
    placement = naive_placement(database, partitioning)
    lookups: dict[Attr, dict] = {}
    plans: dict[str, list[tuple[Attr, str, dict]]] = {}
    for procedure in catalog:
        flow = analyze_dataflow(procedure, database.schema)
        pairs = sorted(
            flow.param_closure, key=lambda pair: (str(pair[0]), pair[1])
        )
        for attribute, _ in pairs:
            if attribute not in lookups:
                lookups[attribute] = naive_lookup(
                    database, partitioning, attribute, placement
                )
        plans[procedure.name] = [
            (attribute, param, lookups[attribute]) for attribute, param in pairs
        ]
    k = partitioning.num_partitions
    consulted: set[Attr] = set()
    out: list[tuple[RoutingDecision, str | None]] = []
    for name, arguments in calls:
        plan = plans.get(name, [])
        cause = NO_BINDINGS if not plan else MISSING_ARGUMENT
        single = best = replicated = None
        for attribute, param, lookup in plan:
            if param not in arguments:
                continue
            value = arguments[param]
            values = (
                tuple(value)
                if isinstance(value, (list, tuple, set))
                else (value,)
            )
            targets: set[int] = set()
            known = bool(values)
            for v in values:
                if v is None:
                    known = False
                    break
                consulted.add(attribute)
                if v not in lookup:
                    known = False
                    break
                targets |= lookup[v]
            if not known:
                cause = UNKNOWN_VALUE
                continue
            if not targets:
                if replicated is None:
                    replicated = RoutingDecision(
                        frozenset((1 + stable_hash(values) % k,)),
                        broadcast=False,
                        routing_attribute=attribute,
                        replicated_only=True,
                    )
                continue
            decision = RoutingDecision(
                frozenset(targets), broadcast=False, routing_attribute=attribute
            )
            if len(targets) == 1:
                single = decision
                break
            if best is None or len(targets) < len(best.partitions):
                best = decision
        chosen = single or replicated or best
        if chosen is None:
            everywhere = frozenset(range(1, k + 1))
            out.append((RoutingDecision(everywhere, broadcast=True), cause))
        else:
            out.append((chosen, None))
    return out, consulted


# ----------------------------------------------------------------------
# statement execution
# ----------------------------------------------------------------------
def naive_execute(
    database: Database, bound: BoundStatement, params: dict
) -> tuple[list[dict], list[tuple[str, tuple, bool]]]:
    """Run *bound*; return its result rows and its accesses, in order.

    SELECT reports every table's contributing rows, in FROM order, each
    key once in ``repr`` order; writes report one write per row, in the
    order they happen. ``@var`` targets are written into *params*.
    """
    if bound.unsupported is not None:
        raise ExecutionError(bound.unsupported)
    statement = bound.statement
    accesses: list[tuple[str, tuple, bool]] = []
    if isinstance(statement, ast.Select):
        rows = _naive_select(database, bound, params, accesses)
        return rows, accesses
    table = database.table(statement.table)
    if isinstance(statement, ast.Insert):
        assert statement.select is None, "the referee runs INSERT ... VALUES"
        row = dict.fromkeys(table.schema.column_names)
        for column, expr in zip(statement.columns, statement.values):
            row[column] = _value(expr, {}, bound, params)
        accesses.append((statement.table, table.insert(row), True))
        return [], accesses
    matched = [
        row
        for row in list(table.scan())
        if _holds(statement.where, {statement.table: row}, bound, params)
    ]
    for row in matched:
        key = table.primary_key_of(row)
        if isinstance(statement, ast.Update):
            combo = {statement.table: row}
            table.update(
                key,
                {
                    column: _value(expr, combo, bound, params)
                    for column, expr in statement.assignments
                },
            )
        else:
            table.delete(key)
        accesses.append((statement.table, key, True))
    return [], accesses


def _naive_select(database, bound, params, accesses) -> list[dict]:
    stmt = bound.statement
    tables = bound.tables
    conditions = tuple(
        ast.Comparison(join.left, "=", join.right) for join in stmt.joins
    ) + stmt.where
    combos = [
        dict(zip(tables, rows))
        for rows in itertools.product(
            *(list(database.table(name).scan()) for name in tables)
        )
    ]
    combos = [c for c in combos if _holds(conditions, c, bound, params)]
    for name in tables:
        table = database.table(name)
        keys = {table.primary_key_of(combo[name]) for combo in combos}
        accesses.extend((name, key, False) for key in sorted(keys, key=repr))
    if bound.order_by is not None:
        order = bound.order_by
        combos.sort(
            key=lambda c: (
                c[order.table][order.column] is None,
                c[order.table][order.column],
            ),
            reverse=stmt.order_by.descending,
        )
    items = list(zip(stmt.items, bound.items))
    if any(item.aggregate for item, _ in items):
        out: dict = {}
        values: list = []
        for item, attr in items:
            if not item.aggregate:
                raise ExecutionError("mixing aggregates and plain columns")
            value = _naive_aggregate(item.aggregate, attr, combos)
            out[item.alias or item.aggregate.lower()] = value
            values.append(value)
        results = [(out, values)]
    else:
        results = []
        for combo in combos:
            out = {}
            for item, attr in items:
                if attr is None:
                    for name in tables:
                        out.update(combo[name])
                else:
                    out[item.alias or attr.column] = combo[attr.table][attr.column]
            values = [
                None if attr is None else combo[attr.table][attr.column]
                for _, attr in items
            ]
            results.append((out, values))
    if stmt.distinct:
        unique: dict[tuple, tuple] = {}
        for out, values in results:
            unique.setdefault(tuple(sorted(out.items())), (out, values))
        results = list(unique.values())
    if stmt.limit is not None:
        results = results[: stmt.limit]
    for position, (item, _) in enumerate(items):
        if item.assign_to is not None:
            params[item.assign_to] = (
                results[-1][1][position] if results else None
            )
    return [out for out, _ in results]


def _naive_aggregate(func: str, attr, combos) -> Any:
    if attr is None:
        values = [1 for _ in combos]
    else:
        values = [
            c[attr.table][attr.column]
            for c in combos
            if c[attr.table][attr.column] is not None
        ]
    if func == "COUNT":
        return len(values)
    if not values:
        return None
    if func == "SUM":
        return sum(values)
    if func == "AVG":
        return sum(values) / len(values)
    return min(values) if func == "MIN" else max(values)


def _holds(predicates, combo, bound, params) -> bool:
    """Every predicate is true of *combo* (table -> row), NULL is false."""
    for pred in predicates:
        if isinstance(pred, ast.InPredicate):
            value = _value(pred.column, combo, bound, params)
            if pred.param is not None:
                candidates = _value(pred.param, combo, bound, params)
                if not isinstance(candidates, (list, tuple, set, frozenset)):
                    raise ExecutionError("IN parameter must be a collection")
            else:
                candidates = [
                    _value(v, combo, bound, params) for v in pred.values
                ]
            if value is None or value not in candidates:
                return False
        elif isinstance(pred, ast.BetweenPredicate):
            value = _value(pred.column, combo, bound, params)
            low = _value(pred.low, combo, bound, params)
            high = _value(pred.high, combo, bound, params)
            if None in (value, low, high) or not low <= value <= high:
                return False
        else:
            left = _value(pred.left, combo, bound, params)
            right = _value(pred.right, combo, bound, params)
            if left is None or right is None:
                return False
            if not _COMPARE[pred.op](left, right):
                return False
    return True


_COMPARE = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _value(expr, combo, bound, params) -> Any:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Param):
        if expr.name not in params:
            raise BindingError(f"unbound parameter @{expr.name}")
        return params[expr.name]
    if isinstance(expr, ast.BinaryOp):
        left = _value(expr.left, combo, bound, params)
        right = _value(expr.right, combo, bound, params)
        return left + right if expr.op == "+" else left - right
    attr = bound.attrs.get(expr)
    if attr is None or attr.table not in combo:
        raise ExecutionError(f"column reference {expr} where a scalar was expected")
    return combo[attr.table][attr.column]
