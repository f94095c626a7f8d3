"""Binding: the one place that decides what a statement's columns mean.

:func:`bind` reads a parsed statement against a schema once. It resolves
every column reference to an :class:`~repro.schema.attribute.Attr` under
one scope rule:

* a qualifier is looked up through the FROM clause's alias map (an alias
  shadows a table of the same name);
* a bare name must belong to exactly one FROM table (the write target for
  INSERT, UPDATE and DELETE);
* any other reference is a :class:`~repro.errors.BindError`.

The bound form also plans the statement for the executor: per FROM table,
in join order, the index probes (``column = scalar``), the join probes
(``column = column of a table fetched earlier``), the IN predicates and
the residual filters. The join order is greedy: the table with the most
equality, then IN, constraints first, then repeatedly the first remaining
table joined to one already placed (or, failing that, the first remaining
one). The static analyzer, the dataflow pass and the executor read the
bound form; none of them resolves a column itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import BindError, SchemaError
from repro.schema.attribute import Attr
from repro.schema.database import DatabaseSchema
from repro.sql import ast


@dataclass(frozen=True)
class Scan:
    """How the executor fetches and filters the rows of one table."""

    table: str
    #: ``column = expr`` with a column-free *expr*: an index probe
    probes: tuple[tuple[str, ast.Expr], ...]
    #: ``column = attr`` with *attr* in a table fetched earlier
    join_probes: tuple[tuple[str, Attr], ...]
    in_preds: tuple[ast.InPredicate, ...]
    #: predicates checked on every fetched row
    filters: tuple[ast.Predicate, ...]


@dataclass(frozen=True, eq=False)
class BoundStatement:
    """A statement with its references resolved and its execution planned."""

    statement: ast.Statement
    #: every column reference the statement's clauses mention, resolved
    attrs: Mapping[ast.ColumnRef, Attr]
    #: FROM tables, base table first; the target table for writes
    tables: tuple[str, ...]
    #: SELECT items, resolved (``None`` for ``*``)
    items: tuple[Attr | None, ...] = ()
    order_by: Attr | None = None
    #: one scan per table, in join order
    scans: tuple[Scan, ...] = ()
    #: why the executor cannot run a statement the analyzer accepts
    unsupported: str | None = None
    #: INSERT ... SELECT: the bound source query, and each inserted
    #: attribute paired with its source (``None`` for an aggregate)
    source: BoundStatement | None = None
    pairs: tuple[tuple[Attr, Attr | None], ...] = ()
    #: the executor's compiled plan, kept here on first execution
    #: (:func:`repro.engine.plan.plan_of`)
    plan: Any = field(default=None, repr=False)


def bind(statement: ast.Statement, schema: DatabaseSchema) -> BoundStatement:
    """Resolve and plan *statement* against *schema*.

    Raises :class:`~repro.errors.BindError` for a reference outside the
    statement's scope, an unknown table, or an unknown written column.
    """
    if isinstance(statement, ast.Select):
        return _bind_select(statement, schema)
    table = statement.table
    written: Sequence[str] = ()
    if isinstance(statement, ast.Insert):
        written = statement.columns
    elif isinstance(statement, ast.Update):
        written = [column for column, _ in statement.assignments]
    _check_columns(schema, table, written)
    if isinstance(statement, ast.Insert):
        if statement.select is None:
            return BoundStatement(statement, {}, (table,))
        source = _bind_select(statement.select, schema)
        pairs = tuple(
            (Attr(table, column), None if item.aggregate else attr)
            for column, item, attr in zip(
                statement.columns, statement.select.items, source.items
            )
        )
        return BoundStatement(
            statement, {}, (table,), source=source, pairs=pairs
        )
    refs = _where_refs(statement.where)
    if isinstance(statement, ast.Update):
        for _, expr in statement.assignments:
            refs.extend(ast.expr_columns(expr))
    attrs = _resolve_all(refs, schema, {table: table})
    scans, unsupported = _plan((table,), statement.where, attrs)
    return BoundStatement(
        statement, attrs, (table,), scans=scans, unsupported=unsupported
    )


def _bind_select(select: ast.Select, schema: DatabaseSchema) -> BoundStatement:
    tables = select.tables
    for table in tables:
        _check_columns(schema, table, ())
    refs = [item.expr for item in select.items if item.expr.name != "*"]
    for join in select.joins:
        refs += [join.left, join.right]
    refs += _where_refs(select.where)
    if select.order_by is not None:
        refs.append(select.order_by.column)
    attrs = _resolve_all(refs, schema, select.alias_map)
    items = tuple(
        None if item.expr.name == "*" else attrs[item.expr]
        for item in select.items
    )
    order = select.order_by
    order_by = None if order is None else attrs[order.column]
    if len(set(tables)) != len(tables):
        scans: tuple[Scan, ...] = ()
        unsupported: str | None = (
            "self-joins are supported by the analyzer but not by the "
            f"executor (FROM lists {', '.join(tables)})"
        )
    else:
        ons = tuple(
            ast.Comparison(join.left, "=", join.right) for join in select.joins
        )
        scans, unsupported = _plan(tables, ons + select.where, attrs)
    return BoundStatement(
        select, attrs, tables, items, order_by, scans, unsupported
    )


def _where_refs(where: tuple[ast.Predicate, ...]) -> list[ast.ColumnRef]:
    return [ref for pred in where for ref in ast.predicate_columns(pred)]


def _check_columns(
    schema: DatabaseSchema, table: str, columns: Sequence[str]
) -> None:
    if not schema.has_table(table):
        raise BindError(f"unknown table {table!r}")
    owner = schema.table(table)
    for column in columns:
        if not owner.has_column(column):
            raise BindError(f"unknown column {table}.{column}")


def _resolve_all(
    refs: Sequence[ast.ColumnRef],
    schema: DatabaseSchema,
    scope: Mapping[str, str],
) -> dict[ast.ColumnRef, Attr]:
    """Each distinct reference resolved once under the scope rule."""
    among = tuple(dict.fromkeys(scope.values()))
    attrs: dict[ast.ColumnRef, Attr] = {}
    for ref in refs:
        if ref in attrs:
            continue
        if ref.table is None:
            try:
                attrs[ref] = schema.resolve_column(ref.name, among)
            except SchemaError as exc:
                raise BindError(str(exc)) from None
            continue
        table = scope.get(ref.table)
        if table is None:
            raise BindError(f"{ref} references a table not in FROM")
        if not schema.table(table).has_column(ref.name):
            raise BindError(f"unknown column {ref}")
        attrs[ref] = Attr(table, ref.name)
    return attrs


def _plan(
    tables: tuple[str, ...],
    where: tuple[ast.Predicate, ...],
    attrs: Mapping[ast.ColumnRef, Attr],
) -> tuple[tuple[Scan, ...], str | None]:
    """Scans in join order, or the reason the executor cannot run them.

    *where* holds the ON conditions (as ``column = column``) and then the
    WHERE predicates. A residual filter runs on one table's rows, so one
    that reads a column of another table is not executable.
    """
    probes: dict[str, list[tuple[str, ast.Expr]]] = {t: [] for t in tables}
    in_preds: dict[str, list[ast.InPredicate]] = {t: [] for t in tables}
    filters: dict[str, list[ast.Predicate]] = {t: [] for t in tables}
    joins: list[tuple[Attr, Attr]] = []
    for pred in where:
        if isinstance(pred, ast.InPredicate):
            in_preds[attrs[pred.column].table].append(pred)
        elif isinstance(pred, ast.BetweenPredicate):
            filters[attrs[pred.column].table].append(pred)
        elif isinstance(pred.left, ast.ColumnRef) and isinstance(
            pred.right, ast.ColumnRef
        ):
            left, right = attrs[pred.left], attrs[pred.right]
            if left.table == right.table:
                filters[left.table].append(pred)
            elif pred.op == "=":
                joins.append((left, right))
            else:
                return (), _cross_table(pred)
        else:
            if isinstance(pred.left, ast.ColumnRef):
                ref, other = pred.left, pred.right
            elif isinstance(pred.right, ast.ColumnRef):
                ref, other = pred.right, pred.left
            else:
                return (), f"predicate {pred} references no column"
            attr = attrs[ref]
            columns = ast.expr_columns(other)
            if pred.op == "=" and not columns:
                probes[attr.table].append((attr.column, other))
            elif any(attrs[column].table != attr.table for column in columns):
                return (), _cross_table(pred)
            else:
                filters[attr.table].append(pred)

    remaining = sorted(
        tables, key=lambda t: (len(probes[t]), len(in_preds[t])), reverse=True
    )
    order = [remaining.pop(0)]
    while remaining:
        placed = set(order)
        index = next(
            (
                i
                for i, name in enumerate(remaining)
                if any(
                    (a.table == name and b.table in placed)
                    or (b.table == name and a.table in placed)
                    for a, b in joins
                )
            ),
            0,
        )
        order.append(remaining.pop(index))

    scans = []
    for position, table in enumerate(order):
        earlier = set(order[:position])
        join_probes = []
        for a, b in joins:
            if a.table == table and b.table in earlier:
                join_probes.append((a.column, b))
            elif b.table == table and a.table in earlier:
                join_probes.append((b.column, a))
        scans.append(
            Scan(
                table,
                tuple(probes[table]),
                tuple(join_probes),
                tuple(in_preds[table]),
                tuple(filters[table]),
            )
        )
    return tuple(scans), None


def _cross_table(pred: ast.Predicate) -> str:
    return (
        f"predicate {pred} compares columns of two tables other than by "
        "equality; the executor joins on column = column only"
    )
