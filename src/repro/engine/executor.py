"""Statement execution against the in-memory database.

The executor is deliberately simple — OLTP statements touch a handful of
rows via keys. It runs statements in their bound form
(:func:`repro.sql.bind.bind`), which already fixed every column and the
plan: per table, in join order, the equality probes (served by hash
indexes), the join probes (index nested-loop joins), the IN predicates and
the residual filters. Executing only substitutes parameters and runs.

Every row that contributes to a statement's result is reported through the
``on_access`` callback as ``(table, primary_key, is_write)``; this is the
hook the trace collector uses, mirroring the paper's instrumented stored
procedures (Section 4 / Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, MutableMapping

from repro.errors import ExecutionError
from repro.engine import expression as ex
from repro.schema.attribute import Attr
from repro.sql import ast
from repro.sql.bind import BoundStatement, Scan
from repro.storage.database import Database
from repro.storage.table import KeyValue, Row

AccessCallback = Callable[[str, KeyValue, bool], None]


@dataclass
class ExecResult:
    """Outcome of one statement.

    ``rows`` holds projected output dicts for SELECT; ``affected`` counts
    modified rows for INSERT/UPDATE/DELETE.
    """

    rows: list[dict[str, Any]] = field(default_factory=list)
    affected: int = 0

    @property
    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        if not self.rows:
            return None
        first = self.rows[0]
        return next(iter(first.values())) if first else None


class Executor:
    """Runs bound statements against one :class:`Database`."""

    def __init__(
        self, database: Database, on_access: AccessCallback | None = None
    ) -> None:
        self.database = database
        self.on_access = on_access

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(
        self,
        bound: BoundStatement,
        params: MutableMapping[str, Any] | None = None,
    ) -> ExecResult:
        """Execute *bound* with parameter bindings *params*.

        ``@var =`` SELECT targets write back into *params*, so procedures
        can thread values between statements.
        """
        params = params if params is not None else {}
        if bound.unsupported is not None:
            raise ExecutionError(bound.unsupported)
        statement = bound.statement
        if isinstance(statement, ast.Select):
            return self._execute_select(bound, statement, params)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(bound, statement, params)
        rows = self._fetch(bound.scans[0], {}, params)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, rows, params)
        return self._execute_delete(statement, rows)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _execute_select(
        self,
        bound: BoundStatement,
        stmt: ast.Select,
        params: MutableMapping[str, Any],
    ) -> ExecResult:
        combos: list[dict[str, Row]] = [{}]
        for scan in bound.scans:
            combos = [
                {**combo, scan.table: row}
                for combo in combos
                for row in self._fetch(scan, combo, params)
            ]
            if not combos:
                break
        for table_name in bound.tables:
            table = self.database.table(table_name)
            keys = {table.primary_key_of(c[table_name]) for c in combos}
            for key in sorted(keys, key=repr):
                self._record(table_name, key, is_write=False)
        return ExecResult(rows=self._project(bound, stmt, combos, params))

    def _fetch(
        self, scan: Scan, combo: dict[str, Row], params: Mapping[str, Any]
    ) -> list[Row]:
        """Rows of *scan*'s table satisfying its constraints given *combo*."""
        table = self.database.table(scan.table)
        cols = [column for column, _ in scan.probes]
        vals = [ex.eval_scalar(expr, params) for _, expr in scan.probes]
        for column, attr in scan.join_probes:
            cols.append(column)
            vals.append(combo[attr.table][attr.column])
        if cols:
            candidates = table.lookup(tuple(cols), tuple(vals))
        elif scan.in_preds:
            # An unanchored table is served from its first IN predicate.
            pred = scan.in_preds[0]
            candidates = []
            seen: set[int] = set()
            for value in self._in_candidates(pred, params):
                for row in table.lookup((pred.column.name,), (value,)):
                    if id(row) not in seen:
                        seen.add(id(row))
                        candidates.append(row)
        else:
            candidates = list(table.scan())
        return [
            row for row in candidates if self._row_passes(row, scan, params)
        ]

    def _in_candidates(
        self, pred: ast.InPredicate, params: Mapping[str, Any]
    ) -> list[Any]:
        if pred.param is not None:
            value = ex.eval_scalar(pred.param, params)
            if not isinstance(value, (list, tuple, set, frozenset)):
                raise ExecutionError(
                    f"IN parameter @{pred.param.name} must be a collection, "
                    f"got {type(value).__name__}"
                )
            return list(value)
        return [ex.eval_scalar(v, params) for v in pred.values or ()]

    def _row_passes(
        self, row: Row, scan: Scan, params: Mapping[str, Any]
    ) -> bool:
        for pred in scan.in_preds:
            if not ex.in_values(row[pred.column.name], self._in_candidates(pred, params)):
                return False
        for pred in scan.filters:
            if isinstance(pred, ast.Comparison):
                left = self._pred_side(pred.left, row, params)
                right = self._pred_side(pred.right, row, params)
                if not ex.compare(pred.op, left, right):
                    return False
            elif isinstance(pred, ast.BetweenPredicate):
                value = row[pred.column.name]
                low = ex.eval_scalar(pred.low, params)
                high = ex.eval_scalar(pred.high, params)
                if value is None or not (low <= value <= high):
                    return False
        return True

    @staticmethod
    def _pred_side(expr: ast.Expr, row: Row, params: Mapping[str, Any]) -> Any:
        if isinstance(expr, ast.ColumnRef):
            return row[expr.name]
        return ex.eval_in_row(expr, row, params)

    # ------------------------------------------------------------------
    # projection / aggregation
    # ------------------------------------------------------------------
    def _project(
        self,
        bound: BoundStatement,
        stmt: ast.Select,
        combos: list[dict[str, Row]],
        params: MutableMapping[str, Any],
    ) -> list[dict[str, Any]]:
        if stmt.order_by is not None:
            assert bound.order_by is not None
            table, column = bound.order_by.table, bound.order_by.column
            combos = sorted(
                combos,
                key=lambda c: (c[table][column] is None, c[table][column]),
                reverse=stmt.order_by.descending,
            )
        items = list(zip(stmt.items, bound.items))
        if any(item.aggregate for item, _ in items):
            rows = [self._aggregate_row(items, combos, params)]
        else:
            rows = []
            for combo in combos:
                out: dict[str, Any] = {}
                for item, attr in items:
                    if attr is None:
                        for table_name in bound.tables:
                            out.update(combo[table_name])
                        continue
                    value = combo[attr.table][attr.column]
                    out[item.alias or attr.column] = value
                    if item.assign_to is not None:
                        # last row wins, matching T-SQL semantics
                        params[item.assign_to] = value
                rows.append(out)
            if not rows:
                for item, _ in items:
                    if item.assign_to is not None:
                        params[item.assign_to] = None
            if stmt.distinct:
                unique: list[dict[str, Any]] = []
                seen: set[tuple] = set()
                for out in rows:
                    marker = tuple(sorted(out.items(), key=lambda kv: kv[0]))
                    if marker not in seen:
                        seen.add(marker)
                        unique.append(out)
                rows = unique
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        return rows

    def _aggregate_row(
        self,
        items: list[tuple[ast.SelectItem, Attr | None]],
        combos: list[dict[str, Row]],
        params: MutableMapping[str, Any],
    ) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for item, attr in items:
            if not item.aggregate:
                raise ExecutionError(
                    "mixing aggregates and plain columns is not supported"
                )
            name = item.alias or f"{item.aggregate.lower()}"
            if attr is None:
                values = [1] * len(combos)
            else:
                values = [
                    c[attr.table][attr.column]
                    for c in combos
                    if c[attr.table][attr.column] is not None
                ]
            value = self._apply_aggregate(item.aggregate, values)
            out[name] = value
            if item.assign_to is not None:
                params[item.assign_to] = value
        return out

    @staticmethod
    def _apply_aggregate(func: str, values: list[Any]) -> Any:
        if func == "COUNT":
            return len(values)
        if not values:
            return None
        if func == "SUM":
            return sum(values)
        if func == "AVG":
            return sum(values) / len(values)
        if func == "MIN":
            return min(values)
        if func == "MAX":
            return max(values)
        raise ExecutionError(f"unknown aggregate {func}")  # pragma: no cover

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _execute_insert(
        self,
        bound: BoundStatement,
        stmt: ast.Insert,
        params: MutableMapping[str, Any],
    ) -> ExecResult:
        """INSERT ... VALUES, or INSERT ... SELECT: one row per result.

        The SELECT's projected column order matches the INSERT column list
        (the parser enforces equal lengths and forbids ``*``), so rows are
        mapped positionally — aliases in the source query do not matter.
        """
        table = self.database.table(stmt.table)
        if bound.source is None:
            sources = [[ex.eval_scalar(expr, params) for expr in stmt.values]]
        else:
            assert isinstance(bound.source.statement, ast.Select)
            result = self._execute_select(
                bound.source, bound.source.statement, params
            )
            sources = [list(out_row.values()) for out_row in result.rows]
        for values in sources:
            if len(values) != len(stmt.columns):
                raise ExecutionError(
                    f"INSERT ... SELECT produced {len(values)} values for "
                    f"{len(stmt.columns)} columns"
                )
            row: dict[str, Any] = {c: None for c in table.schema.column_names}
            row.update(zip(stmt.columns, values))
            key = table.insert(row)
            self._record(stmt.table, key, is_write=True)
        return ExecResult(affected=len(sources))

    def _execute_update(
        self,
        stmt: ast.Update,
        matched: list[Row],
        params: MutableMapping[str, Any],
    ) -> ExecResult:
        table = self.database.table(stmt.table)
        for row in matched:
            changes = {
                column: ex.eval_in_row(expr, row, params)
                for column, expr in stmt.assignments
            }
            key = table.primary_key_of(row)
            table.update(key, changes)
            self._record(stmt.table, key, is_write=True)
        return ExecResult(affected=len(matched))

    def _execute_delete(
        self, stmt: ast.Delete, matched: list[Row]
    ) -> ExecResult:
        table = self.database.table(stmt.table)
        keys = [table.primary_key_of(row) for row in matched]
        for key in keys:
            table.delete(key)
            self._record(stmt.table, key, is_write=True)
        return ExecResult(affected=len(keys))

    def _record(self, table: str, key: KeyValue, is_write: bool) -> None:
        if self.on_access is not None:
            self.on_access(table, key, is_write)
