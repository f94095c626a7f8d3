"""Compiled statement plans: what the executor runs.

:func:`plan_of` compiles a bound statement (:mod:`repro.sql.bind`) once
and keeps the plan on it, so a stored procedure's statements compile once
per schema, beside the bound forms the procedure caches. A plan holds
closures, not AST nodes:

* per scan, the probe columns, the probe values (literals folded), the
  join values read from the rows fetched earlier, and one fused residual
  filter (IN predicates first, then the other filters, in WHERE order);
* ``itemgetter`` extractors for primary keys and projected columns;
* the SELECT items' ``@var`` targets and the UPDATE SET expressions.

A SELECT over one table works on its rows directly; a join works on
*combos*, tuples of rows in join order. Every row that contributes to the
result is appended to the executor's access sink as a ``(table, key,
write)`` tuple: per FROM table its distinct keys in ``repr`` order, or
one per row written.

An equality probe or join with a NULL value matches no row, and so does
a comparison or BETWEEN with a NULL side: SQL's NULL semantics.

Values that depend on parameters are read when the statement runs and
first needs them: a probe's unbound ``@param`` raises when its scan is
reached, a residual filter's (and a non-collection ``IN @param``) only
once a candidate row reaches the filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Collection, MutableMapping, Sequence

from repro.errors import ExecutionError
from repro.engine import expression as ex
from repro.engine.expression import Params, RowFn, ScalarFn
from repro.schema.attribute import Attr
from repro.schema.database import DatabaseSchema
from repro.sql import ast
from repro.sql.bind import BoundStatement, Scan
from repro.storage.database import Database
from repro.storage.table import KeyValue, Row, Table

Accesses = list[tuple[str, KeyValue, bool]]
#: what a scan sequence matched: a row (one table) or a combo (a join)
Match = Any
RowTest = Callable[[Row], bool]
Getter = Callable[[Match], Any]


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


def plan_of(bound: BoundStatement, schema: DatabaseSchema) -> "Plan":
    """The compiled plan of *bound*, compiled on first use and kept on it.

    Raises :class:`~repro.errors.ExecutionError` for a statement the
    binder marked as one the executor cannot run.
    """
    plan = bound.plan
    if plan is None:
        if bound.unsupported is not None:
            raise ExecutionError(bound.unsupported)
        plan = _compile(bound, schema)
        # The bound form is frozen; the plan is a pure function of it.
        object.__setattr__(bound, "plan", plan)
    return plan


def _compile(bound: BoundStatement, schema: DatabaseSchema) -> "Plan":
    statement = bound.statement
    if isinstance(statement, ast.Select):
        return SelectPlan.compile(bound, statement, schema)
    if isinstance(statement, ast.Insert):
        return InsertPlan.compile(bound, statement, schema)
    return WritePlan.compile(bound, statement, schema)


def _key_getter(schema: DatabaseSchema, table: str) -> Callable[[Row], KeyValue]:
    """The primary-key value tuple of a row of *table*."""
    columns = schema.table(table).primary_key
    if len(columns) == 1:
        (column,) = columns
        return lambda row: (row[column],)
    return itemgetter(*columns)


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ScanPlan:
    """One table's fetch: index probe, unanchored IN, or full scan."""

    table: str
    #: the equality-probe columns, then the join-probe columns
    columns: tuple[str, ...]
    #: the equality-probe values
    values: tuple[ScalarFn, ...]
    #: the join-probe values, read from the combo fetched so far
    joins: tuple[Callable[[tuple], Any], ...]
    #: an unanchored table's first IN predicate: column and candidates
    in_lookup: tuple[str, Callable[[Params], list[Any]]] | None
    #: the residual filter, bound to the parameters once per run
    accept: Callable[[Params], RowTest] | None

    @classmethod
    def compile(cls, scan: Scan, positions: dict[str, int]) -> "ScanPlan":
        columns = tuple(column for column, _ in scan.probes)
        columns += tuple(column for column, _ in scan.join_probes)
        joins = tuple(
            _combo_getter(positions[attr.table], attr.column)
            for _, attr in scan.join_probes
        )
        in_lookup = None
        if not columns and scan.in_preds:
            first = scan.in_preds[0]
            in_lookup = (first.column.name, _candidates(first))
        tests = [_in_test(pred) for pred in scan.in_preds]
        tests += [_filter_test(pred) for pred in scan.filters]
        return cls(
            scan.table,
            columns,
            tuple(ex.scalar(expr) for _, expr in scan.probes),
            joins,
            in_lookup,
            _fuse(tests),
        )

    def rows(self, table: Table, params: Params) -> list[Row]:
        """Rows of *table* that pass a scan without join probes.

        The probe values and an unanchored IN's candidates are read here,
        so a scan reads them only when it is reached.
        """
        static = tuple([value(params) for value in self.values])
        if self.columns:
            found = [] if None in static else table.lookup(self.columns, static)
        elif self.in_lookup is not None:
            column, candidates = self.in_lookup
            found = []
            seen: set[int] = set()
            for value in candidates(params):
                for row in table.lookup((column,), (value,)):
                    if id(row) not in seen:
                        seen.add(id(row))
                        found.append(row)
        else:
            found = list(table.scan())
        if self.accept is None:
            return found
        accept = self.accept(params)
        return [row for row in found if accept(row)]

    def fetcher(
        self, table: Table, params: Params
    ) -> Callable[[tuple], list[Row]]:
        """Rows of *table* that pass this scan, per combo fetched so far.

        Callers ask only when the scan is reached with some combo.
        """
        if not self.joins:
            found = self.rows(table, params)
            return lambda combo: found
        static = tuple([value(params) for value in self.values])
        accept = None if self.accept is None else self.accept(params)
        columns, joins, lookup = self.columns, self.joins, table.lookup

        def fetch(combo: tuple) -> list[Row]:
            values = static + tuple([get(combo) for get in joins])
            if None in values:
                return []
            found = lookup(columns, values)
            if accept is None:
                return found
            return [row for row in found if accept(row)]

        return fetch


def _candidates(pred: ast.InPredicate) -> Callable[[Params], list[Any]]:
    """An IN predicate's candidate values, in order."""
    if pred.param is None:
        values = tuple(ex.scalar(value) for value in pred.values or ())
        return lambda params: [value(params) for value in values]
    name = pred.param.name
    read = ex.scalar(pred.param)

    def collection(params: Params) -> list[Any]:
        value = read(params)
        if not isinstance(value, (list, tuple, set, frozenset)):
            raise ExecutionError(
                f"IN parameter @{name} must be a collection, "
                f"got {type(value).__name__}"
            )
        return list(value)

    return collection


def _in_test(pred: ast.InPredicate) -> Callable[[Params], RowTest]:
    """``column IN (...)``; the candidates are built at the first row."""
    column = pred.column.name
    candidates = _candidates(pred)

    def bind(params: Params) -> RowTest:
        built: Collection[Any] | None = None

        def test(row: Row) -> bool:
            nonlocal built
            if built is None:
                values = candidates(params)
                try:
                    built = frozenset(values)
                except TypeError:  # unhashable candidates: test the list
                    built = values
            return ex.in_values(row[column], built)

        return test

    return bind


def _filter_test(pred: ast.Predicate) -> Callable[[Params], RowTest]:
    if isinstance(pred, ast.BetweenPredicate):
        column = pred.column.name
        low, high = ex.scalar(pred.low), ex.scalar(pred.high)
        at_least, at_most = ex.comparator(">="), ex.comparator("<=")

        def between(params: Params) -> RowTest:
            def test(row: Row) -> bool:
                value = row[column]
                lo, hi = low(params), high(params)
                return at_least(value, lo) and at_most(value, hi)

            return test

        return between
    assert isinstance(pred, ast.Comparison)
    left, right = _side(pred.left), _side(pred.right)
    compare = ex.comparator(pred.op)
    return lambda params: lambda row: compare(
        left(row, params), right(row, params)
    )


def _side(expr: ast.Expr) -> RowFn:
    """One side of a residual comparison, read from the scan's own row."""
    if isinstance(expr, ast.ColumnRef):
        name = expr.name
        return lambda row, params: row[name]
    return ex.in_row(expr)


def _fuse(
    tests: Sequence[Callable[[Params], RowTest]]
) -> Callable[[Params], RowTest] | None:
    """One row test that applies *tests* in order, stopping at a failure."""
    if not tests:
        return None
    if len(tests) == 1:
        return tests[0]

    def bind(params: Params) -> RowTest:
        bound = [test(params) for test in tests]

        def accept(row: Row) -> bool:
            for test in bound:
                if not test(row):
                    return False
            return True

        return accept

    return bind


def _combo_getter(position: int, column: str) -> Callable[[tuple], Any]:
    return lambda combo: combo[position][column]


# ----------------------------------------------------------------------
# SELECT
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class SelectPlan:
    scans: tuple[ScanPlan, ...]
    #: per FROM table: its name and its key read from a row or combo
    keys: tuple[tuple[str, Callable[[Match], KeyValue]], ...]
    order_key: Callable[[Match], tuple] | None
    descending: bool
    #: an aggregate query's items, each reducing the matches to a value;
    #: the query's one match is then the list of those values
    aggregates: tuple[Callable[[list], Any], ...]
    output: Callable[[Match], dict[str, Any]]
    #: ``@var`` targets, read from the last match the LIMIT keeps
    assigns: tuple[tuple[str, Getter], ...]
    distinct: bool
    limit: int | None

    @classmethod
    def compile(
        cls, bound: BoundStatement, stmt: ast.Select, schema: DatabaseSchema
    ) -> "SelectPlan":
        positions = {scan.table: i for i, scan in enumerate(bound.scans)}
        single = len(bound.scans) == 1

        def getter(attr: Attr) -> Getter:
            if single:
                return itemgetter(attr.column)
            return _combo_getter(positions[attr.table], attr.column)

        keys = []
        for table in bound.tables:
            key = _key_getter(schema, table)
            if not single:
                key = _compose(key, itemgetter(positions[table]))
            keys.append((table, key))
        order_key = None
        if bound.order_by is not None:
            order_key = _order_key(getter(bound.order_by))
        items = list(zip(stmt.items, bound.items))
        aggregates: tuple[Callable[[list], Any], ...] = ()
        if any(item.aggregate for item, _ in items):
            aggregates = tuple(
                _aggregate(item, None if attr is None else getter(attr))
                for item, attr in items
            )
            names = tuple(
                item.alias or (item.aggregate or "").lower() for item, _ in items
            )
            output: Callable[[Match], dict[str, Any]] = lambda values: dict(
                zip(names, values)
            )
            assigns = tuple(
                (item.assign_to, itemgetter(i))
                for i, (item, _) in enumerate(items)
                if item.assign_to is not None
            )
        else:
            output = _output(items, bound.tables, positions, getter, single)
            assigns = tuple(
                (item.assign_to, getter(attr))
                for item, attr in items
                if attr is not None and item.assign_to is not None
            )
        return cls(
            tuple(ScanPlan.compile(scan, positions) for scan in bound.scans),
            tuple(keys),
            order_key,
            stmt.order_by is not None and stmt.order_by.descending,
            aggregates,
            output,
            assigns,
            stmt.distinct,
            stmt.limit,
        )

    def run(
        self,
        database: Database,
        accesses: Accesses | None,
        params: MutableMapping[str, Any],
    ) -> ExecResult:
        matches = self._fetch(database, params)
        if accesses is not None and matches:
            self._record(matches, accesses)
        return ExecResult(rows=self._project(matches, params))

    def _record(self, matches: list, accesses: Accesses) -> None:
        """Append each FROM table's distinct keys, in ``repr`` order."""
        if len(matches) == 1:
            accesses += [(table, key(matches[0]), False) for table, key in self.keys]
            return
        one_scan = len(self.scans) == 1  # one scan yields each row once
        for table, key in self.keys:
            found = map(key, matches) if one_scan else set(map(key, matches))
            accesses += [(table, v, False) for v in sorted(found, key=repr)]

    def _fetch(self, database: Database, params: Params) -> list:
        """The matching rows (one scan) or combos (a join)."""
        if len(self.scans) == 1:
            (scan,) = self.scans
            return scan.rows(database.table(scan.table), params)
        combos: list[tuple] = [()]
        for scan in self.scans:
            fetch = scan.fetcher(database.table(scan.table), params)
            combos = [
                combo + (row,) for combo in combos for row in fetch(combo)
            ]
            if not combos:
                break
        return combos

    def _project(
        self, matches: list, params: MutableMapping[str, Any]
    ) -> list[dict[str, Any]]:
        if self.order_key is not None:
            matches = sorted(matches, key=self.order_key, reverse=self.descending)
        if self.aggregates:
            matches = [[aggregate(matches) for aggregate in self.aggregates]]
        rows = list(map(self.output, matches))
        if self.distinct:
            unique: list[dict[str, Any]] = []
            kept: list = []
            seen: set[tuple] = set()
            for row, match in zip(rows, matches):
                marker = tuple(sorted(row.items(), key=lambda kv: kv[0]))
                if marker not in seen:
                    seen.add(marker)
                    unique.append(row)
                    kept.append(match)
            rows, matches = unique, kept
        if self.limit is not None:
            rows, matches = rows[: self.limit], matches[: self.limit]
        # the last row the result keeps wins, matching T-SQL semantics
        last = matches[-1] if matches else None
        for target, get in self.assigns:
            params[target] = None if last is None else get(last)
        return rows


def _compose(
    outer: Callable[[Any], Any], inner: Callable[[Any], Any]
) -> Callable[[Any], Any]:
    return lambda value: outer(inner(value))


def _order_key(get: Getter) -> Callable[[Match], tuple]:
    def key(item: Match) -> tuple:
        value = get(item)
        return (value is None, value)

    return key


def _output(
    items: list[tuple[ast.SelectItem, Attr | None]],
    tables: tuple[str, ...],
    positions: dict[str, int],
    getter: Callable[[Attr], Getter],
    single: bool,
) -> Callable[[Match], dict[str, Any]]:
    """The projected output dict of one row or combo."""
    if all(attr is not None for _, attr in items):
        names = tuple(item.alias or attr.column for item, attr in items if attr)
        if single and len(names) == 1:
            (name,) = names
            (column,) = (attr.column for _, attr in items if attr)
            return lambda row: {name: row[column]}
        if single:
            values = itemgetter(*(attr.column for _, attr in items if attr))
            return lambda row: dict(zip(names, values(row)))
        getters = tuple(getter(attr) for _, attr in items if attr)
        return lambda combo: dict(
            zip(names, [get(combo) for get in getters])
        )
    steps = [
        (None, None) if attr is None else (item.alias or attr.column, getter(attr))
        for item, attr in items
    ]
    star: Callable[[Match], Sequence[Row]]
    if single:
        star = lambda row: (row,)  # noqa: E731
    else:
        places = tuple(positions[table] for table in tables)
        star = lambda combo: [combo[place] for place in places]  # noqa: E731

    def output(match: Match) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name, get in steps:
            if get is None:
                for row in star(match):
                    out.update(row)
            else:
                out[name] = get(match)
        return out

    return output


_AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "SUM": sum,
    "AVG": lambda values: sum(values) / len(values),
    "MIN": min,
    "MAX": max,
}


def _aggregate(item: ast.SelectItem, get: Getter | None) -> Callable[[list], Any]:
    """One aggregate item's value over the matches."""
    if not item.aggregate:

        def mixed(matches: list) -> Any:
            raise ExecutionError(
                "mixing aggregates and plain columns is not supported"
            )

        return mixed
    func = item.aggregate
    apply = _AGGREGATES.get(func)
    if func != "COUNT" and apply is None:
        raise ExecutionError(f"unknown aggregate {func}")  # pragma: no cover

    def aggregate(matches: list) -> Any:
        if get is None:
            values = [1] * len(matches)
        else:
            values = [v for v in map(get, matches) if v is not None]
        if func == "COUNT":
            return len(values)
        return apply(values) if values else None

    return aggregate


# ----------------------------------------------------------------------
# writes
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class InsertPlan:
    """INSERT ... VALUES, or INSERT ... SELECT: one row per result.

    The SELECT's projected column order matches the INSERT column list
    (the parser enforces equal lengths and forbids ``*``), so rows are
    mapped positionally — aliases in the source query do not matter.
    """

    table: str
    columns: tuple[str, ...]
    values: tuple[ScalarFn, ...]
    source: SelectPlan | None

    @classmethod
    def compile(
        cls, bound: BoundStatement, stmt: ast.Insert, schema: DatabaseSchema
    ) -> "InsertPlan":
        source = None
        if bound.source is not None:
            plan = plan_of(bound.source, schema)
            assert isinstance(plan, SelectPlan)
            source = plan
        return cls(
            stmt.table,
            stmt.columns,
            tuple(ex.scalar(expr) for expr in stmt.values),
            source,
        )

    def run(
        self,
        database: Database,
        accesses: Accesses | None,
        params: MutableMapping[str, Any],
    ) -> ExecResult:
        table = database.table(self.table)
        if self.source is None:
            sources = [[value(params) for value in self.values]]
        else:
            result = self.source.run(database, accesses, params)
            sources = [list(out_row.values()) for out_row in result.rows]
        blank = dict.fromkeys(table.schema.column_names)
        for values in sources:
            if len(values) != len(self.columns):
                raise ExecutionError(
                    f"INSERT ... SELECT produced {len(values)} values for "
                    f"{len(self.columns)} columns"
                )
            row = dict(blank)
            row.update(zip(self.columns, values))
            key = table.insert(row)
            if accesses is not None:
                accesses.append((self.table, key, True))
        return ExecResult(affected=len(sources))


@dataclass(frozen=True, eq=False)
class WritePlan:
    """UPDATE or DELETE: the target's scan, then one write per match."""

    scan: ScanPlan
    key: Callable[[Row], KeyValue]
    #: UPDATE's SET clause; ``None`` for DELETE
    sets: tuple[tuple[str, RowFn], ...] | None

    @classmethod
    def compile(
        cls,
        bound: BoundStatement,
        stmt: ast.Update | ast.Delete,
        schema: DatabaseSchema,
    ) -> "WritePlan":
        sets = None
        if isinstance(stmt, ast.Update):
            sets = tuple(
                (column, ex.in_row(expr)) for column, expr in stmt.assignments
            )
        (scan,) = bound.scans
        return cls(
            ScanPlan.compile(scan, {scan.table: 0}),
            _key_getter(schema, scan.table),
            sets,
        )

    def run(
        self,
        database: Database,
        accesses: Accesses | None,
        params: MutableMapping[str, Any],
    ) -> ExecResult:
        name = self.scan.table
        table = database.table(name)
        matched = self.scan.rows(table, params)
        if self.sets is None:
            keys = [self.key(row) for row in matched]
            for key in keys:
                table.delete(key)
                if accesses is not None:
                    accesses.append((name, key, True))
            return ExecResult(affected=len(keys))
        for row in matched:
            changes = {column: value(row, params) for column, value in self.sets}
            key = self.key(row)
            table.update(key, changes)
            if accesses is not None:
                accesses.append((name, key, True))
        return ExecResult(affected=len(matched))


Plan = SelectPlan | InsertPlan | WritePlan
