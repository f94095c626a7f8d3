"""Differential: the compiled executor against the naive referee executor.

Each example draws a small schema (one to three tables, single or
composite primary keys), a few rows per table and a few statements in
the dialect of ``tests/test_parser_properties.py``. Each statement is
rendered to SQL, parsed back and bound; then
:class:`~repro.engine.Executor` and :func:`tests.referee.naive_execute`
run it on fresh twin databases. They must
agree on the result rows, the ``@var`` environment, the access records
and the database left behind, or raise the same exception type.

Values are integers or NULL and every parameter is bound, so whether a
statement raises does not depend on the order rows are visited in
(``tests/test_executor_errors.py`` pins that order). Some orders are not
the statement's to fix, and the comparison allows for them:

* result rows compare as a multiset unless one table is ordered by its
  unique ``K`` column (or the query aggregates to one row); LIMIT and
  ``@var`` targets are drawn only when the order is fixed that way;
* a SELECT's reads compare in order (tables in FROM order, keys in
  ``repr`` order); a write's records compare as a multiset, since the
  executor visits rows in index order and the referee in table order.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Executor
from repro.schema import DatabaseSchema, integer_table
from repro.sql import ast
from repro.sql.bind import bind
from repro.sql.parser import parse_statement
from repro.storage import Database

from tests.referee import naive_execute
from tests.test_parser_properties import AGGREGATES, COMPARISON_OPS

SCALAR_PARAMS = ("p0", "p1", "p2")
values = st.one_of(st.none(), st.integers(min_value=0, max_value=2))


# ----------------------------------------------------------------------
# schemas and rows
# ----------------------------------------------------------------------
@st.composite
def schemas(draw):
    """``(name, columns, primary key)`` per table; ``T<i>_K`` is unique."""
    tables = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        name = f"T{i}"
        data = [f"{name}_C{j}" for j in range(draw(st.integers(1, 3)))]
        composite = len(data) > 1 and draw(st.booleans())
        key = [f"{name}_K"] + data[-1:] if composite else [f"{name}_K"]
        tables.append((name, [f"{name}_K"] + data, key))
    return tables


@st.composite
def contents(draw, tables):
    """Rows per table: distinct ``K`` values, other columns small or NULL."""
    out = {}
    for name, columns, key in tables:
        ks = draw(st.lists(st.integers(0, 6), min_size=1, max_size=6, unique=True))
        rows = []
        for k in ks:
            row = {columns[0]: k}
            for column in columns[1:]:
                in_key = column in key
                row[column] = draw(st.integers(0, 2) if in_key else values)
            rows.append(row)
        out[name] = rows
    return out


def build(tables, rows) -> Database:
    schema = DatabaseSchema("differential")
    for name, columns, key in tables:
        schema.add_table(integer_table(name, columns, key))
    database = Database(schema)
    for name, table_rows in rows.items():
        for row in table_rows:
            database.insert(name, row)
    return database


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
def _scalar():
    return st.one_of(
        values.map(ast.Literal),
        st.sampled_from(SCALAR_PARAMS).map(ast.Param),
    )


def _column(columns):
    """A column, bare or qualified with its table (``T<i>``)."""
    return st.sampled_from(columns).flatmap(
        lambda name: st.sampled_from(
            (ast.ColumnRef(name), ast.ColumnRef(name, name.split("_")[0]))
        )
    )


def _predicate(columns, others):
    """A WHERE predicate on *columns*; comparisons may reach *others*.

    Equality, the probes and joins of OLTP statements, is drawn most.
    """
    column = _column(columns)
    comparison = st.builds(
        ast.Comparison,
        left=column,
        op=st.one_of(st.just("="), st.sampled_from(COMPARISON_OPS)),
        right=st.one_of(_scalar(), _column(others)),
    )
    return st.one_of(
        comparison,
        comparison,
        st.builds(
            ast.InPredicate,
            column=column,
            values=st.lists(_scalar(), min_size=1, max_size=3).map(tuple),
        ),
        st.builds(ast.InPredicate, column=column, param=st.just(ast.Param("ids"))),
        st.builds(
            ast.BetweenPredicate, column=column, low=_scalar(), high=_scalar()
        ),
    )


@st.composite
def selects(draw, tables):
    chosen = draw(st.permutations(tables))[: draw(st.integers(1, len(tables)))]
    columns = [c for _, table_columns, _ in chosen for c in table_columns]
    joins = []
    for position, (name, table_columns, _) in enumerate(chosen[1:], 1):
        earlier = [c for _, cs, _ in chosen[:position] for c in cs]
        joins.append(
            ast.Join(
                name,
                draw(_column(table_columns)),
                draw(_column(earlier)),
            )
        )
    base = chosen[0][0]
    key = f"{base}_K"
    order_by = draw(
        st.one_of(
            st.none(),
            st.builds(
                ast.OrderBy,
                column=st.one_of(st.just(ast.ColumnRef(key)), _column(columns)),
                descending=st.booleans(),
            ),
        )
    )
    ordered = (
        len(chosen) == 1 and order_by is not None and order_by.column.name == key
    )
    shape = draw(st.sampled_from(("columns", "columns", "aggregates", "*", "mixed")))
    if shape == "*":
        items = [ast.SelectItem(ast.ColumnRef("*"))]
    else:
        aggregate = st.sampled_from(AGGREGATES) if shape != "columns" else st.none()
        items = [
            ast.SelectItem(draw(_column(columns)), aggregate=draw(aggregate))
            for _ in range(draw(st.integers(1, 3)))
        ]
    if shape == "mixed":  # not supported: the executor raises
        items.append(ast.SelectItem(draw(_column(columns))))
    aggregated = all(item.aggregate for item in items)
    if aggregated and draw(st.booleans()):
        items[0] = ast.SelectItem(ast.ColumnRef("*"), aggregate="COUNT")
    if ordered or aggregated:
        items = [
            ast.SelectItem(
                item.expr,
                item.aggregate,
                assign_to=draw(st.sampled_from((None, "v0", "v1"))),
            )
            if item.expr.name != "*" or item.aggregate
            else item
            for item in items
        ]
    where = draw(st.lists(_predicate(columns, columns), max_size=3))
    statement = ast.Select(
        tuple(items),
        base,
        tuple(joins),
        tuple(where),
        order_by,
        limit=draw(st.one_of(st.none(), st.integers(0, 3))) if ordered else None,
        distinct=draw(st.booleans()),
    )
    return statement, ordered or aggregated


@st.composite
def writes(draw, tables):
    name, columns, key = draw(st.sampled_from(tables))
    where = tuple(draw(st.lists(_predicate(columns, columns), max_size=2)))
    kind = draw(st.sampled_from(("insert", "update", "delete")))
    if kind == "insert":
        inserted = (ast.Literal(draw(st.integers(0, 8))),) + tuple(
            draw(_scalar()) for _ in columns[1:]
        )
        return ast.Insert(name, tuple(columns), inserted)
    if kind == "delete":
        return ast.Delete(name, where)
    setting = st.one_of(
        _scalar(),
        _column(columns),
        st.builds(
            ast.BinaryOp,
            left=_column(columns),
            op=st.sampled_from("+-"),
            right=st.integers(0, 2).map(ast.Literal),
        ),
    )
    targets = draw(
        st.lists(st.sampled_from(columns), min_size=1, max_size=2, unique=True)
    )
    return ast.Update(name, tuple((c, draw(setting)) for c in targets), where)


@st.composite
def cases(draw):
    """A schema, its rows, parameters and a few statements to run on them."""
    tables = draw(schemas())
    rows = draw(contents(tables))
    params = {name: draw(values) for name in SCALAR_PARAMS}
    params["ids"] = draw(st.lists(values, max_size=3))
    statements = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 2)):
            statements.append(draw(selects(tables)))
        else:
            statements.append((draw(writes(tables)), False))
    return tables, rows, params, statements


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def _outcome(run):
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def check_agrees(tables, rows, sql, params, ordered):
    """Executor and referee agree on *sql* over twin databases."""
    executed, refereed = build(tables, rows), build(tables, rows)
    bound = bind(parse_statement(sql), executed.schema)
    accesses: list = []
    executor = Executor(executed, accesses=accesses)
    env, referee_env = dict(params), dict(params)

    def execute():
        return executor.execute(bound, env).rows, accesses

    got = _outcome(execute)
    want = _outcome(lambda: naive_execute(refereed, bound, referee_env))
    if isinstance(want, type) or isinstance(got, type):
        assert got == want, sql
        return
    (got_rows, got_accesses), (want_rows, want_accesses) = got, want
    if not ordered:
        got_rows, want_rows = sorted(got_rows, key=repr), sorted(want_rows, key=repr)
    assert got_rows == want_rows, sql
    if not isinstance(bound.statement, ast.Select):
        got_accesses = sorted(got_accesses, key=repr)
        want_accesses = sorted(want_accesses, key=repr)
    assert got_accesses == want_accesses, sql
    assert all(type(access) is tuple for access in got_accesses), sql
    assert env == referee_env, sql
    for table in executed:
        name = table.schema.name
        assert dict(table.items()) == dict(refereed.table(name).items()), sql


@given(cases())
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_executor_matches_referee(case):
    tables, rows, params, statements = case
    for statement, ordered in statements:
        check_agrees(tables, rows, str(statement), params, ordered)


# ----------------------------------------------------------------------
# a deterministic slice
# ----------------------------------------------------------------------
SMOKE_TABLES = [
    ("T0", ["T0_K", "T0_C0", "T0_C1"], ["T0_K"]),
    ("T1", ["T1_K", "T1_C0"], ["T1_K", "T1_C0"]),
]
SMOKE_ROWS = {
    "T0": [
        {"T0_K": 0, "T0_C0": 1, "T0_C1": 2},
        {"T0_K": 1, "T0_C0": 1, "T0_C1": None},
        {"T0_K": 2, "T0_C0": None, "T0_C1": 3},
        {"T0_K": 3, "T0_C0": 2, "T0_C1": 2},
    ],
    "T1": [
        {"T1_K": 0, "T1_C0": 1},
        {"T1_K": 1, "T1_C0": 2},
        {"T1_K": 2, "T1_C0": 1},
    ],
}
SMOKE_PARAMS = {"p0": 1, "p1": None, "p2": 2, "ids": [0, 2, None]}
SMOKE_STATEMENTS = [
    ("SELECT T0_C1 FROM T0 WHERE T0_C0 = @p0", False),
    ("SELECT T0_K FROM T0 WHERE T0_C0 = @p1", False),
    ("SELECT T0_K FROM T0 WHERE T0_C1 BETWEEN @p0 AND @p2", False),
    ("SELECT T0_K FROM T0 WHERE T0_C1 BETWEEN @p1 AND 3", False),
    ("SELECT T0_K, T1_K FROM T0 join T1 on T1_C0 = T0_C0", False),
    ("SELECT * FROM T0 join T1 on T1_K = T0_K WHERE T1_C0 IN @ids", False),
    ("SELECT T0_K FROM T0 join T1 on T1_C0 = T0_C1 WHERE T0_C0 <> T0_C1", False),
    ("SELECT T0_K FROM T0 join T1 on T1_K = T0_K WHERE T0_C0 < T1_C0", False),
    ("SELECT @v0 = T0_C1 FROM T0 WHERE T0_C0 = 1 ORDER BY T0_K DESC LIMIT 1", True),
    ("SELECT @v0 = SUM(T0_C1), @v1 = COUNT(*) FROM T0 WHERE T0_K IN @ids", True),
    ("SELECT SUM(T0_C1), T0_K FROM T0", True),
    ("SELECT DISTINCT T0_C0 FROM T0 WHERE T0_C1 >= @p0", False),
    ("UPDATE T0 SET T0_C1 = T0_C1 + 1 WHERE T0_C0 = @p0", False),
    ("UPDATE T0 SET T0_C1 = T0_C0 WHERE T0_K IN @ids", False),
    ("UPDATE T1 SET T1_C0 = 3 WHERE T1_K = 0", False),
    ("DELETE FROM T0 WHERE T0_C1 < @p2", False),
    ("INSERT INTO T0 (T0_K, T0_C0, T0_C1) VALUES (4, @p0, @p1)", False),
    ("INSERT INTO T0 (T0_K, T0_C0, T0_C1) VALUES (0, 1, 1)", False),
]


@pytest.mark.smoke
@pytest.mark.parametrize("sql, ordered", SMOKE_STATEMENTS)
def test_fixed_statements_match_referee(sql, ordered):
    check_agrees(SMOKE_TABLES, SMOKE_ROWS, sql, SMOKE_PARAMS, ordered)
