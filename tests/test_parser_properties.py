"""Property-based tests: random ASTs render to SQL that parses back."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import ast
from repro.sql.parser import parse_statement

#: the dialect's comparison operators and aggregates (also drawn by the
#: executor differential, tests/test_executor_differential.py)
COMPARISON_OPS = ("=", "<", "<=", ">", ">=", "<>")
AGGREGATES = ("SUM", "AVG", "COUNT", "MIN", "MAX")

identifier = st.from_regex(r"[A-Z][A-Z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s.upper() not in __import__("repro.sql.tokenizer", fromlist=["KEYWORDS"]).KEYWORDS
)

column_ref = st.builds(
    ast.ColumnRef,
    name=identifier,
    table=st.one_of(st.none(), identifier),
)
literal = st.one_of(
    st.integers(min_value=0, max_value=10**9).map(ast.Literal),
    st.from_regex(r"[a-z ]{0,12}", fullmatch=True).map(ast.Literal),
    st.just(ast.Literal(None)),
)
param = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).map(ast.Param)
scalar = st.one_of(literal, param)
expr = st.one_of(column_ref, scalar)

comparison = st.builds(
    ast.Comparison,
    left=column_ref,
    op=st.sampled_from(COMPARISON_OPS),
    right=st.one_of(scalar, column_ref),
)
in_predicate = st.builds(
    ast.InPredicate,
    column=column_ref,
    values=st.lists(scalar, min_size=1, max_size=4).map(tuple),
)
between = st.builds(
    ast.BetweenPredicate, column=column_ref, low=scalar, high=scalar
)
predicate = st.one_of(comparison, in_predicate, between)

select_item = st.builds(
    ast.SelectItem,
    expr=column_ref,
    aggregate=st.one_of(
        st.none(), st.sampled_from(AGGREGATES)
    ),
)

select = st.builds(
    ast.Select,
    items=st.lists(select_item, min_size=1, max_size=4).map(tuple),
    table=identifier,
    joins=st.lists(
        st.builds(ast.Join, table=identifier, left=column_ref, right=column_ref),
        max_size=2,
    ).map(tuple),
    where=st.lists(predicate, max_size=3).map(tuple),
    order_by=st.one_of(
        st.none(),
        st.builds(ast.OrderBy, column=column_ref, descending=st.booleans()),
    ),
    limit=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
    distinct=st.booleans(),
)

insert = st.builds(
    lambda cols, vals: ast.Insert(
        "T", tuple(cols[: len(vals)]), tuple(vals[: len(cols)])
    ),
    st.lists(identifier, min_size=1, max_size=4, unique=True),
    st.lists(scalar, min_size=1, max_size=4),
)

update = st.builds(
    ast.Update,
    table=identifier,
    assignments=st.lists(
        st.tuples(identifier, st.one_of(scalar, column_ref)),
        min_size=1,
        max_size=3,
    ).map(tuple),
    where=st.lists(predicate, max_size=2).map(tuple),
)

delete = st.builds(
    ast.Delete, table=identifier, where=st.lists(predicate, max_size=2).map(tuple)
)


class TestRoundTrip:
    @given(select)
    @settings(max_examples=150)
    def test_select_round_trips(self, statement):
        reparsed = parse_statement(str(statement))
        assert str(reparsed) == str(statement)

    @given(insert)
    @settings(max_examples=100)
    def test_insert_round_trips(self, statement):
        reparsed = parse_statement(str(statement))
        assert str(reparsed) == str(statement)

    @given(update)
    @settings(max_examples=100)
    def test_update_round_trips(self, statement):
        reparsed = parse_statement(str(statement))
        assert str(reparsed) == str(statement)

    @given(delete)
    @settings(max_examples=100)
    def test_delete_round_trips(self, statement):
        reparsed = parse_statement(str(statement))
        assert str(reparsed) == str(statement)
