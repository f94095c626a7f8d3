"""Executor edge cases: join ordering, cross products, expression corners."""

import pytest

from repro.engine import Executor
from repro.engine.expression import comparator, in_row, in_values, scalar
from repro.errors import ExecutionError
from repro.schema import DatabaseSchema, integer_table
from repro.sql import ast
from repro.sql.bind import bind
from repro.sql.parser import parse_statement
from repro.storage import Database


@pytest.fixture
def executor(figure1_db):
    return Executor(figure1_db)


def bound(executor, sql):
    return bind(parse_statement(sql), executor.database.schema)


def run(executor, sql, **params):
    return executor.execute(bound(executor, sql), params)


class TestJoinPlanning:
    def test_driving_table_reordered(self, executor):
        """The constrained table drives even when listed second in FROM."""
        result = run(
            executor,
            "SELECT HS_QTY FROM HOLDING_SUMMARY join CUSTOMER_ACCOUNT "
            "on HS_CA_ID = CA_ID WHERE CA_C_ID = 2",
        )
        assert len(result.rows) == 4

    def test_three_way_join(self, custinfo_schema, figure1_db):
        figure1_db.insert("CUSTOMER", {"C_ID": 3, "C_TAX_ID": 9003})
        executor = Executor(figure1_db)
        result = run(
            executor,
            "SELECT T_QTY FROM TRADE "
            "join CUSTOMER_ACCOUNT on T_CA_ID = CA_ID "
            "join CUSTOMER on CA_C_ID = C_ID "
            "WHERE C_TAX_ID = 9001",
        )
        assert len(result.rows) == 4

    def test_unconstrained_table_scans(self, executor):
        result = run(executor, "SELECT T_ID FROM TRADE")
        assert len(result.rows) == 8

    def test_cross_product_when_disconnected(self, executor):
        result = run(
            executor,
            "SELECT T_ID FROM TRADE join CUSTOMER on C_ID = C_ID "
            "WHERE T_ID = 1",
        )
        # C_ID = C_ID is a same-table filter (trivially true), so the two
        # customers each pair with trade 1
        assert len(result.rows) == 2

    def test_empty_driving_table_short_circuits(self, executor):
        result = run(
            executor,
            "SELECT T_QTY FROM TRADE join CUSTOMER_ACCOUNT "
            "on T_CA_ID = CA_ID WHERE CA_C_ID = 99",
        )
        assert result.rows == []

    def test_join_column_not_in_from_rejected(self, executor):
        with pytest.raises(ExecutionError):
            run(
                executor,
                "SELECT T_ID FROM TRADE join CUSTOMER_ACCOUNT "
                "on HOLDING_SUMMARY.HS_CA_ID = CA_ID",
            )


class TestExpressions:
    def test_eval_scalar_arithmetic(self):
        expr = ast.BinaryOp(ast.Literal(2), "+", ast.Param("p"))
        assert scalar(expr)({"p": 3}) == 5
        expr = ast.BinaryOp(ast.Literal(2), "-", ast.Literal(5))
        assert scalar(expr)({}) == -3

    def test_eval_scalar_rejects_columns(self):
        with pytest.raises(ExecutionError):
            scalar(ast.ColumnRef("A"))({})

    def test_eval_in_row(self):
        expr = ast.BinaryOp(ast.ColumnRef("A"), "+", ast.Param("p"))
        assert in_row(expr)({"A": 1}, {"p": 2}) == 3
        with pytest.raises(ExecutionError):
            in_row(ast.ColumnRef("Z"))({"A": 1}, {})

    def test_compare_null_semantics(self):
        assert not comparator("=")(None, 1)
        assert not comparator("<")(1, None)
        assert comparator("<>")(1, 2)

    def test_compare_unknown_operator(self):
        with pytest.raises(ExecutionError):
            comparator("~")(1, 2)

    def test_compare_incomparable(self):
        with pytest.raises(ExecutionError):
            comparator("<")(1, "a")

    def test_in_values(self):
        assert in_values(1, [1, 2])
        assert not in_values(3, [1, 2])
        assert not in_values(None, [None])
        with pytest.raises(ExecutionError):
            in_values(1, 5)


class TestMultiStatementScenario:
    def test_mini_transfer_procedure(self):
        """A two-table money-transfer exercises updates + threading."""
        schema = DatabaseSchema("bank")
        schema.add_table(
            integer_table("ACCOUNT", ["A_ID", "A_BAL"], ["A_ID"])
        )
        schema.add_table(
            integer_table(
                "LEDGER", ["L_ID", "L_FROM", "L_TO", "L_AMT"], ["L_ID"]
            )
        )
        schema.add_foreign_key("LEDGER", ["L_FROM"], "ACCOUNT", ["A_ID"])
        schema.add_foreign_key("LEDGER", ["L_TO"], "ACCOUNT", ["A_ID"])
        database = Database(schema)
        database.insert("ACCOUNT", {"A_ID": 1, "A_BAL": 100})
        database.insert("ACCOUNT", {"A_ID": 2, "A_BAL": 50})
        executor = Executor(database)
        params = {"src": 1, "dst": 2, "amt": 30, "lid": 1}
        for sql in (
            "UPDATE ACCOUNT SET A_BAL = A_BAL - @amt WHERE A_ID = @src",
            "UPDATE ACCOUNT SET A_BAL = A_BAL + @amt WHERE A_ID = @dst",
            "INSERT INTO LEDGER (L_ID, L_FROM, L_TO, L_AMT) "
            "VALUES (@lid, @src, @dst, @amt)",
        ):
            executor.execute(bound(executor, sql), params)
        assert database.get("ACCOUNT", (1,))["A_BAL"] == 70
        assert database.get("ACCOUNT", (2,))["A_BAL"] == 80
        database.check_integrity()
