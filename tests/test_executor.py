"""Unit tests for the query executor."""

import random

import pytest

from repro.engine import Executor
from repro.errors import BindingError, ExecutionError
from repro.sql.bind import bind
from repro.sql.parser import parse_statement
from repro.storage import Database
from repro.workloads.tpcc import TpccBenchmark, TpccConfig


@pytest.fixture
def executor(figure1_db):
    return Executor(figure1_db)


def bound(executor, sql):
    return bind(parse_statement(sql), executor.database.schema)


def run(executor, sql, **params):
    return executor.execute(bound(executor, sql), params)


class TestSelect:
    def test_point_lookup(self, executor):
        result = run(executor, "SELECT T_QTY FROM TRADE WHERE T_ID = 3")
        assert result.rows == [{"T_QTY": 3}]

    def test_missing_row(self, executor):
        result = run(executor, "SELECT T_QTY FROM TRADE WHERE T_ID = 99")
        assert result.rows == []

    def test_param_binding(self, executor):
        result = run(executor, "SELECT T_QTY FROM TRADE WHERE T_ID = @t", t=3)
        assert result.scalar == 3

    def test_unbound_param(self, executor):
        with pytest.raises(BindingError):
            run(executor, "SELECT T_QTY FROM TRADE WHERE T_ID = @t")

    def test_secondary_lookup(self, executor):
        result = run(
            executor, "SELECT T_ID FROM TRADE WHERE T_CA_ID = 8"
        )
        assert {r["T_ID"] for r in result.rows} == {4, 5}

    def test_join_figure1(self, executor):
        # customer 1 owns accounts 1 and 8 -> trades 1, 4, 5, 7
        result = run(
            executor,
            "SELECT T_ID FROM TRADE join CUSTOMER_ACCOUNT on T_CA_ID = CA_ID "
            "WHERE CA_C_ID = 1",
        )
        assert {r["T_ID"] for r in result.rows} == {1, 4, 5, 7}

    def test_sum_aggregate_figure1(self, executor):
        # customer 1 holdings: 3 + 5 + 9 + 3 = 20
        result = run(
            executor,
            "SELECT SUM(HS_QTY) FROM HOLDING_SUMMARY join CUSTOMER_ACCOUNT "
            "on HS_CA_ID = CA_ID WHERE CA_C_ID = 1",
        )
        assert result.scalar == 20

    def test_avg_aggregate(self, executor):
        result = run(
            executor,
            "SELECT AVERAGE(T_QTY) FROM TRADE join CUSTOMER_ACCOUNT "
            "on T_CA_ID = CA_ID WHERE CA_C_ID = 1",
        )
        assert result.scalar == pytest.approx((2 + 1 + 3 + 1) / 4)

    def test_count_and_min_max(self, executor):
        assert run(executor, "SELECT COUNT(*) FROM TRADE").scalar == 8
        assert run(executor, "SELECT MIN(T_QTY) FROM TRADE").scalar == 1
        assert run(executor, "SELECT MAX(T_QTY) FROM TRADE").scalar == 4

    def test_aggregate_on_empty_is_null(self, executor):
        result = run(
            executor, "SELECT SUM(T_QTY) FROM TRADE WHERE T_ID = 99"
        )
        assert result.scalar is None

    def test_count_on_empty_is_zero(self, executor):
        result = run(
            executor, "SELECT COUNT(T_QTY) FROM TRADE WHERE T_ID = 99"
        )
        assert result.scalar == 0

    def test_assignment_into_params(self, executor):
        params = {"t": 3}
        executor.execute(
            bound(executor, "SELECT @qty = T_QTY FROM TRADE WHERE T_ID = @t"),
            params,
        )
        assert params["qty"] == 3

    def test_assignment_none_when_no_rows(self, executor):
        params = {"t": 99}
        executor.execute(
            bound(executor, "SELECT @qty = T_QTY FROM TRADE WHERE T_ID = @t"),
            params,
        )
        assert params["qty"] is None

    def test_order_by_and_limit(self, executor):
        result = run(
            executor,
            "SELECT T_ID FROM TRADE WHERE T_CA_ID = 8 ORDER BY T_ID DESC LIMIT 1",
        )
        assert result.rows == [{"T_ID": 5}]

    def test_assignment_reads_the_row_limit_keeps(self, executor):
        """@var binds from the row the result returns, not a dropped one."""
        for order, expected in (("ASC", 4), ("DESC", 5)):
            params: dict = {}
            result = executor.execute(
                bound(
                    executor,
                    "SELECT @t = T_ID FROM TRADE WHERE T_CA_ID = 8 "
                    f"ORDER BY T_ID {order} LIMIT 1",
                ),
                params,
            )
            assert result.rows == [{"T_ID": expected}]
            assert params["t"] == expected

    def test_assignment_with_limit_and_no_order(self, executor):
        params: dict = {}
        result = executor.execute(
            bound(executor, "SELECT @t = T_ID FROM TRADE LIMIT 2"), params
        )
        assert params["t"] == result.rows[-1]["T_ID"]

    def test_assignment_none_when_limit_keeps_nothing(self, executor):
        params: dict = {}
        result = executor.execute(
            bound(executor, "SELECT @n = COUNT(T_ID) FROM TRADE LIMIT 0"),
            params,
        )
        assert result.rows == []
        assert params["n"] is None

    def test_between(self, executor):
        result = run(
            executor, "SELECT T_ID FROM TRADE WHERE T_QTY BETWEEN 3 AND 4"
        )
        assert {r["T_ID"] for r in result.rows} == {3, 5, 6}

    def test_in_list(self, executor):
        result = run(
            executor, "SELECT T_QTY FROM TRADE WHERE T_ID IN (1, 2)"
        )
        assert {r["T_QTY"] for r in result.rows} == {2, 1}

    def test_in_param_list(self, executor):
        result = run(
            executor,
            "SELECT T_QTY FROM TRADE WHERE T_ID IN @ids",
            ids=[1, 2],
        )
        assert len(result.rows) == 2

    def test_in_param_must_be_collection(self, executor):
        with pytest.raises(ExecutionError):
            run(
                executor,
                "SELECT T_QTY FROM TRADE WHERE T_ID IN @ids",
                ids=7,
            )

    def test_distinct(self, executor):
        result = run(executor, "SELECT DISTINCT T_CA_ID FROM TRADE")
        assert len(result.rows) == 4

    def test_star_projection(self, executor):
        result = run(executor, "SELECT * FROM TRADE WHERE T_ID = 1")
        assert result.rows[0] == {"T_ID": 1, "T_CA_ID": 1, "T_QTY": 2}

    def test_comparison_with_null_is_false(self, figure1_db):
        figure1_db.insert("TRADE", {"T_ID": 99, "T_CA_ID": 1, "T_QTY": None})
        executor = Executor(figure1_db)
        result = run(executor, "SELECT T_ID FROM TRADE WHERE T_QTY > 0")
        assert 99 not in {r["T_ID"] for r in result.rows}


class TestWrites:
    def test_insert(self, executor, figure1_db):
        result = run(
            executor,
            "INSERT INTO TRADE (T_ID, T_CA_ID, T_QTY) VALUES (@t, 1, 5)",
            t=50,
        )
        assert result.affected == 1
        assert figure1_db.get("TRADE", (50,))["T_QTY"] == 5

    def test_insert_unknown_column(self, executor):
        with pytest.raises(ExecutionError):
            run(executor, "INSERT INTO TRADE (NOPE) VALUES (1)")

    def test_update_with_arithmetic(self, executor, figure1_db):
        result = run(
            executor,
            "UPDATE TRADE SET T_QTY = T_QTY + 10 WHERE T_ID = 1",
        )
        assert result.affected == 1
        assert figure1_db.get("TRADE", (1,))["T_QTY"] == 12

    def test_update_multiple_rows(self, executor):
        result = run(
            executor, "UPDATE TRADE SET T_QTY = 0 WHERE T_CA_ID = 8"
        )
        assert result.affected == 2

    def test_update_no_match(self, executor):
        assert run(
            executor, "UPDATE TRADE SET T_QTY = 0 WHERE T_ID = 99"
        ).affected == 0

    def test_delete(self, executor, figure1_db):
        result = run(executor, "DELETE FROM TRADE WHERE T_CA_ID = 8")
        assert result.affected == 2
        assert figure1_db.get("TRADE", (4,)) is None

    def test_update_by_in(self, executor, figure1_db):
        result = run(
            executor,
            "UPDATE TRADE SET T_QTY = 0 WHERE T_ID IN @ids",
            ids=[1, 2, 99],
        )
        assert result.affected == 2


class TestAccessRecording:
    def test_reads_recorded(self, figure1_db):
        accesses = []
        executor = Executor(figure1_db, accesses=accesses)
        executor.execute(
            bound(executor, "SELECT T_QTY FROM TRADE WHERE T_ID = 1"), {}
        )
        assert ("TRADE", (1,), False) in accesses

    def test_join_records_both_sides(self, figure1_db):
        accesses = []
        executor = Executor(figure1_db, accesses=accesses)
        executor.execute(
            bound(
                executor,
                "SELECT T_ID FROM TRADE join CUSTOMER_ACCOUNT "
                "on T_CA_ID = CA_ID WHERE CA_C_ID = 1"
            ),
            {},
        )
        tables = {a[0] for a in accesses}
        assert tables == {"TRADE", "CUSTOMER_ACCOUNT"}

    def test_filtered_rows_not_recorded(self, figure1_db):
        accesses = []
        executor = Executor(figure1_db, accesses=accesses)
        executor.execute(
            bound(executor, "SELECT T_ID FROM TRADE WHERE T_ID = 99"), {}
        )
        assert accesses == []

    def test_writes_flagged(self, figure1_db):
        accesses = []
        executor = Executor(figure1_db, accesses=accesses)
        executor.execute(
            bound(executor, "UPDATE TRADE SET T_QTY = 0 WHERE T_ID = 1"), {}
        )
        executor.execute(
            bound(executor, "DELETE FROM TRADE WHERE T_ID = 2"), {}
        )
        executor.execute(
            bound(
                executor,
                "INSERT INTO TRADE (T_ID, T_CA_ID, T_QTY) VALUES (60, 1, 1)"
            ),
            {},
        )
        assert ("TRADE", (1,), True) in accesses
        assert ("TRADE", (2,), True) in accesses
        assert ("TRADE", (60,), True) in accesses


class TestTpccDelivery:
    def test_delivery_deletes_the_oldest_new_order(self):
        """Delivery's ``ORDER BY NO_O_ID ASC LIMIT 1`` binds the oldest order."""
        benchmark = TpccBenchmark(TpccConfig(warehouses=1))
        database = Database(benchmark.build_schema())
        benchmark.load(database, random.Random(1))
        procedure = benchmark.build_catalog().get("Delivery")
        executor = Executor(database)
        params = {"w_id": 1, "d_id": 1}
        pending = sorted(
            row["NO_O_ID"]
            for row in database.table("NEW_ORDER").scan()
            if row["NO_W_ID"] == 1 and row["NO_D_ID"] == 1
        )
        assert len(pending) > 1
        result = executor.execute(
            procedure.bound("oldest_new_order", database.schema), params
        )
        assert result.rows == [{"NO_O_ID": pending[0]}]
        assert params["no_o_id"] == pending[0]
        procedure.execute(
            executor, {"w_id": 1, "carrier_id": 3, "district_count": 1}
        )
        assert database.get("NEW_ORDER", (1, 1, pending[0])) is None
        assert database.get("NEW_ORDER", (1, 1, pending[-1])) is not None
