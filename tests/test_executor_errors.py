"""When the executor's errors fire, and the trace record's contract.

A compiled plan reads a parameter when the statement first needs it: a
probe's value when its scan is reached, a residual filter's (and an
``IN @param`` collection) when a candidate row reaches the filter. These
tests pin that timing, so statements that match no rows keep succeeding
with parameters they never needed.
"""

from __future__ import annotations

import io

import pytest

from repro.engine import Executor
from repro.errors import BindingError, ExecutionError
from repro.sql.bind import bind
from repro.sql.parser import parse_statement
from repro.storage import Database
from repro.trace.events import Trace, TransactionTrace, TupleAccess
from repro.trace.persistence import dump_trace, load_trace


def run(database, sql, **params):
    bound = bind(parse_statement(sql), database.schema)
    return Executor(database).execute(bound, params)


@pytest.fixture
def empty_db(custinfo_schema):
    return Database(custinfo_schema)


class TestProbeParameters:
    def test_unbound_probe_raises_on_an_empty_table(self, empty_db):
        with pytest.raises(BindingError):
            run(empty_db, "SELECT T_QTY FROM TRADE WHERE T_ID = @missing")

    def test_unbound_probe_raises_for_writes_too(self, empty_db):
        with pytest.raises(BindingError):
            run(empty_db, "DELETE FROM TRADE WHERE T_CA_ID = @missing")

    def test_unanchored_in_reads_its_candidates_on_an_empty_table(self, empty_db):
        with pytest.raises(BindingError):
            run(empty_db, "SELECT T_QTY FROM TRADE WHERE T_ID IN @missing")
        with pytest.raises(ExecutionError):
            run(empty_db, "SELECT T_QTY FROM TRADE WHERE T_ID IN @ids", ids=7)


class TestFilterParameters:
    def test_unbound_filter_waits_for_a_candidate_row(self, figure1_db):
        sql = "SELECT T_ID FROM TRADE WHERE T_CA_ID = @ca AND T_QTY < @missing"
        assert run(figure1_db, sql, ca=99).rows == []
        with pytest.raises(BindingError):
            run(figure1_db, sql, ca=8)

    def test_unbound_between_bound_waits_for_a_candidate_row(self, figure1_db):
        sql = "SELECT T_ID FROM TRADE WHERE T_CA_ID = @ca AND T_QTY BETWEEN 1 AND @hi"
        assert run(figure1_db, sql, ca=99).rows == []
        with pytest.raises(BindingError):
            run(figure1_db, sql, ca=8)

    def test_non_collection_in_waits_for_a_candidate_row(self, figure1_db):
        sql = "SELECT T_QTY FROM TRADE WHERE T_CA_ID = @ca AND T_ID IN @ids"
        assert run(figure1_db, sql, ca=99, ids=7).rows == []
        with pytest.raises(ExecutionError):
            run(figure1_db, sql, ca=8, ids=7)

    def test_unbound_in_waits_for_a_candidate_row(self, figure1_db):
        sql = "SELECT T_QTY FROM TRADE WHERE T_CA_ID = @ca AND T_ID IN @ids"
        assert run(figure1_db, sql, ca=99).rows == []
        with pytest.raises(BindingError):
            run(figure1_db, sql, ca=8)

    def test_a_failed_earlier_filter_shields_a_later_one(self, figure1_db):
        sql = (
            "SELECT T_ID FROM TRADE WHERE T_CA_ID = 8 AND T_QTY > 100 "
            "AND T_ID < @missing"
        )
        assert run(figure1_db, sql).rows == []

    def test_unbound_set_expression_waits_for_a_matched_row(self, figure1_db):
        sql = "UPDATE TRADE SET T_QTY = @missing WHERE T_CA_ID = @ca"
        assert run(figure1_db, sql, ca=99).affected == 0
        with pytest.raises(BindingError):
            run(figure1_db, sql, ca=8)

    def test_in_collection_is_read_once_per_execution(self, figure1_db):
        class Counted(list):
            reads = 0

            def __iter__(self):
                Counted.reads += 1
                return super().__iter__()

        ids = Counted([1, 4, 5])
        result = run(
            figure1_db,
            "SELECT T_ID FROM TRADE WHERE T_CA_ID = 8 AND T_ID IN @ids",
            ids=ids,
        )
        assert {row["T_ID"] for row in result.rows} == {4, 5}
        assert Counted.reads == 1


class TestNullSemantics:
    def test_null_probe_matches_nothing(self, figure1_db):
        figure1_db.insert("TRADE", {"T_ID": 9, "T_CA_ID": None, "T_QTY": 1})
        assert run(figure1_db, "SELECT T_ID FROM TRADE WHERE T_CA_ID = @ca", ca=None).rows == []
        assert run(figure1_db, "SELECT T_ID FROM TRADE WHERE T_CA_ID = NULL").rows == []

    def test_null_join_value_matches_nothing(self, figure1_db):
        figure1_db.insert("TRADE", {"T_ID": 9, "T_CA_ID": None, "T_QTY": 1})
        figure1_db.insert("HOLDING_SUMMARY", {"HS_S_SYMB": 1, "HS_CA_ID": None, "HS_QTY": 1})
        result = run(
            figure1_db,
            "SELECT HS_QTY FROM TRADE join HOLDING_SUMMARY on HS_CA_ID = T_CA_ID "
            "WHERE T_ID = 9",
        )
        assert result.rows == []

    def test_between_with_a_null_bound_is_false(self, figure1_db):
        sql = "SELECT T_ID FROM TRADE WHERE T_QTY BETWEEN @lo AND 3"
        assert run(figure1_db, sql, lo=None).rows == []


class TestTupleAccess:
    def test_str(self):
        assert str(TupleAccess("T", (1,), True)) == "W T(1,)"
        assert str(TupleAccess("T", (1, 2))) == "R T(1, 2)"

    def test_fields_and_default(self):
        access = TupleAccess("T", (1,))
        assert (access.table, access.key, access.write) == ("T", (1,), False)

    def test_equality_and_hash(self):
        a, b = TupleAccess("T", (1,), True), TupleAccess("T", (1,), True)
        assert a == b and hash(a) == hash(b)
        assert a != TupleAccess("T", (1,), False)
        assert len({a, b, TupleAccess("T", (2,), True)}) == 2

    def test_immutable(self):
        access = TupleAccess("T", (1,))
        with pytest.raises(AttributeError):
            access.write = True  # type: ignore[misc]

    def test_persistence_round_trip(self):
        txn = TransactionTrace(3, "C")
        txn.record("T", (1, "a"), True)
        txn.record("U", (2,), False)
        stream = io.StringIO()
        dump_trace(Trace([txn]), stream)
        stream.seek(0)
        (loaded,) = load_trace(stream)
        assert loaded.accesses == txn.accesses
        assert all(type(a) is tuple for a in loaded.accesses)
