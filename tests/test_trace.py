"""Unit tests for trace events, collection, classification, splitting."""

import pytest

from repro.errors import WorkloadError
from repro.schema import DatabaseSchema, integer_table
from repro.storage import Database
from repro.trace import (
    Trace,
    TraceCollector,
    TransactionTrace,
    TableUsage,
    classify_tables,
    split_by_class,
    subsample,
    train_test_split,
)
from repro.trace.events import TupleAccess
from repro.trace.stats import partitioned_tables, table_stats


def txn(txn_id, class_name, accesses):
    out = TransactionTrace(txn_id, class_name)
    for table, key, write in accesses:
        out.record(table, key, write)
    return out


class TestEvents:
    def test_tuple_access_str(self):
        assert str(TupleAccess("T", (1,), True)) == "W T(1,)"
        assert str(TupleAccess("T", (1,), False)) == "R T(1,)"

    def test_read_write_sets(self):
        t = txn(0, "c", [("A", (1,), False), ("A", (1,), True), ("B", (2,), False)])
        assert t.read_set == {("A", (1,)), ("B", (2,))}
        assert t.write_set == {("A", (1,))}
        assert t.tuples == {("A", (1,)), ("B", (2,))}
        assert t.tables == {"A", "B"}
        assert len(t) == 3

    def test_trace_class_names_order(self):
        trace = Trace([txn(0, "b", []), txn(1, "a", []), txn(2, "b", [])])
        assert trace.class_names == ["b", "a"]
        assert not trace.is_homogeneous()
        assert Trace([txn(0, "a", [])]).is_homogeneous()
        assert Trace().is_homogeneous()

    def test_trace_tables_and_tuples(self):
        trace = Trace([
            txn(0, "a", [("A", (1,), False)]),
            txn(1, "a", [("B", (2,), True)]),
        ])
        assert trace.tables() == {"A", "B"}
        assert trace.distinct_tuples() == {("A", (1,)), ("B", (2,))}
        assert len(trace) == 2


class TestCollector:
    def test_run_records_accesses(self, figure1_db, custinfo_procedure):
        collector = TraceCollector(figure1_db)
        recorded = collector.run(
            custinfo_procedure, {"cust_id": 1, "any_account": 1}
        )
        assert recorded.class_name == "CustInfo"
        assert ("TRADE", (1,)) in recorded.write_set
        assert len(collector.trace) == 1

    def test_txn_ids_increment(self, figure1_db, custinfo_procedure):
        collector = TraceCollector(figure1_db)
        a = collector.run(custinfo_procedure, {"cust_id": 1, "any_account": 1})
        b = collector.run(custinfo_procedure, {"cust_id": 2, "any_account": 7})
        assert b.txn_id == a.txn_id + 1

    def test_nested_begin_rejected(self, figure1_db):
        collector = TraceCollector(figure1_db)
        collector.begin("x")
        with pytest.raises(WorkloadError):
            collector.begin("y")

    def test_commit_without_begin_rejected(self, figure1_db):
        with pytest.raises(WorkloadError):
            TraceCollector(figure1_db).commit()

    def test_run_records_call_arguments(self, figure1_db, custinfo_procedure):
        collector = TraceCollector(figure1_db)
        recorded = collector.run(
            custinfo_procedure, {"cust_id": 1, "any_account": 1}
        )
        assert recorded.arguments == {"cust_id": 1, "any_account": 1}

    def test_trace_calls_skips_argless_transactions(
        self, figure1_db, custinfo_procedure
    ):
        collector = TraceCollector(figure1_db)
        collector.run(custinfo_procedure, {"cust_id": 1, "any_account": 1})
        collector.run(custinfo_procedure, {"cust_id": 2, "any_account": 7})
        txn = collector.begin("Manual")  # hand-built: no argument record
        txn.record("TRADE", (1,), False)
        collector.commit()
        calls = collector.trace.calls()
        assert calls == [
            ("CustInfo", {"cust_id": 1, "any_account": 1}),
            ("CustInfo", {"cust_id": 2, "any_account": 7}),
        ]

    def test_failed_procedure_not_recorded(self, figure1_db, custinfo_procedure):
        collector = TraceCollector(figure1_db)
        arguments = {"cust_id": 1, "any_account": 1}
        # both SELECTs record their reads before the UPDATE's missing
        # parameter raises
        with pytest.raises(Exception):
            collector.run(custinfo_procedure, {"cust_id": 1})  # missing arg
        assert len(collector.trace) == 0
        assert collector.executor.accesses is None
        # a statement run between transactions is recorded nowhere
        custinfo_procedure.execute(collector.executor, dict(arguments))
        # the collector can still run new transactions afterwards, and
        # none of the accesses above, or after a commit, reach their records
        recorded = collector.run(custinfo_procedure, arguments)
        custinfo_procedure.execute(collector.executor, dict(arguments))
        assert len(collector.trace) == 1
        fresh = TraceCollector(figure1_db).run(custinfo_procedure, arguments)
        assert recorded.accesses == fresh.accesses


class TestClassification:
    def make_schema(self):
        schema = DatabaseSchema("s")
        for name in ("HOT", "COLD", "RARE", "GHOST"):
            schema.add_table(integer_table(name, ["ID"], ["ID"]))
        return schema

    def test_classification(self):
        schema = self.make_schema()
        transactions = []
        for i in range(100):
            accesses = [("HOT", (i,), True), ("COLD", (i,), False)]
            if i == 0:
                accesses.append(("RARE", (i,), True))
            transactions.append(txn(i, "c", accesses))
        usage = classify_tables(Trace(transactions), schema)
        assert usage["HOT"] is TableUsage.PARTITIONED
        assert usage["COLD"] is TableUsage.READ_ONLY
        assert usage["RARE"] is TableUsage.READ_MOSTLY  # 1% writers
        assert usage["GHOST"] is TableUsage.READ_ONLY  # never touched

    def test_replicated_property(self):
        assert TableUsage.READ_ONLY.replicated
        assert TableUsage.READ_MOSTLY.replicated
        assert not TableUsage.PARTITIONED.replicated

    def test_threshold_bounds(self):
        schema = self.make_schema()
        with pytest.raises(ValueError):
            classify_tables(Trace(), schema, read_mostly_threshold=1.0)
        with pytest.raises(ValueError):
            classify_tables(Trace(), schema, read_mostly_threshold=-0.1)

    def test_zero_threshold_partitions_any_writer(self):
        schema = self.make_schema()
        trace = Trace([
            txn(0, "c", [("RARE", (0,), True)]),
            *[txn(i, "c", [("COLD", (i,), False)]) for i in range(1, 100)],
        ])
        usage = classify_tables(trace, schema, read_mostly_threshold=0.0)
        assert usage["RARE"] is TableUsage.PARTITIONED

    def test_table_stats(self):
        trace = Trace([
            txn(0, "c", [("HOT", (0,), True), ("HOT", (1,), False)]),
        ])
        stats = table_stats(trace)
        assert stats["HOT"].writes == 1
        assert stats["HOT"].reads == 1
        assert stats["HOT"].writing_txns == {0}

    def test_partitioned_tables_helper(self):
        usage = {
            "A": TableUsage.PARTITIONED,
            "B": TableUsage.READ_ONLY,
        }
        assert partitioned_tables(usage) == ["A"]


class TestSplitting:
    def test_split_by_class(self):
        trace = Trace([txn(0, "a", []), txn(1, "b", []), txn(2, "a", [])])
        streams = split_by_class(trace)
        assert {k: len(v) for k, v in streams.items()} == {"a": 2, "b": 1}
        assert all(s.is_homogeneous() for s in streams.values())

    def test_train_test_split_sizes(self):
        trace = Trace([txn(i, "a", []) for i in range(100)])
        train, test = train_test_split(trace, 0.3)
        assert len(train) == 30
        assert len(test) == 70
        assert len(set(t.txn_id for t in train) & set(t.txn_id for t in test)) == 0

    def test_train_test_split_interleaves(self):
        trace = Trace([txn(i, "a", []) for i in range(10)])
        train, _test = train_test_split(trace, 0.5)
        ids = [t.txn_id for t in train]
        assert ids == sorted(ids)
        assert max(ids) >= 8  # spread across the whole trace

    def test_split_fraction_bounds(self):
        with pytest.raises(WorkloadError):
            train_test_split(Trace(), 0.0)
        with pytest.raises(WorkloadError):
            train_test_split(Trace(), 1.0)

    def test_subsample(self):
        trace = Trace([txn(i, "a", []) for i in range(100)])
        assert len(subsample(trace, 0.1)) == 10
        assert len(subsample(trace, 1.0)) == 100
        with pytest.raises(WorkloadError):
            subsample(trace, 0.0)
