"""Unit tests for solutions (Defs 4/10/11) and the evaluator (Defs 5/6)."""

import pytest

from repro.core.join_path import JoinPath
from repro.core.mapping import (
    REPLICATED,
    HashMapping,
    IdentityModMapping,
    ReplicateMapping,
)
from repro.core.placement import UNROUTABLE, PlacementStore
from repro.core.solution import DatabasePartitioning, TableSolution
from repro.errors import PartitioningError
from repro.evaluation.evaluator import PartitioningEvaluator
from repro.trace.events import Trace, TransactionTrace

from tests.referee import intern


def path(schema, *nodes):
    return JoinPath.parse(schema, list(nodes))


@pytest.fixture
def customer_partitioning(custinfo_schema):
    """Partition TRADE and CUSTOMER_ACCOUNT by customer id, k=2."""
    mapping = IdentityModMapping(2)
    trade_path = path(
        custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
        "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
    )
    account_path = path(
        custinfo_schema, "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID"
    )
    partitioning = DatabasePartitioning(2, name="by-customer")
    partitioning.set(TableSolution("TRADE", trade_path, mapping))
    partitioning.set(TableSolution("CUSTOMER_ACCOUNT", account_path, mapping))
    partitioning.set(TableSolution("HOLDING_SUMMARY"))
    partitioning.set(TableSolution("CUSTOMER"))
    return partitioning


class TestTableSolution:
    def test_replicated(self, figure1_db):
        solution = TableSolution("TRADE")
        assert solution.replicated
        assert solution.attribute is None
        store = PlacementStore(figure1_db, DatabasePartitioning(2, [solution]))
        assert store.pid_of("TRADE", (1,)) == REPLICATED

    def test_partitioned_needs_mapping(self, custinfo_schema):
        p = path(custinfo_schema, "TRADE.T_ID")
        with pytest.raises(PartitioningError):
            TableSolution("TRADE", p, None)

    def test_path_table_must_match(self, custinfo_schema):
        p = path(custinfo_schema, "TRADE.T_ID")
        with pytest.raises(PartitioningError):
            TableSolution("CUSTOMER", p, HashMapping(2))

    def test_partition_of(self, custinfo_schema, figure1_db):
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
        )
        solution = TableSolution("TRADE", p, IdentityModMapping(2))
        store = PlacementStore(figure1_db, DatabasePartitioning(2, [solution]))
        assert store.pid_of("TRADE", (1,)) == 2  # customer 1
        assert store.pid_of("TRADE", (2,)) == 1  # customer 2
        assert store.pid_of("TRADE", (999,)) == UNROUTABLE


class TestDatabasePartitioning:
    def test_default_replicated(self, customer_partitioning):
        assert customer_partitioning.solution_for("UNKNOWN").replicated

    def test_partitioned_and_replicated_listing(self, customer_partitioning):
        assert set(customer_partitioning.partitioned_tables()) == {
            "TRADE", "CUSTOMER_ACCOUNT",
        }
        assert set(customer_partitioning.replicated_tables()) == {
            "HOLDING_SUMMARY", "CUSTOMER",
        }

    def test_needs_positive_k(self):
        with pytest.raises(PartitioningError):
            DatabasePartitioning(0)

    def test_from_tree_constructor(self, custinfo_schema):
        from repro.core.join_tree import JoinTree
        from repro.schema import Attr

        tree = JoinTree(
            Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
            {
                "TRADE": path(
                    custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
                    "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
                )
            },
        )
        partitioning = DatabasePartitioning.from_tree(
            4, tree, replicated=["CUSTOMER"]
        )
        assert not partitioning.solution_for("TRADE").replicated
        assert partitioning.solution_for("CUSTOMER").replicated

    def test_describe(self, customer_partitioning):
        text = customer_partitioning.describe()
        assert "TRADE" in text and "replicated" in text


class TestEvaluator:
    def make_txn(self, accesses, txn_id=0, class_name="c"):
        txn = TransactionTrace(txn_id, class_name)
        for table, key, write in accesses:
            txn.record(table, key, write)
        return txn

    @staticmethod
    def distributed(evaluator, txn, partitioning) -> bool:
        """Definition 5 for one transaction, through the evaluator."""
        report = evaluator.evaluate(partitioning, Trace([txn]))
        return report.distributed_transactions == 1

    def test_single_partition_local(self, figure1_db, customer_partitioning):
        evaluator = PartitioningEvaluator(figure1_db)
        txn = self.make_txn([
            ("TRADE", (1,), False),   # customer 1
            ("TRADE", (4,), False),   # customer 1
            ("CUSTOMER_ACCOUNT", (1,), False),
        ])
        assert not self.distributed(evaluator, txn, customer_partitioning)

    def test_cross_partition_distributed(self, figure1_db, customer_partitioning):
        evaluator = PartitioningEvaluator(figure1_db)
        txn = self.make_txn([
            ("TRADE", (1,), False),  # customer 1
            ("TRADE", (2,), False),  # customer 2
        ])
        assert self.distributed(evaluator, txn, customer_partitioning)

    def test_replicated_read_is_local(self, figure1_db, customer_partitioning):
        evaluator = PartitioningEvaluator(figure1_db)
        txn = self.make_txn([
            ("TRADE", (1,), False),
            ("HOLDING_SUMMARY", (101, 1), False),  # replicated read
        ])
        assert not self.distributed(evaluator, txn, customer_partitioning)

    def test_replicated_write_distributed(self, figure1_db, customer_partitioning):
        """Definition 5 condition 1."""
        evaluator = PartitioningEvaluator(figure1_db)
        txn = self.make_txn([
            ("HOLDING_SUMMARY", (101, 1), True),
        ])
        assert self.distributed(evaluator, txn, customer_partitioning)

    def test_unroutable_distributed(self, figure1_db, customer_partitioning):
        evaluator = PartitioningEvaluator(figure1_db)
        txn = self.make_txn([("TRADE", (999,), False)])
        assert self.distributed(evaluator, txn, customer_partitioning)

    def test_zero_mapping_write_distributed(self, figure1_db, custinfo_schema):
        p = path(custinfo_schema, "TRADE.T_ID")
        partitioning = DatabasePartitioning(2)
        partitioning.set(TableSolution("TRADE", p, ReplicateMapping(2)))
        evaluator = PartitioningEvaluator(figure1_db)
        write = self.make_txn([("TRADE", (1,), True)])
        read = self.make_txn([("TRADE", (1,), False)])
        assert self.distributed(evaluator, write, partitioning)
        assert not self.distributed(evaluator, read, partitioning)

    def test_cost_report(self, figure1_db, customer_partitioning):
        evaluator = PartitioningEvaluator(figure1_db)
        trace = Trace([
            self.make_txn([("TRADE", (1,), False)], 0, "a"),
            self.make_txn(
                [("TRADE", (1,), False), ("TRADE", (2,), False)], 1, "a"
            ),
            self.make_txn([("TRADE", (2,), False)], 2, "b"),
        ])
        report = evaluator.evaluate(customer_partitioning, trace)
        assert report.total_transactions == 3
        assert report.distributed_transactions == 1
        assert report.cost == pytest.approx(1 / 3)
        assert report.class_cost("a") == pytest.approx(0.5)
        assert report.class_cost("b") == 0.0
        assert set(report.class_costs) == {"a", "b"}
        assert "cost" in str(report)

    def test_empty_trace_zero_cost(self, figure1_db, customer_partitioning):
        evaluator = PartitioningEvaluator(figure1_db)
        assert evaluator.cost(customer_partitioning, Trace()) == 0.0

    def test_appended_transactions_are_scored(
        self, figure1_db, customer_partitioning
    ):
        """A trace that grew after it was interned is interned again, both
        when it is the run engine's source and when the evaluator interned
        it itself."""
        trace = Trace([self.make_txn([("TRADE", (1,), False)], 0, "a")])
        engine, _view = intern(figure1_db, trace)
        evaluators = [
            PartitioningEvaluator(figure1_db, engine),
            PartitioningEvaluator(figure1_db),
        ]
        for evaluator in evaluators:
            report = evaluator.evaluate(customer_partitioning, trace)
            assert report.total_transactions == 1
            assert report.distributed_transactions == 0
        trace.append(
            self.make_txn(
                [("TRADE", (1,), False), ("TRADE", (2,), False)], 1, "a"
            )
        )
        for evaluator in evaluators:
            report = evaluator.evaluate(customer_partitioning, trace)
            assert report.total_transactions == 2
            assert report.distributed_transactions == 1
