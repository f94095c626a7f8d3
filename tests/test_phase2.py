"""Unit tests for Phase 2: per-class partitioning."""

import pytest

from repro.core.join_tree import JoinTree
from repro.core.partitioner import JECBConfig, JECBPartitioner
from repro.core.phase2 import (
    ClassResult,
    Phase2Config,
    eliminate_until_mi,
    enumerate_trees,
    partition_class,
)
from repro.schema import Attr
from repro.trace import Trace, split_by_class
from repro.trace.events import TransactionTrace
from repro.trace.splitter import train_test_split
from repro.workloads.tpcc import TpccBenchmark, TpccConfig

from tests.referee import intern


@pytest.fixture
def custinfo_run(custinfo_workload):
    database, catalog, trace = custinfo_workload
    procedure = catalog.get("CustInfo")
    replicated = {"CUSTOMER", "CUSTOMER_ACCOUNT", "HOLDING_SUMMARY"}
    engine, view = intern(database, trace)
    result = partition_class(
        database.schema, procedure, view, replicated, engine, 4
    )
    return result


class TestPartitionClass:
    def test_custinfo_total_solution(self, custinfo_run):
        roots = [str(r) for r in custinfo_run.total_roots]
        assert "CUSTOMER_ACCOUNT.CA_C_ID" in roots

    def test_finer_compatible_trees_pruned(self, custinfo_run):
        # CA_ID is not MI (multi-account customers); C_ID/C_TAX_ID trees
        # would be coarser-compatible with CA_C_ID and must be pruned.
        roots = {str(r) for r in custinfo_run.total_roots}
        assert "CUSTOMER.C_ID" not in roots
        assert "CUSTOMER.C_TAX_ID" not in roots
        assert "CUSTOMER_ACCOUNT.CA_ID" not in roots

    def test_not_non_partitionable(self, custinfo_run):
        assert not custinfo_run.non_partitionable

    def test_summary_format(self, custinfo_run):
        text = custinfo_run.summary()
        assert text.startswith("CustInfo:")
        assert "CA_C_ID" in text

    def test_read_only_class(self, custinfo_workload):
        database, catalog, trace = custinfo_workload
        procedure = catalog.get("CustInfo")
        engine, view = intern(database, trace)
        result = partition_class(
            database.schema,
            procedure,
            view,
            replicated=set(database.schema.table_names),
            engine=engine,
            num_partitions=4,
        )
        assert result.read_only
        assert "Read-only" in result.summary()

    def test_trees_examined_counted(self, custinfo_run):
        assert custinfo_run.trees_examined >= 1


class TestEnumerateTrees:
    def test_counts(self, custinfo_workload):
        database, catalog, _trace = custinfo_workload
        from repro.sql import analyze_procedure
        from repro.core.join_graph import JoinGraph

        analysis = analyze_procedure(
            catalog.get("CustInfo").statements, database.schema
        )
        graph = JoinGraph.from_analysis(database.schema, analysis, set())
        root = Attr("CUSTOMER_ACCOUNT", "CA_C_ID")
        trees = enumerate_trees(graph, root, Phase2Config())
        assert len(trees) >= 1
        for tree in trees:
            assert tree.root == root
            assert tree.tables == graph.partitioned_tables

    def test_cap_respected(self, custinfo_workload):
        database, catalog, _trace = custinfo_workload
        from repro.sql import analyze_procedure
        from repro.core.join_graph import JoinGraph

        analysis = analyze_procedure(
            catalog.get("CustInfo").statements, database.schema
        )
        graph = JoinGraph.from_analysis(database.schema, analysis, set())
        config = Phase2Config(max_trees_per_root=1)
        trees = enumerate_trees(
            graph, Attr("CUSTOMER_ACCOUNT", "CA_C_ID"), config
        )
        assert len(trees) == 1


class TestEliminateUntilMi:
    def test_removes_offending_table(self, custinfo_workload):
        """Remote-style accesses on one table are eliminated away."""
        database, catalog, trace = custinfo_workload
        schema = database.schema
        from repro.core.join_path import JoinPath

        tree = JoinTree(
            Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
            {
                "TRADE": JoinPath.parse(
                    schema,
                    [
                        "TRADE.T_ID", "TRADE.T_CA_ID",
                        "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
                    ],
                ),
                "HOLDING_SUMMARY": JoinPath.parse(
                    schema,
                    [
                        ["HOLDING_SUMMARY.HS_S_SYMB", "HOLDING_SUMMARY.HS_CA_ID"],
                        "HOLDING_SUMMARY.HS_CA_ID",
                        "CUSTOMER_ACCOUNT.CA_ID",
                        "CUSTOMER_ACCOUNT.CA_C_ID",
                    ],
                ),
            },
        )
        # Poison the trace: every transaction also reads a random other
        # customer's holding, so HOLDING_SUMMARY becomes the offender.
        hs_keys = list(database.table("HOLDING_SUMMARY").keys())
        poisoned = []
        for i, txn in enumerate(trace):
            copy = TransactionTrace(txn.txn_id, txn.class_name)
            copy.accesses = list(txn.accesses)
            copy.record("HOLDING_SUMMARY", hs_keys[i % len(hs_keys)], False)
            poisoned.append(copy)
        poisoned_trace = Trace(poisoned)
        engine, view = intern(database, poisoned_trace)
        assert not tree.is_mapping_independent(view, engine)
        reduced = eliminate_until_mi(tree, view, engine)
        assert reduced is not None
        assert reduced.tables == {"TRADE"}

    def test_returns_none_when_already_mi(self, custinfo_workload):
        database, catalog, trace = custinfo_workload
        schema = database.schema
        from repro.core.join_path import JoinPath

        tree = JoinTree(
            Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
            {
                "TRADE": JoinPath.parse(
                    schema,
                    [
                        "TRADE.T_ID", "TRADE.T_CA_ID",
                        "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
                    ],
                )
            },
        )
        engine, view = intern(database, trace)
        # already MI over the full coverage -> no *partial* solution
        assert eliminate_until_mi(tree, view, engine) is None

    def test_hopeless_tree_returns_none(self, custinfo_workload):
        """A single-table tree that is not MI cannot be reduced."""
        database, _catalog, _trace = custinfo_workload
        schema = database.schema
        from repro.core.join_path import JoinPath

        tree = JoinTree(
            Attr("TRADE", "T_ID"),
            {"TRADE": JoinPath.parse(schema, ["TRADE.T_ID"])},
        )
        txn = TransactionTrace(0, "c")
        txn.record("TRADE", (1,), False)
        txn.record("TRADE", (2,), False)
        engine, view = intern(database, Trace([txn]))
        assert eliminate_until_mi(tree, view, engine) is None


class TestMinePartialSolutionsFlag:
    """``mine_partial_solutions=False`` switches off every harvest,
    including the split-graph one for classes whose join graph has no
    root (TPC-C's NewOrder, Payment and StockLevel)."""

    @staticmethod
    def _class_results(mine: bool):
        bundle = TpccBenchmark(TpccConfig(warehouses=2)).generate(300, seed=11)
        train, _test = train_test_split(bundle.trace, 0.5)
        config = JECBConfig(num_partitions=2)
        config.phase2 = Phase2Config(mine_partial_solutions=mine)
        result = JECBPartitioner(bundle.database, bundle.catalog, config).run(
            train
        )
        return result.class_results

    def test_rootless_classes_harvest_partials_by_default(self):
        harvested = {
            r.class_name
            for r in self._class_results(True)
            if r.partial_solutions and not r.graph.find_roots()
        }
        assert {"NewOrder", "Payment", "StockLevel"} <= harvested

    def test_no_partial_solutions_when_switched_off(self):
        results = self._class_results(False)
        assert [r.class_name for r in results if r.partial_solutions] == []
        assert any(not r.graph.find_roots() for r in results)
