"""Tests pinning the paper's worked examples (Sections 3–6) to the code."""

import pytest

from repro.core.join_graph import JoinGraph
from repro.core.phase2 import Phase2Config, enumerate_trees
from repro.core.placement import PlacementStore
from repro.routing import LookupTable
from repro.schema import Attr
from repro.sql import analyze_procedure
from repro.workloads.tpce import TpceBenchmark, TpceConfig


@pytest.fixture(scope="module")
def tpce():
    return TpceBenchmark(
        TpceConfig(customers=40, companies=10)
    ).generate(600, seed=7)


def customer_position_graph(bundle, replicated=None):
    schema = bundle.database.schema
    procedure = bundle.catalog.get("Customer-Position")
    analysis = analyze_procedure(procedure.statements, schema)
    if replicated is None:
        # the benchmark's real Phase-1 outcome: everything except the ten
        # broker-side tables is replicated
        from repro.trace.stats import classify_tables

        usage = classify_tables(bundle.trace, schema)
        replicated = {t for t, u in usage.items() if u.replicated}
    return JoinGraph.from_analysis(schema, analysis, replicated)


class TestFigure3AndExample5:
    """The Customer-Position join graph and its root attributes."""

    def test_accessed_tables(self, tpce):
        graph = customer_position_graph(tpce)
        assert {"CUSTOMER", "CUSTOMER_ACCOUNT", "TRADE", "TRADE_HISTORY",
                "HOLDING_SUMMARY", "LAST_TRADE"} <= set(graph.tables)

    def test_partitioned_tables(self, tpce):
        graph = customer_position_graph(tpce)
        assert graph.partitioned_tables == {
            "CUSTOMER_ACCOUNT", "TRADE", "TRADE_HISTORY", "HOLDING_SUMMARY",
        }

    def test_example5_roots(self, tpce):
        """Example 5: roots CA_ID, CA_C_ID, C_ID, C_TAX_ID."""
        graph = customer_position_graph(tpce)
        roots = {str(r) for r in graph.find_roots()}
        assert "CUSTOMER_ACCOUNT.CA_ID" in roots
        assert "CUSTOMER_ACCOUNT.CA_C_ID" in roots
        assert "CUSTOMER.C_ID" in roots
        assert "CUSTOMER.C_TAX_ID" in roots

    def test_example5_unique_join_paths(self, tpce):
        graph = customer_position_graph(tpce)
        paths = graph.paths_to(Attr("CUSTOMER_ACCOUNT", "CA_C_ID"))
        for table, found in paths.items():
            assert len(found) == 1, table


class TestExample6Split:
    """Example 6: with LAST_TRADE non-replicated, HOLDING_SUMMARY's
    m-to-n edges (to CUSTOMER_ACCOUNT and to the security side) force a
    graph split."""

    def test_split_when_last_trade_partitioned(self, tpce):
        from repro.trace.stats import classify_tables

        usage = classify_tables(tpce.trace, tpce.database.schema)
        replicated = {
            t for t, u in usage.items() if u.replicated and t != "LAST_TRADE"
        }
        graph = customer_position_graph(tpce, replicated)
        assert "LAST_TRADE" in graph.partitioned_tables
        assert graph.find_roots() == []
        subgraphs = graph.split()
        assert len(subgraphs) >= 2
        sides = [sub.partitioned_tables for sub in subgraphs]
        # The paper's Figure 3 connects HOLDING_SUMMARY and LAST_TRADE
        # through the (unaccessed) SECURITY key; our graph keeps only
        # direct key-FK edges between accessed tables, so LAST_TRADE
        # separates as its own component. Either way the account side
        # survives as a solvable subgraph without LAST_TRADE — the
        # outcome the example is about.
        assert any(
            "CUSTOMER_ACCOUNT" in side and "LAST_TRADE" not in side
            for side in sides
        )
        assert any(side == {"LAST_TRADE"} for side in sides)
        account_side = next(
            sub for sub in subgraphs
            if "CUSTOMER_ACCOUNT" in sub.partitioned_tables
        )
        assert account_side.find_roots()  # still solvable


class TestExample7Pruning:
    """Example 7: the CA_C_ID and C_TAX_ID trees are compatible; only the
    finer (CA_C_ID) survives, and CA_ID's tree fails mapping independence."""

    def test_total_solution_is_ca_c_id_only(self, tpce):
        from repro.core.phase2 import partition_class
        from repro.trace.stats import classify_tables
        from repro.trace import split_by_class

        from tests.referee import intern

        schema = tpce.database.schema
        usage = classify_tables(tpce.trace, schema)
        replicated = {t for t, u in usage.items() if u.replicated}
        stream = split_by_class(tpce.trace)["Customer-Position"]
        engine, view = intern(tpce.database, stream)
        result = partition_class(
            schema,
            tpce.catalog.get("Customer-Position"),
            view,
            replicated,
            engine,
            8,
        )
        roots = {str(r) for r in result.total_roots}
        assert roots == {"CUSTOMER_ACCOUNT.CA_C_ID"}
        assert result.partial_solutions == []


class TestLookupTableCoarseness:
    """Section 3: 'the coarser the attribute, the less space we need to
    store its lookup table'."""

    def test_coarser_attribute_smaller_table(self, tpce):
        from repro.core import JECBConfig, JECBPartitioner

        result = JECBPartitioner(
            tpce.database, tpce.catalog, JECBConfig(num_partitions=8)
        ).run(tpce.trace)
        store = PlacementStore(tpce.database, result.partitioning)
        fine = LookupTable.build(Attr("TRADE", "T_ID"), store)
        coarse = LookupTable.build(Attr("CUSTOMER_ACCOUNT", "CA_C_ID"), store)
        assert len(coarse) < len(fine)
