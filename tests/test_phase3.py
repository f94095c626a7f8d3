"""Unit tests for Phase 3: combining solutions."""

import pytest

from repro.core.compat import AttributeLattice
from repro.core.join_path import JoinPath
from repro.core.mapping import HashMapping, LookupMapping
from repro.core.phase2 import partition_class
from repro.core.phase3 import (
    CandidateEntry,
    Phase3Config,
    combine,
    harvest_entries,
    merge_entries,
    reduced_solution_set,
)
from repro.schema import Attr
from repro.trace.stats import TableUsage, classify_tables

from tests.referee import intern


def path(schema, *nodes):
    return JoinPath.parse(schema, list(nodes))


@pytest.fixture
def lattice(custinfo_schema):
    return AttributeLattice(custinfo_schema)


def entry(table, p, mapping=None, mi=True, source="c"):
    return CandidateEntry(table, p, mapping, mi, source)


class TestMergeEntries:
    def test_coarser_wins(self, custinfo_schema, lattice):
        fine = entry(
            "TRADE",
            path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
                 "CUSTOMER_ACCOUNT.CA_ID"),
        )
        coarse = entry(
            "TRADE",
            path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
                 "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID"),
        )
        merged = merge_entries([fine, coarse], lattice)
        assert len(merged) == 1
        assert merged[0].attribute == Attr("CUSTOMER_ACCOUNT", "CA_C_ID")

    def test_merge_requires_finer_mapping_independent(
        self, custinfo_schema, lattice
    ):
        fine = entry(
            "TRADE",
            path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
                 "CUSTOMER_ACCOUNT.CA_ID"),
            mapping=LookupMapping(4, {}),
            mi=False,
        )
        coarse = entry(
            "TRADE",
            path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
                 "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID"),
        )
        merged = merge_entries([fine, coarse], lattice)
        assert len(merged) == 2  # Definition 14's second condition fails

    def test_equal_keeps_mapping_carrier(self, custinfo_schema, lattice):
        mi_entry = entry(
            "TRADE", path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID")
        )
        stat_entry = entry(
            "TRADE",
            path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID"),
            mapping=LookupMapping(4, {}),
            mi=False,
        )
        merged = merge_entries([mi_entry, stat_entry], lattice)
        assert len(merged) == 1
        assert merged[0].mapping is not None

    def test_incompatible_both_kept(self, custinfo_schema, lattice):
        a = entry("TRADE", path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID"))
        b = entry("TRADE", path(custinfo_schema, "TRADE.T_ID", "TRADE.T_QTY"))
        assert len(merge_entries([a, b], lattice)) == 2


class TestReducedSolutionSet:
    def test_extension_to_coarser_attr(self, custinfo_schema, lattice):
        fine = entry(
            "TRADE",
            path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
                 "CUSTOMER_ACCOUNT.CA_ID"),
        )
        out = reduced_solution_set(
            "TRADE",
            [fine],
            Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
            custinfo_schema,
            lattice,
        )
        assert len(out) == 1
        assert out[0].attribute == Attr("CUSTOMER_ACCOUNT", "CA_C_ID")

    def test_incompatible_excluded(self, custinfo_schema, lattice):
        qty = entry("TRADE", path(custinfo_schema, "TRADE.T_ID", "TRADE.T_QTY"))
        out = reduced_solution_set(
            "TRADE",
            [qty],
            Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
            custinfo_schema,
            lattice,
        )
        assert out == []

    def test_coarser_than_candidate_excluded(self, custinfo_schema, lattice):
        coarse = entry(
            "TRADE",
            path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
                 "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID"),
        )
        out = reduced_solution_set(
            "TRADE",
            [coarse],
            Attr("CUSTOMER_ACCOUNT", "CA_ID"),
            custinfo_schema,
            lattice,
        )
        assert out == []

    def test_class_level_goal(self, custinfo_schema, lattice):
        """Extension may stop at any attribute of the target's class."""
        fine = entry(
            "CUSTOMER_ACCOUNT",
            path(custinfo_schema, "CUSTOMER_ACCOUNT.CA_ID"),
        )
        out = reduced_solution_set(
            "CUSTOMER_ACCOUNT",
            [fine],
            Attr("TRADE", "T_CA_ID"),  # ≡ CA_ID, lives in another table
            custinfo_schema,
            lattice,
        )
        assert len(out) == 1


class TestCombine:
    def run_combine(self, custinfo_workload, config=None):
        database, catalog, trace = custinfo_workload
        usage = classify_tables(trace, database.schema)
        replicated = {t for t, u in usage.items() if u.replicated}
        partitioned = [
            t for t, u in usage.items() if u is TableUsage.PARTITIONED
        ]
        engine, view = intern(database, trace)
        class_results = [
            partition_class(
                database.schema,
                catalog.get("CustInfo"),
                view,
                replicated,
                engine,
                4,
            )
        ]
        return combine(
            class_results,
            partitioned,
            sorted(replicated),
            database.schema,
            engine,
            trace,
            4,
            config,
        )

    def test_best_solution_found(self, custinfo_workload):
        result = self.run_combine(custinfo_workload)
        assert result.best_report.cost == 0.0
        assert str(result.best_attribute) == "CUSTOMER_ACCOUNT.CA_C_ID"

    def test_candidates_reduced_to_coarsest(self, custinfo_workload):
        result = self.run_combine(custinfo_workload)
        assert Attr("CUSTOMER_ACCOUNT", "CA_C_ID") in result.candidate_attributes
        assert Attr("CUSTOMER_ACCOUNT", "CA_ID") not in result.candidate_attributes

    def test_search_space_diagnostics(self, custinfo_workload):
        result = self.run_combine(custinfo_workload)
        assert result.naive_search_space >= result.reduced_search_space >= 1
        assert "search space" in result.summary()

    def test_combination_cap(self, custinfo_workload):
        result = self.run_combine(
            custinfo_workload, Phase3Config(max_combinations_per_attr=1)
        )
        per_attr: dict = {}
        for combo in result.evaluated:
            per_attr[combo.attribute] = per_attr.get(combo.attribute, 0) + 1
        assert all(count <= 1 for count in per_attr.values())

    def test_empty_results_fall_back_to_replication(self, custinfo_workload):
        database, _catalog, trace = custinfo_workload
        engine, _view = intern(database, trace)
        result = combine(
            [],
            ["TRADE"],
            ["CUSTOMER"],
            database.schema,
            engine,
            trace,
            4,
        )
        assert result.best.solution_for("TRADE").replicated

    def test_harvest_dedupes_paths(self, custinfo_workload):
        database, catalog, trace = custinfo_workload
        usage = classify_tables(trace, database.schema)
        replicated = {t for t, u in usage.items() if u.replicated}
        engine, view = intern(database, trace)
        result = partition_class(
            database.schema, catalog.get("CustInfo"), view,
            replicated, engine, 4,
        )
        per_table = harvest_entries([result, result])  # duplicated input
        for entries in per_table.values():
            paths = [e.path for e in entries]
            assert len(paths) == len(set(paths))
