"""Unit tests for join trees: mapping independence, subtrees, Property 1."""

import pytest

from repro.core.join_path import JoinPath
from repro.core.join_tree import JoinTree, prune_compatible_trees, tree_relation
from repro.errors import PartitioningError
from repro.schema import Attr
from repro.trace.events import Trace, TransactionTrace

from tests.referee import intern


def path(schema, *nodes):
    return JoinPath.parse(schema, list(nodes))


@pytest.fixture
def custinfo_trees(custinfo_schema):
    schema = custinfo_schema
    trade_to_ca = path(
        schema, "TRADE.T_ID", "TRADE.T_CA_ID", "CUSTOMER_ACCOUNT.CA_ID"
    )
    trade_to_cust = path(
        schema, "TRADE.T_ID", "TRADE.T_CA_ID", "CUSTOMER_ACCOUNT.CA_ID",
        "CUSTOMER_ACCOUNT.CA_C_ID",
    )
    hs_to_ca = JoinPath.parse(
        schema,
        [
            ["HOLDING_SUMMARY.HS_S_SYMB", "HOLDING_SUMMARY.HS_CA_ID"],
            "HOLDING_SUMMARY.HS_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID",
        ],
    )
    hs_to_cust = JoinPath.parse(
        schema,
        [
            ["HOLDING_SUMMARY.HS_S_SYMB", "HOLDING_SUMMARY.HS_CA_ID"],
            "HOLDING_SUMMARY.HS_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID",
            "CUSTOMER_ACCOUNT.CA_C_ID",
        ],
    )
    fine = JoinTree(
        Attr("CUSTOMER_ACCOUNT", "CA_ID"),
        {"TRADE": trade_to_ca, "HOLDING_SUMMARY": hs_to_ca},
    )
    coarse = JoinTree(
        Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
        {"TRADE": trade_to_cust, "HOLDING_SUMMARY": hs_to_cust},
    )
    return fine, coarse


def figure1_transaction(customer):
    """A CustInfo transaction over the Figure-1 data."""
    accounts = {1: [1, 8], 2: [7, 10]}[customer]
    trades = {1: [1, 4, 5, 7], 2: [2, 3, 6, 8]}[customer]
    holdings = {
        1: [(101, 1), (102, 1), (106, 8), (107, 8)],
        2: [(103, 7), (108, 7), (104, 10), (105, 10)],
    }[customer]
    txn = TransactionTrace(customer, "CustInfo")
    for trade in trades:
        txn.record("TRADE", (trade,), False)
    for key in holdings:
        txn.record("HOLDING_SUMMARY", key, False)
    for account in accounts:
        txn.record("CUSTOMER_ACCOUNT", (account,), False)
    return txn


class TestJoinTree:
    def test_validation_source_table(self, custinfo_schema):
        wrong = path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID")
        with pytest.raises(PartitioningError):
            JoinTree(Attr("TRADE", "T_CA_ID"), {"CUSTOMER_ACCOUNT": wrong})

    def test_validation_destination(self, custinfo_schema, custinfo_trees):
        fine, _ = custinfo_trees
        with pytest.raises(PartitioningError):
            JoinTree(
                Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
                {"TRADE": fine.paths["TRADE"]},
            )

    def test_tables_and_access(self, custinfo_trees):
        fine, _ = custinfo_trees
        assert fine.tables == {"TRADE", "HOLDING_SUMMARY"}
        assert fine.path("TRADE").source_table == "TRADE"

    def test_hash_and_eq(self, custinfo_trees):
        fine, coarse = custinfo_trees
        again = JoinTree(fine.root, dict(fine.paths))
        assert fine == again and hash(fine) == hash(again)
        assert fine != coarse

    def test_restrict(self, custinfo_trees):
        fine, _ = custinfo_trees
        only_trade = fine.restrict({"TRADE"})
        assert only_trade.tables == {"TRADE"}
        assert only_trade.root == fine.root


class TestMappingIndependence:
    def test_example7_analogue(self, figure1_db, custinfo_trees):
        """CA_ID tree is NOT mapping independent; CA_C_ID tree is."""
        fine, coarse = custinfo_trees
        trace = Trace([figure1_transaction(1), figure1_transaction(2)])
        engine, view = intern(figure1_db, trace)
        assert not fine.is_mapping_independent(view, engine)
        assert coarse.is_mapping_independent(view, engine)

    def test_property1_coarser_preserves_mi(self, figure1_db, custinfo_trees):
        """Property 1: if the finer tree is MI, so is any coarser tree.

        Here only single-account transactions run, making even CA_ID MI;
        the coarser CA_C_ID tree must then be MI too.
        """
        fine, coarse = custinfo_trees
        txn = TransactionTrace(0, "CustInfo")
        txn.record("TRADE", (1,), False)
        txn.record("TRADE", (7,), False)
        txn.record("HOLDING_SUMMARY", (101, 1), False)
        trace = Trace([txn])
        engine, view = intern(figure1_db, trace)
        assert fine.is_mapping_independent(view, engine)
        assert coarse.is_mapping_independent(view, engine)

    def test_unroutable_tuple_returns_none(self, figure1_db, custinfo_trees):
        """A covered tuple without a root value refutes the tree."""
        _, coarse = custinfo_trees
        txn = TransactionTrace(0, "CustInfo")
        txn.record("TRADE", (999,), False)  # no such trade, no tombstone
        engine, view = intern(figure1_db, Trace([txn]))
        assert not coarse.is_mapping_independent(view, engine)

    def test_uncovered_tables_ignored(self, figure1_db, custinfo_trees):
        _, coarse = custinfo_trees
        txn = TransactionTrace(0, "CustInfo")
        txn.record("TRADE", (1,), False)  # customer 1
        txn.record("CUSTOMER", (2,), False)  # not covered by the tree
        engine, view = intern(figure1_db, Trace([txn]))
        assert coarse.is_mapping_independent(view, engine)

    def test_view_of_another_trace_rejected(self, figure1_db, custinfo_trees):
        _, coarse = custinfo_trees
        trace = Trace([figure1_transaction(1)])
        engine, _view = intern(figure1_db, trace)
        _other, foreign = intern(figure1_db, trace)
        with pytest.raises(PartitioningError):
            coarse.is_mapping_independent(foreign, engine)


class TestTreeRelation:
    def test_coarser_detected(self, custinfo_trees):
        fine, coarse = custinfo_trees
        assert tree_relation(fine, coarse)
        assert not tree_relation(coarse, fine)

    def test_identical_not_coarser(self, custinfo_trees):
        fine, _ = custinfo_trees
        assert not tree_relation(fine, fine)

    def test_different_coverage_incomparable(self, custinfo_trees):
        fine, coarse = custinfo_trees
        partial = fine.restrict({"TRADE"})
        assert not tree_relation(partial, coarse)

    def test_prune_keeps_finest(self, custinfo_trees):
        fine, coarse = custinfo_trees
        kept = prune_compatible_trees([fine, coarse])
        assert kept == [fine]

    def test_prune_keeps_incomparable(self, custinfo_trees):
        fine, _ = custinfo_trees
        partial = fine.restrict({"TRADE"})
        kept = prune_compatible_trees([fine, partial])
        assert len(kept) == 2


class TestSubtrees:
    def test_subtree_removes_root(self, custinfo_trees):
        _, coarse = custinfo_trees
        subtrees = coarse.subtrees()
        assert len(subtrees) == 1
        sub = subtrees[0]
        assert sub.root == Attr("CUSTOMER_ACCOUNT", "CA_ID")
        assert sub.tables == coarse.tables

    def test_single_node_paths_drop_out(self, custinfo_schema):
        single = JoinPath.parse(custinfo_schema, ["CUSTOMER_ACCOUNT.CA_ID"])
        longer = JoinPath.parse(
            custinfo_schema,
            ["TRADE.T_ID", "TRADE.T_CA_ID", "CUSTOMER_ACCOUNT.CA_ID"],
        )
        tree = JoinTree(
            Attr("CUSTOMER_ACCOUNT", "CA_ID"),
            {"CUSTOMER_ACCOUNT": single, "TRADE": longer},
        )
        subtrees = tree.subtrees()
        assert len(subtrees) == 1
        assert subtrees[0].tables == {"TRADE"}
        assert subtrees[0].root == Attr("TRADE", "T_CA_ID")

    def test_recursive_subtree_chain(self, custinfo_trees):
        _, coarse = custinfo_trees
        level1 = coarse.subtrees()[0]
        level2 = level1.subtrees()
        # CA_ID tree's paths end with an fk hop; removing it leaves the
        # FK columns (T_CA_ID / HS_CA_ID) as separate roots
        roots = {t.root for t in level2}
        assert Attr("TRADE", "T_CA_ID") in roots
