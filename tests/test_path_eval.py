"""Unit tests for join-path evaluation against live data.

Every layer walks a join path on the compiled :class:`_PathPlan`; each
case here checks one walk against the uncached referee walk
(:func:`tests.referee.naive_root_value`) as well as the expected value.
"""

import pytest

from repro.core.join_path import JoinPath
from repro.core.path_eval import SnapshotIndex, _PathPlan

from tests.referee import naive_root_value


def path(schema, *nodes):
    return JoinPath.parse(schema, list(nodes))


@pytest.fixture
def evaluate(figure1_db):
    """Root value of *key* on a fresh plan, held to the referee walk."""

    def walk(p, key):
        value = _PathPlan(p, SnapshotIndex(figure1_db)).value(key)
        assert value == naive_root_value(figure1_db, p, key)
        return value

    return walk


class TestEvaluation:
    def test_figure1_red_partition(self, custinfo_schema, evaluate):
        """Figure 1: trades of accounts 1 and 8 belong to customer 1."""
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
        )
        assert evaluate(p, (1,)) == 1
        assert evaluate(p, (4,)) == 1
        assert evaluate(p, (2,)) == 2
        assert evaluate(p, (3,)) == 2

    def test_composite_source(self, custinfo_schema, evaluate):
        p = JoinPath.parse(
            custinfo_schema,
            [
                ["HOLDING_SUMMARY.HS_S_SYMB", "HOLDING_SUMMARY.HS_CA_ID"],
                "HOLDING_SUMMARY.HS_CA_ID",
                "CUSTOMER_ACCOUNT.CA_ID",
                "CUSTOMER_ACCOUNT.CA_C_ID",
            ],
        )
        assert evaluate(p, (101, 1)) == 1
        assert evaluate(p, (103, 7)) == 2

    def test_single_node_path_reads_key(self, custinfo_schema, evaluate):
        p = path(custinfo_schema, "CUSTOMER_ACCOUNT.CA_ID")
        assert evaluate(p, (8,)) == 8

    def test_intra_only_path_from_key_no_fetch(
        self, custinfo_schema, figure1_db, evaluate
    ):
        # The value comes straight from the key even after deletion
        p = path(custinfo_schema, "TRADE.T_ID")
        figure1_db.delete("TRADE", (1,))
        assert evaluate(p, (1,)) == 1

    def test_deleted_row_uses_tombstone(
        self, custinfo_schema, figure1_db, evaluate
    ):
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
        )
        figure1_db.delete("TRADE", (1,))
        assert evaluate(p, (1,)) == 1

    def test_missing_row_returns_none(self, custinfo_schema, evaluate):
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID",
        )
        assert evaluate(p, (999,)) is None

    def test_null_fk_returns_none(self, custinfo_schema, figure1_db, evaluate):
        figure1_db.insert("TRADE", {"T_ID": 70, "T_CA_ID": None, "T_QTY": 1})
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID",
        )
        assert evaluate(p, (70,)) is None

    def test_dangling_fk_returns_none(
        self, custinfo_schema, figure1_db, evaluate
    ):
        figure1_db.insert("TRADE", {"T_ID": 71, "T_CA_ID": 999, "T_QTY": 1})
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID",
        )
        assert evaluate(p, (71,)) is None

    def test_wrong_key_arity_returns_none(self, custinfo_schema, evaluate):
        p = path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID")
        assert evaluate(p, (1, 2)) is None

    def test_memoization(self, custinfo_schema, figure1_db):
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
        )
        plan = _PathPlan(p, SnapshotIndex(figure1_db))
        assert plan.value((1,)) == 1
        # the source row is read on every walk: a new first-hop value
        # starts a new tail walk (account 7 -> customer 2)
        figure1_db.update("TRADE", (1,), {"T_CA_ID": 7})
        assert plan.value((1,)) == 2
        # a write past the first hop is not seen through the tail memo
        # (its holder drops the plan instead); a fresh plan sees it
        figure1_db.update("CUSTOMER_ACCOUNT", (7,), {"CA_C_ID": 1})
        assert plan.value((1,)) == 2
        fresh = _PathPlan(p, SnapshotIndex(figure1_db))
        assert fresh.value((1,)) == 1 == naive_root_value(figure1_db, p, (1,))
