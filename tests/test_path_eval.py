"""Unit tests for join-path evaluation against live data."""

import pytest

from repro.core.join_path import JoinPath
from repro.core.path_eval import JoinPathEvaluator


def path(schema, *nodes):
    return JoinPath.parse(schema, list(nodes))


@pytest.fixture
def evaluator(figure1_db):
    return JoinPathEvaluator(figure1_db)


class TestEvaluation:
    def test_figure1_red_partition(self, custinfo_schema, evaluator):
        """Figure 1: trades of accounts 1 and 8 belong to customer 1."""
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
        )
        assert evaluator.evaluate(p, (1,)) == 1
        assert evaluator.evaluate(p, (4,)) == 1
        assert evaluator.evaluate(p, (2,)) == 2
        assert evaluator.evaluate(p, (3,)) == 2

    def test_composite_source(self, custinfo_schema, evaluator):
        p = JoinPath.parse(
            custinfo_schema,
            [
                ["HOLDING_SUMMARY.HS_S_SYMB", "HOLDING_SUMMARY.HS_CA_ID"],
                "HOLDING_SUMMARY.HS_CA_ID",
                "CUSTOMER_ACCOUNT.CA_ID",
                "CUSTOMER_ACCOUNT.CA_C_ID",
            ],
        )
        assert evaluator.evaluate(p, (101, 1)) == 1
        assert evaluator.evaluate(p, (103, 7)) == 2

    def test_single_node_path_reads_key(self, custinfo_schema, evaluator):
        p = path(custinfo_schema, "CUSTOMER_ACCOUNT.CA_ID")
        assert evaluator.evaluate(p, (8,)) == 8

    def test_intra_only_path_from_key_no_fetch(self, custinfo_schema, figure1_db):
        # The value comes straight from the key even after deletion
        p = path(custinfo_schema, "TRADE.T_ID")
        evaluator = JoinPathEvaluator(figure1_db)
        figure1_db.delete("TRADE", (1,))
        assert evaluator.evaluate(p, (1,)) == 1

    def test_deleted_row_uses_tombstone(self, custinfo_schema, figure1_db):
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
        )
        figure1_db.delete("TRADE", (1,))
        evaluator = JoinPathEvaluator(figure1_db)
        assert evaluator.evaluate(p, (1,)) == 1

    def test_missing_row_returns_none(self, custinfo_schema, evaluator):
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID",
        )
        assert evaluator.evaluate(p, (999,)) is None

    def test_null_fk_returns_none(self, custinfo_schema, figure1_db):
        figure1_db.insert("TRADE", {"T_ID": 70, "T_CA_ID": None, "T_QTY": 1})
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID",
        )
        evaluator = JoinPathEvaluator(figure1_db)
        assert evaluator.evaluate(p, (70,)) is None

    def test_dangling_fk_returns_none(self, custinfo_schema, figure1_db):
        figure1_db.insert("TRADE", {"T_ID": 71, "T_CA_ID": 999, "T_QTY": 1})
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID",
        )
        evaluator = JoinPathEvaluator(figure1_db)
        assert evaluator.evaluate(p, (71,)) is None

    def test_wrong_key_arity_returns_none(self, custinfo_schema, evaluator):
        p = path(custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID")
        assert evaluator.evaluate(p, (1, 2)) is None

    def test_memoization(self, custinfo_schema, figure1_db):
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
        )
        evaluator = JoinPathEvaluator(figure1_db)
        assert evaluator.evaluate(p, (1,)) == 1
        # mutate the row; the memoized value must win (trace semantics)
        figure1_db.update("TRADE", (1,), {"T_CA_ID": 7})
        assert evaluator.evaluate(p, (1,)) == 1
        evaluator.clear_cache()
        assert evaluator.evaluate(p, (1,)) == 2
        # a write past the first hop: clear_cache also drops the walk
        # memoized per first-hop value (account 7 -> customer 2)
        figure1_db.update("CUSTOMER_ACCOUNT", (7,), {"CA_C_ID": 1})
        evaluator.clear_cache()
        assert evaluator.evaluate(p, (1,)) == 1
