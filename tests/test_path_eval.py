"""Unit tests for join-path evaluation against live data.

Every layer walks a join path on the compiled :class:`_PathPlan`; each
case here checks one walk against the uncached referee walk
(:func:`tests.referee.naive_root_value`) as well as the expected value.
:class:`TestBatchWalk` holds whole batches — duplicates, tombstones,
NULL and dangling foreign keys, keys of the wrong arity, composite keys
and a hop into a non-key column — to the referee key by key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join_path import JoinPath
from repro.core.path_eval import SnapshotIndex, _PathPlan
from repro.schema import integer_table
from repro.storage import Database

from tests.conftest import build_custinfo_schema, load_figure1_data
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
        # is probed afresh (account 7 -> customer 2)
        figure1_db.update("TRADE", (1,), {"T_CA_ID": 7})
        assert plan.value((1,)) == 2
        # a write past the first hop is not seen through the hop memo
        # (its holder makes the plan forget instead); a fresh plan sees it
        figure1_db.update("CUSTOMER_ACCOUNT", (7,), {"CA_C_ID": 1})
        assert plan.value((1,)) == 2
        fresh = _PathPlan(p, SnapshotIndex(figure1_db))
        assert fresh.value((1,)) == 1 == naive_root_value(figure1_db, p, (1,))
        plan.forget()
        assert plan.value((1,)) == 1


# ----------------------------------------------------------------------
# batch walks
# ----------------------------------------------------------------------
DELETED = {
    "TRADE": [(1,)],
    "HOLDING_SUMMARY": [(101, 1)],
    "CUSTOMER_ACCOUNT": [(7,)],
    "CUSTOMER": [(2,)],
    "TAX_NOTE": [(3,)],
}


def _mixed_database() -> Database:
    """Figure 1 plus the cases a batch walk must get right per key.

    TAX_NOTE hops into CUSTOMER's non-key C_TAX_ID, and AUDIT reaches it
    through TAX_NOTE's primary key. TRADE 1 and HOLDING_SUMMARY (101, 1)
    are tombstones; account 7, customer 2 and note 3 are deleted hop
    rows; TRADE 70 and note 4 hold NULL foreign keys, TRADE 71 and note
    5 dangling ones.
    """
    schema = build_custinfo_schema()
    schema.add_table(integer_table("TAX_NOTE", ["N_ID", "N_TAX_ID"], ["N_ID"]))
    schema.add_table(integer_table("AUDIT", ["A_ID", "A_N_ID"], ["A_ID"]))
    schema.add_foreign_key("TAX_NOTE", ["N_TAX_ID"], "CUSTOMER", ["C_TAX_ID"])
    schema.add_foreign_key("AUDIT", ["A_N_ID"], "TAX_NOTE", ["N_ID"])
    database = Database(schema)
    load_figure1_data(database)
    database.insert("CUSTOMER", {"C_ID": 3, "C_TAX_ID": 9003})
    database.insert("CUSTOMER_ACCOUNT", {"CA_ID": 12, "CA_C_ID": 3})
    database.insert("TRADE", {"T_ID": 9, "T_CA_ID": 12, "T_QTY": 5})
    database.insert("TRADE", {"T_ID": 70, "T_CA_ID": None, "T_QTY": 1})
    # a NULL foreign key never joins, not even a row keyed by NULL
    database.insert("CUSTOMER_ACCOUNT", {"CA_ID": None, "CA_C_ID": 1})
    database.insert("TRADE", {"T_ID": 71, "T_CA_ID": 999, "T_QTY": 1})
    notes = [(1, 9001), (2, 9003), (3, 9001), (4, None), (5, 5555), (6, 9002)]
    for note, tax_id in notes:
        database.insert("TAX_NOTE", {"N_ID": note, "N_TAX_ID": tax_id})
    for audit in range(1, 9):
        database.insert("AUDIT", {"A_ID": audit, "A_N_ID": audit})
    for table, keys in DELETED.items():
        for key in keys:
            database.delete(table, key)
    return database


MIXED_DB = _mixed_database()
MIXED_SCHEMA = MIXED_DB.schema
TO_TAX_ID = [
    "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
    "CUSTOMER.C_ID", "CUSTOMER.C_TAX_ID",
]
#: one path per walk shape, with a batch key pool for its source table
MIXED_PATHS = {
    "key": (["TRADE.T_ID"], "TRADE"),
    "row": (["TRADE.T_ID", "TRADE.T_QTY"], "TRADE"),
    "two pk hops from the row": (
        ["TRADE.T_ID", "TRADE.T_CA_ID", *TO_TAX_ID], "TRADE"
    ),
    "composite key, hops from the key": (
        [
            ["HOLDING_SUMMARY.HS_S_SYMB", "HOLDING_SUMMARY.HS_CA_ID"],
            "HOLDING_SUMMARY.HS_CA_ID", *TO_TAX_ID,
        ],
        "HOLDING_SUMMARY",
    ),
    "non-key hop": (
        ["TAX_NOTE.N_ID", "TAX_NOTE.N_TAX_ID", "CUSTOMER.C_TAX_ID"],
        "TAX_NOTE",
    ),
    "pk hop, then a non-key hop": (
        [
            "AUDIT.A_ID", "AUDIT.A_N_ID", "TAX_NOTE.N_ID",
            "TAX_NOTE.N_TAX_ID", "CUSTOMER.C_TAX_ID",
        ],
        "AUDIT",
    ),
}
#: keys that name no tuple of any table: absent, or of the wrong arity
STRANGERS = [(999,), (), (1, 2, 3), (101, 1, 0)]


def _pool(table: str) -> list[tuple]:
    keys = list(MIXED_DB.table(table).keys())
    return keys + DELETED.get(table, []) + STRANGERS


def _plan(name: str) -> tuple[JoinPath, _PathPlan]:
    nodes, _table = MIXED_PATHS[name]
    p = JoinPath.parse(MIXED_SCHEMA, nodes)
    return p, _PathPlan(p, SnapshotIndex(MIXED_DB))


class TestBatchWalk:
    @pytest.mark.parametrize("name", sorted(MIXED_PATHS))
    def test_mixed_batch_matches_referee(self, name):
        p, plan = _plan(name)
        pool = _pool(MIXED_PATHS[name][1])
        batch = pool + pool[::-2]  # every key, then duplicates reversed
        expected = [naive_root_value(MIXED_DB, p, key) for key in batch]
        assert plan.values(batch) == expected
        # memoized hops answer a second batch the same way
        assert plan.values(batch[::-1]) == expected[::-1]
        assert [plan.value(key) for key in batch] == expected
        assert plan.values([]) == []

    @pytest.mark.smoke
    def test_figure1_batch_matches_referee(self, custinfo_schema, figure1_db):
        """Figure 1's trades to their customers in one batch, with a
        tombstoned trade, a tombstoned account, duplicates and strangers."""
        figure1_db.delete("TRADE", (1,))
        figure1_db.delete("CUSTOMER_ACCOUNT", (10,))
        p = path(
            custinfo_schema, "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
        )
        batch = [(t,) for t in range(1, 10)] + [(2,), (8,), (1, 1), ()]
        values = _PathPlan(p, SnapshotIndex(figure1_db)).values(batch)
        assert values == [naive_root_value(figure1_db, p, k) for k in batch]
        assert values[:8] == [1, 2, 2, 1, 1, 2, 1, 2]

    def test_row_values_read_the_rows_in_hand(self):
        _, plan = _plan("two pk hops from the row")
        table = MIXED_DB.table("TRADE")
        keys = list(table.keys())
        rows = [dict(table.get(key), T_CA_ID=8) for key in keys]
        assert plan.row_values(keys, rows) == [9001] * len(keys)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(MIXED_PATHS)),
        picks=st.lists(st.lists(st.integers(0, 40), max_size=25), max_size=4),
    )
    def test_random_batches_match_referee(self, name, picks):
        """Successive random batches on one plan, so later batches meet
        hops the earlier ones memoized."""
        p, plan = _plan(name)
        pool = _pool(MIXED_PATHS[name][1])
        for pick in picks:
            batch = [pool[i % len(pool)] for i in pick]
            expected = [naive_root_value(MIXED_DB, p, key) for key in batch]
            assert plan.values(batch) == expected
