"""A brute-force differential oracle for join paths and mapping independence.

:meth:`JoinTree.is_mapping_independent` is the hot inner loop of Phase 2:
it decides Definition 7 on interned code columns, stops at the first
refuting chunk of transactions, and fills those columns through compiled
path plans that skip row fetches when the needed columns sit inside the
primary key and probe each distinct value once per hop. Any of
those optimizations could silently change Definition 7's meaning. This
module re-implements the definition as directly as possible — no cache,
no short-circuit, eager row materialization, a fresh live-or-tombstone
probe per row (:func:`tests.referee.naive_root_value`) — and Hypothesis cross-checks the kernel, the referee object scan
and every per-key walk against it on randomized schemas-with-tombstones
and traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join_path import JoinPath
from repro.core.join_tree import JoinTree
from repro.core.path_eval import SnapshotIndex, _PathPlan
from repro.schema.attribute import Attr
from repro.storage import Database
from repro.trace import Trace
from repro.trace.events import TransactionTrace, TupleAccess

from tests import referee
from tests.conftest import build_custinfo_schema, load_figure1_data
from tests.referee import naive_root_value


# ----------------------------------------------------------------------
# the oracle: Definition 7, computed the slow and obvious way
# ----------------------------------------------------------------------
def brute_force_mapping_independent(
    database, tree: JoinTree, trace: Trace
) -> bool:
    """Definition 7 verbatim: each transaction's covered tuples map to
    one root value, and every covered tuple maps at all."""
    for txn in trace:
        values = set()
        for table, key in txn.tuples:
            path = tree.paths.get(table)
            if path is None:
                continue
            value = naive_root_value(database, path, tuple(key))
            if value is None:
                return False
            values.add(value)
        if len(values) > 1:
            return False
    return True


# ----------------------------------------------------------------------
# fixtures: the custinfo tree family
# ----------------------------------------------------------------------
def _customer_tree(schema) -> JoinTree:
    return JoinTree(
        Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
        {
            "TRADE": JoinPath.parse(
                schema,
                [
                    "TRADE.T_ID", "TRADE.T_CA_ID",
                    "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
                ],
            ),
            "CUSTOMER_ACCOUNT": JoinPath.parse(
                schema,
                ["CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID"],
            ),
        },
    )


class TestKnownAnswers:
    def test_single_customer_transactions_are_independent(self):
        schema = build_custinfo_schema()
        database = Database(schema)
        load_figure1_data(database)
        tree = _customer_tree(schema)
        # accounts 1 and 8 both belong to customer 1
        trace = Trace([
            TransactionTrace(0, "T", [
                TupleAccess("CUSTOMER_ACCOUNT", (1,), False),
                TupleAccess("TRADE", (4,), True),   # account 8
                TupleAccess("TRADE", (1,), False),  # account 1
            ])
        ])
        engine, view = referee.intern(database, trace)
        assert tree.is_mapping_independent(view, engine)
        assert brute_force_mapping_independent(database, tree, trace)

    def test_cross_customer_transaction_refutes(self):
        schema = build_custinfo_schema()
        database = Database(schema)
        load_figure1_data(database)
        tree = _customer_tree(schema)
        trace = Trace([
            TransactionTrace(0, "T", [
                TupleAccess("TRADE", (1,), False),  # account 1 -> customer 1
                TupleAccess("TRADE", (2,), False),  # account 7 -> customer 2
            ])
        ])
        engine, view = referee.intern(database, trace)
        assert not tree.is_mapping_independent(view, engine)
        assert not brute_force_mapping_independent(database, tree, trace)

    def test_dangling_foreign_key_refutes_both_ways(self):
        schema = build_custinfo_schema()
        database = Database(schema)
        load_figure1_data(database)
        database.insert("TRADE", {"T_ID": 90, "T_CA_ID": 55, "T_QTY": 1})
        tree = _customer_tree(schema)
        trace = Trace([
            TransactionTrace(0, "T", [TupleAccess("TRADE", (90,), False)])
        ])
        engine, view = referee.intern(database, trace)
        assert not tree.is_mapping_independent(view, engine)
        assert not brute_force_mapping_independent(database, tree, trace)

    def test_deleted_account_still_maps_through_tombstone(self):
        schema = build_custinfo_schema()
        database = Database(schema)
        load_figure1_data(database)
        database.delete("CUSTOMER_ACCOUNT", (1,))
        tree = _customer_tree(schema)
        trace = Trace([
            TransactionTrace(0, "T", [
                TupleAccess("TRADE", (1,), False),  # account 1, now deleted
                TupleAccess("TRADE", (4,), False),  # account 8, customer 1
            ])
        ])
        engine, view = referee.intern(database, trace)
        assert tree.is_mapping_independent(view, engine)
        assert brute_force_mapping_independent(database, tree, trace)


# ----------------------------------------------------------------------
# randomized cross-check
# ----------------------------------------------------------------------
_ACCOUNTS = st.dictionaries(
    keys=st.integers(min_value=1, max_value=6),     # CA_ID
    values=st.integers(min_value=1, max_value=3),   # CA_C_ID
    min_size=1,
    max_size=6,
)

_TRADES = st.dictionaries(
    keys=st.integers(min_value=1, max_value=10),    # T_ID
    values=st.integers(min_value=1, max_value=8),   # T_CA_ID, may dangle
    min_size=0,
    max_size=10,
)

_DELETED_ACCOUNTS = st.sets(
    st.integers(min_value=1, max_value=6), max_size=3
)

_TXNS = st.lists(
    st.lists(
        st.one_of(
            st.tuples(
                st.just("TRADE"), st.integers(min_value=1, max_value=12)
            ),
            st.tuples(
                st.just("CUSTOMER_ACCOUNT"),
                st.integers(min_value=1, max_value=8),
            ),
        ),
        min_size=1,
        max_size=5,
    ),
    min_size=1,
    max_size=6,
)


@given(
    accounts=_ACCOUNTS,
    trades=_TRADES,
    deleted=_DELETED_ACCOUNTS,
    txns=_TXNS,
)
@settings(max_examples=60, deadline=None)
def test_optimized_checker_matches_brute_force(
    accounts, trades, deleted, txns
):
    schema = build_custinfo_schema()
    database = Database(schema)
    for customer in {c for c in accounts.values()}:
        database.insert(
            "CUSTOMER", {"C_ID": customer, "C_TAX_ID": 9000 + customer}
        )
    for ca_id, customer in accounts.items():
        database.insert(
            "CUSTOMER_ACCOUNT", {"CA_ID": ca_id, "CA_C_ID": customer}
        )
    for t_id, ca_id in trades.items():
        database.insert(
            "TRADE", {"T_ID": t_id, "T_CA_ID": ca_id, "T_QTY": 1}
        )
    for ca_id in deleted & accounts.keys():
        database.delete("CUSTOMER_ACCOUNT", (ca_id,))

    trace = Trace([
        TransactionTrace(
            i,
            "T",
            [TupleAccess(table, (key,), False) for table, key in accesses],
        )
        for i, accesses in enumerate(txns)
    ])
    tree = _customer_tree(schema)
    expected = brute_force_mapping_independent(database, tree, trace)
    engine, view = referee.intern(database, trace)
    assert tree.is_mapping_independent(view, engine) == expected
    # run it twice: the filled code columns must not change the verdict
    assert tree.is_mapping_independent(view, engine) == expected
    assert referee.mapping_independent(tree, trace, database) == expected

    # Per key, both holders of the compiled walk agree with the oracle:
    # the engine on every key the trace touches, a fresh plan (the
    # placement store's per-key walk) also on keys outside the trace —
    # with dangling foreign keys, tombstoned accounts and keys that name
    # no row at all.
    for table, key, value in referee.gathered_values(engine, view, tree.paths):
        assert value == naive_root_value(database, tree.paths[table], key)
    snapshots = SnapshotIndex(database)
    for table, top in (("TRADE", 12), ("CUSTOMER_ACCOUNT", 8)):
        path = tree.paths[table]
        plan = _PathPlan(path, snapshots)
        for i in range(1, top + 1):
            assert plan.value((i,)) == naive_root_value(database, path, (i,))
