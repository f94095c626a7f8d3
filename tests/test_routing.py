"""Unit tests for the runtime router and lookup tables."""

import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cluster import Cluster
from repro.core import JECBConfig, JECBPartitioner
from repro.core.join_path import JoinPath
from repro.core.mapping import IdentityModMapping
from repro.core.metrics import RoutingMetrics
from repro.core.placement import PlacementStore
from repro.core.solution import DatabasePartitioning, TableSolution
from repro.procedures import ProcedureCatalog, StoredProcedure
from repro.routing import LookupTable, Router, RouteSummary
from repro.schema import Attr
from repro.storage import Database
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig
from repro.workloads.tpce import TpceBenchmark, TpceConfig

from tests.conftest import (
    build_custinfo_procedure,
    build_custinfo_schema,
    load_figure1_data,
)
from tests.referee import eager_route, naive_lookup, naive_placement


@pytest.fixture
def customer_partitioning(custinfo_schema):
    mapping = IdentityModMapping(2)
    partitioning = DatabasePartitioning(2, name="by-customer")
    partitioning.set(
        TableSolution(
            "TRADE",
            JoinPath.parse(
                custinfo_schema,
                [
                    "TRADE.T_ID", "TRADE.T_CA_ID",
                    "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
                ],
            ),
            mapping,
        )
    )
    partitioning.set(
        TableSolution(
            "CUSTOMER_ACCOUNT",
            JoinPath.parse(
                custinfo_schema,
                ["CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID"],
            ),
            mapping,
        )
    )
    partitioning.set(TableSolution("HOLDING_SUMMARY"))
    partitioning.set(TableSolution("CUSTOMER"))
    return partitioning


class TestLookupTable:
    def test_build_and_query(self, figure1_db, customer_partitioning):
        lookup = LookupTable.build(
            Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
            PlacementStore(figure1_db, customer_partitioning),
        )
        # customer 1 -> partition 1 + 1 % 2 = 2; customer 2 -> 1
        assert lookup.partitions_for(1) == {2}
        assert lookup.partitions_for(2) == {1}
        assert lookup.partitions_for(99) is None
        assert len(lookup) == 2

    def test_partitions_for_returns_immutable_frozenset(
        self, figure1_db, customer_partitioning
    ):
        lookup = LookupTable.build(
            Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
            PlacementStore(figure1_db, customer_partitioning),
        )
        found = lookup.partitions_for(1)
        assert isinstance(found, frozenset)
        with pytest.raises(AttributeError):
            found.add(99)  # callers cannot corrupt the table via aliasing
        assert lookup.partitions_for(1) == {2}

    def test_staleness_and_dependencies(
        self, figure1_db, customer_partitioning
    ):
        lookup = LookupTable.build(
            Attr("TRADE", "T_CA_ID"),
            PlacementStore(figure1_db, customer_partitioning),
        )
        # The TRADE placement walks TRADE -> CUSTOMER_ACCOUNT.
        assert lookup.dependencies == ("TRADE", "CUSTOMER_ACCOUNT")
        assert not lookup.is_stale()
        # A detached store finds the write by the version check alone.
        figure1_db.insert("CUSTOMER_ACCOUNT", {"CA_ID": 77, "CA_C_ID": 1})
        assert lookup.is_stale()

    def test_apply_insert_and_delete_roundtrip(
        self, figure1_db, customer_partitioning
    ):
        attribute = Attr("CUSTOMER_ACCOUNT", "CA_C_ID")
        store = PlacementStore(figure1_db, customer_partitioning).attach()
        try:
            lookup = LookupTable.build(attribute, store)
            figure1_db.insert("CUSTOMER_ACCOUNT", {"CA_ID": 30, "CA_C_ID": 5})
            assert lookup.partitions_for(5) == {2}  # 1 + 5 % 2
            assert not lookup.is_stale()
            figure1_db.delete("CUSTOMER_ACCOUNT", (30,))
            assert lookup.partitions_for(5) is None
            assert not lookup.is_stale()
        finally:
            store.close()

    def test_apply_update_detects_sensitive_columns(
        self, figure1_db, customer_partitioning
    ):
        attribute = Attr("CUSTOMER_ACCOUNT", "CA_C_ID")
        store = PlacementStore(figure1_db, customer_partitioning).attach()
        try:
            lookup = LookupTable.build(attribute, store)
            # The attribute is also the path's root: account 7 moves from
            # customer 2 (partition 1) to customer 1 (partition 2).
            figure1_db.update("CUSTOMER_ACCOUNT", (7,), {"CA_C_ID": 1})
            assert lookup.partitions_for(1) == {2}
            assert lookup.partitions_for(2) == {1}  # account 10 stays
            figure1_db.update("CUSTOMER_ACCOUNT", (10,), {"CA_C_ID": 1})
            assert lookup.partitions_for(2) is None
            assert not lookup.is_stale()
        finally:
            store.close()

    def test_an_update_moves_a_count_only_if_its_value_or_pid_changes(
        self, figure1_db, customer_partitioning
    ):
        attribute = Attr("CUSTOMER_ACCOUNT", "CA_ID")
        store = PlacementStore(figure1_db, customer_partitioning).attach()
        metrics = RoutingMetrics()
        try:
            lookup = LookupTable.build(attribute, store, metrics)

            def matches_referee():
                expected = naive_lookup(
                    figure1_db, customer_partitioning, attribute
                )
                return {v: lookup.partitions_for(v) for v in lookup} == expected

            # Same value, new pid: account 7 moves from customer 2's
            # partition 1 to customer 1's partition 2.
            assert lookup.partitions_for(7) == {1}
            figure1_db.update("CUSTOMER_ACCOUNT", (7,), {"CA_C_ID": 1})
            moved = lookup.partitions_for(7)
            assert moved == {2} and matches_referee()
            # Same value, same pid: nothing moves, not even the memo.
            figure1_db.update("CUSTOMER_ACCOUNT", (7,), {"CA_C_ID": 1})
            assert lookup.partitions_for(7) is moved and matches_referee()
            assert metrics.write_through_updates == 2
            assert not lookup.is_stale()
        finally:
            store.close()

    def test_replicated_table_contributes_no_constraint(
        self, figure1_db, customer_partitioning
    ):
        lookup = LookupTable.build(
            Attr("HOLDING_SUMMARY", "HS_CA_ID"),
            PlacementStore(figure1_db, customer_partitioning),
        )
        assert lookup.partitions_for(1) == set()

    def test_fk_column_routes_like_target(
        self, figure1_db, customer_partitioning
    ):
        lookup = LookupTable.build(
            Attr("TRADE", "T_CA_ID"),
            PlacementStore(figure1_db, customer_partitioning),
        )
        # trades of account 1 belong to customer 1 -> partition 2
        assert lookup.partitions_for(1) == {2}


class TestRouter:
    @pytest.fixture
    def router(self, figure1_db, custinfo_procedure, customer_partitioning):
        from repro.procedures import ProcedureCatalog

        catalog = ProcedureCatalog([custinfo_procedure])
        return Router(figure1_db, catalog, customer_partitioning)

    def test_routes_by_customer_id(self, router):
        decision = router.route("CustInfo", {"cust_id": 1})
        assert decision.single_partition
        assert decision.partitions == frozenset({2})
        assert decision.routing_attribute is not None

    def test_routes_other_customer(self, router):
        decision = router.route("CustInfo", {"cust_id": 2})
        assert decision.partitions == frozenset({1})

    def test_unknown_value_broadcasts(self, router):
        decision = router.route("CustInfo", {"cust_id": 999})
        assert decision.broadcast
        assert decision.partitions == frozenset({1, 2})

    def test_no_arguments_broadcasts(self, router):
        decision = router.route("CustInfo", {})
        assert decision.broadcast

    def test_unknown_procedure_broadcasts(self, router):
        decision = router.route("Nope", {"x": 1})
        assert decision.broadcast

    def test_list_valued_argument(self, router):
        decision = router.route("CustInfo", {"cust_id": [1, 2]})
        assert not decision.broadcast
        assert decision.partitions == frozenset({1, 2})
        assert not decision.single_partition

    def test_end_to_end_with_jecb(self, custinfo_workload):
        database, catalog, trace = custinfo_workload
        result = JECBPartitioner(
            database, catalog, JECBConfig(num_partitions=4)
        ).run(trace)
        router = Router(database, catalog, result.partitioning)
        routed_single = 0
        for customer in range(1, 11):
            decision = router.route("CustInfo", {"cust_id": customer})
            routed_single += decision.single_partition
        assert routed_single == 10


CALL_BATTERY = (
    [("CustInfo", {"cust_id": c}) for c in (1, 2, 3, 4)]
    + [("CustInfo", {"any_account": a}) for a in (1, 7, 8, 10, 20)]
    + [
        ("CustInfo", {"cust_id": 1, "any_account": 7}),
        ("CustInfo", {"cust_id": [1, 2]}),
        ("CustInfo", {}),
    ]
)


def _decisions(router, calls=CALL_BATTERY):
    return [router.route(name, args) for name, args in calls]


def _fresh_decisions(database, catalog, partitioning, calls=CALL_BATTERY):
    fresh = Router(database, catalog, partitioning)
    try:
        return _decisions(fresh, calls)
    finally:
        fresh.close()


class TestWriteThrough:
    """The router must never serve decisions from a stale lookup."""

    @pytest.fixture
    def router(self, figure1_db, custinfo_procedure, customer_partitioning):
        router = Router(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
        )
        yield router
        router.close()

    def test_insert_is_applied_write_through(
        self, figure1_db, router, custinfo_procedure, customer_partitioning
    ):
        assert router.route("CustInfo", {"cust_id": 3}).broadcast
        figure1_db.insert("CUSTOMER", {"C_ID": 3, "C_TAX_ID": 9003})
        figure1_db.insert("CUSTOMER_ACCOUNT", {"CA_ID": 20, "CA_C_ID": 3})
        decision = router.route("CustInfo", {"cust_id": 3})
        assert decision.partitions == frozenset({2})  # 1 + 3 % 2
        assert not decision.broadcast
        # The CA_C_ID lookup absorbed the insert in place; only the TRADE
        # lookup (which joins through CUSTOMER_ACCOUNT) may rebuild.
        assert router.metrics.write_through_inserts == 1
        assert router.metrics.lookups_rebuilt <= 1

    def test_delete_regression_stale_lookup(
        self, figure1_db, router, custinfo_procedure, customer_partitioning
    ):
        # Regression: the seed router cached lookups forever, so deleting
        # every account of customer 1 kept routing to partition 2.
        assert router.route("CustInfo", {"cust_id": 1}).partitions == {2}
        figure1_db.delete("CUSTOMER_ACCOUNT", (1,))
        figure1_db.delete("CUSTOMER_ACCOUNT", (8,))
        stale_check = router.route("CustInfo", {"cust_id": 1})
        fresh = _fresh_decisions(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            [("CustInfo", {"cust_id": 1})],
        )[0]
        assert stale_check == fresh
        assert stale_check.broadcast  # customer 1 has no accounts left

    def test_update_of_routing_column_is_absorbed(
        self, figure1_db, router, custinfo_procedure, customer_partitioning
    ):
        assert router.route("CustInfo", {"cust_id": 2}).partitions == {1}
        figure1_db.update("CUSTOMER_ACCOUNT", (7,), {"CA_C_ID": 1})
        figure1_db.update("CUSTOMER_ACCOUNT", (10,), {"CA_C_ID": 1})
        decision = router.route("CustInfo", {"cust_id": 2})
        assert decision.broadcast  # customer 2 lost both accounts
        assert router.route("CustInfo", {"cust_id": 1}).partitions == {2}
        # The views moved the accounts' counts; nothing was rebuilt.
        assert router.metrics.write_through_updates >= 2
        assert router.metrics.lookups_rebuilt == 0

    def test_dependency_table_mutation_moves_rows(
        self, figure1_db, router, custinfo_procedure, customer_partitioning
    ):
        # TRADE's placement walks through CUSTOMER_ACCOUNT: retargeting an
        # account must re-route the trades that hang off it.
        assert router.route("CustInfo", {"any_account": 1}).partitions == {2}
        figure1_db.update("CUSTOMER_ACCOUNT", (1,), {"CA_C_ID": 2})
        decision = router.route("CustInfo", {"any_account": 1})
        assert decision.partitions == frozenset({1})  # now customer 2's
        # The store moved the trades and the T_CA_ID view followed.
        assert router.metrics.lookups_rebuilt == 0
        assert router.metrics.staleness_detections == 0

    def test_mutation_storm_matches_fresh_router(
        self, figure1_db, router, custinfo_procedure, customer_partitioning
    ):
        """Acceptance: decisions equal a freshly built router's after every
        insert/delete/update on routed and dependency tables."""
        catalog = ProcedureCatalog([custinfo_procedure])
        _decisions(router)  # warm the lookup cache
        mutations = [
            lambda: figure1_db.insert(
                "CUSTOMER_ACCOUNT", {"CA_ID": 20, "CA_C_ID": 3}
            ),
            lambda: figure1_db.insert(
                "TRADE", {"T_ID": 9, "T_CA_ID": 20, "T_QTY": 5}
            ),
            lambda: figure1_db.delete("TRADE", (2,)),
            lambda: figure1_db.update(
                "CUSTOMER_ACCOUNT", (7,), {"CA_C_ID": 1}
            ),
            lambda: figure1_db.delete("CUSTOMER_ACCOUNT", (10,)),
            lambda: figure1_db.update("TRADE", (1,), {"T_QTY": 7}),
        ]
        for mutate in mutations:
            mutate()
            live = _decisions(router)
            fresh = _fresh_decisions(
                figure1_db, catalog, customer_partitioning
            )
            assert live == fresh
            assert_lookups_match_referee(
                router, figure1_db, customer_partitioning
            )

    def test_non_sensitive_update_is_write_through_noop(
        self, figure1_db, router, custinfo_procedure, customer_partitioning
    ):
        before = router.route("CustInfo", {"any_account": 1})
        figure1_db.update("TRADE", (1,), {"T_QTY": 99})
        assert router.route("CustInfo", {"any_account": 1}) == before
        assert router.metrics.write_through_updates >= 1
        assert router.metrics.lookups_rebuilt == 0

    def test_version_check_backstops_detached_hooks(
        self, figure1_db, router, custinfo_procedure, customer_partitioning
    ):
        assert router.route("CustInfo", {"cust_id": 1}).partitions == {2}
        router.close()  # hooks gone: only the staleness check remains
        figure1_db.delete("CUSTOMER_ACCOUNT", (1,))
        figure1_db.delete("CUSTOMER_ACCOUNT", (8,))
        assert router.route("CustInfo", {"cust_id": 1}).broadcast
        assert router.metrics.staleness_detections >= 1

    def test_detached_rebuild_walks_fresh_rows(self):
        """A stale lookup rebuilt behind detached hooks must not reuse
        walks memoized before the writes it missed."""
        from tests.test_path_effects import _tpcc_layout

        bundle = TpccBenchmark(TpccConfig(warehouses=2)).generate(0, seed=11)
        database = bundle.database
        partitioning = _tpcc_layout(database.schema, "C_ID")
        router = Router(database, bundle.catalog, partitioning)
        attribute = Attr("ORDER_LINE", "OL_I_ID")
        router.lookup_table(attribute)  # warm: memoizes every line's walk
        router.close()
        customer = database.table("ORDERS").get((1, 1, 1))["O_C_ID"]
        database.update("ORDERS", (1, 1, 1), {"O_C_ID": customer % 30 + 1})
        router.lookup_table(attribute)  # stale: rebuilt
        assert router.metrics.lookups_rebuilt == 1
        assert_lookups_match_referee(router, database, partitioning)


class TestReplicatedOnly:
    @pytest.fixture
    def router(self, figure1_db, customer_partitioning):
        procedure = StoredProcedure(
            "Holdings",
            params=["acct"],
            statements={
                "read": """
                    SELECT HS_QTY FROM HOLDING_SUMMARY
                    WHERE HS_CA_ID = @acct
                """
            },
        )
        router = Router(
            figure1_db, ProcedureCatalog([procedure]), customer_partitioning
        )
        yield router
        router.close()

    def test_replicated_only_is_distinct_outcome(self, router):
        decision = router.route("Holdings", {"acct": 1})
        assert decision.replicated_only
        assert not decision.broadcast
        assert decision.single_partition
        assert decision.outcome == "replicated_only"

    def test_replicated_only_spreads_deterministically(self, router):
        decisions = {
            acct: router.route("Holdings", {"acct": acct})
            for acct in (1, 7, 8, 10)
        }
        for acct, decision in decisions.items():
            (pid,) = decision.partitions
            assert 1 <= pid <= 2
            repeat = router.route("Holdings", {"acct": acct})
            assert repeat.partitions == decision.partitions
        # the old code hard-coded partition 1 for every replicated read
        spread = {next(iter(d.partitions)) for d in decisions.values()}
        assert len(spread) == 2

    def test_replicated_only_counted_in_summary(self, router):
        summary = router.route_summary(
            [("Holdings", {"acct": a}) for a in (1, 7, 8, 10)]
        )
        assert summary.replicated_only == 4
        assert summary.single_partition == 0
        assert summary.single_partition_fraction == 1.0
        assert "replicated-only" in str(summary)

    def test_constrained_candidate_beats_replicated_only(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        # cust_id resolves against replicated CUSTOMER data in the
        # Holdings-style statement, but any_account locates real TRADE
        # tuples: the informative candidate must win.
        partitioning = DatabasePartitioning(2, name="trades-only")
        partitioning.set(
            TableSolution(
                "TRADE",
                JoinPath.parse(
                    figure1_db.schema,
                    [
                        "TRADE.T_ID", "TRADE.T_CA_ID",
                        "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
                    ],
                ),
                IdentityModMapping(2),
            )
        )
        partitioning.set(TableSolution("CUSTOMER_ACCOUNT"))
        partitioning.set(TableSolution("HOLDING_SUMMARY"))
        partitioning.set(TableSolution("CUSTOMER"))
        router = Router(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            partitioning,
        )
        try:
            decision = router.route(
                "CustInfo", {"cust_id": 1, "any_account": 7}
            )
            assert not decision.replicated_only
            assert decision.partitions == frozenset({1})
            assert decision.routing_attribute == Attr("TRADE", "T_CA_ID")
        finally:
            router.close()


class TestRoutingEdgeCases:
    @pytest.fixture
    def router(self, figure1_db, custinfo_procedure, customer_partitioning):
        router = Router(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
        )
        yield router
        router.close()

    def test_in_list_parameters(self, router):
        for value in ([1, 2], (1, 2), {1, 2}):
            decision = router.route("CustInfo", {"cust_id": value})
            assert decision.partitions == frozenset({1, 2})
            assert not decision.broadcast

    def test_unseen_value_falls_to_next_candidate(self, router):
        decision = router.route(
            "CustInfo", {"cust_id": 999, "any_account": 1}
        )
        assert decision.single_partition
        assert decision.routing_attribute == Attr("TRADE", "T_CA_ID")

    def test_none_valued_parameter_broadcasts(self, router):
        decision = router.route("CustInfo", {"cust_id": None})
        assert decision.broadcast
        assert router.metrics.broadcast_causes.get("unknown_value", 0) >= 1

    def test_none_inside_in_list_falls_through(self, router):
        decision = router.route("CustInfo", {"cust_id": [1, None]})
        assert decision.broadcast

    def test_empty_in_list_broadcasts(self, router):
        assert router.route("CustInfo", {"cust_id": []}).broadcast

    def test_missing_argument_cause_recorded(self, router):
        assert router.route("CustInfo", {}).broadcast
        assert router.metrics.broadcast_causes.get("missing_argument", 0) >= 1

    def test_pure_broadcast_catalog_without_bindings(
        self, figure1_db, customer_partitioning
    ):
        procedure = StoredProcedure(
            "Sweep",
            params=[],
            statements={"read": "SELECT C_TAX_ID FROM CUSTOMER"},
        )
        router = Router(
            figure1_db, ProcedureCatalog([procedure]), customer_partitioning
        )
        try:
            decision = router.route("Sweep", {})
            assert decision.broadcast
            assert decision.partitions == frozenset({1, 2})
            assert (
                router.metrics.broadcast_causes.get("no_bindings", 0) >= 1
            )
        finally:
            router.close()


def _build_custinfo_partitioning(schema):
    mapping = IdentityModMapping(2)
    partitioning = DatabasePartitioning(2, name="by-customer")
    partitioning.set(
        TableSolution(
            "TRADE",
            JoinPath.parse(
                schema,
                [
                    "TRADE.T_ID", "TRADE.T_CA_ID",
                    "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
                ],
            ),
            mapping,
        )
    )
    partitioning.set(
        TableSolution(
            "CUSTOMER_ACCOUNT",
            JoinPath.parse(
                schema, ["CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID"]
            ),
            mapping,
        )
    )
    partitioning.set(TableSolution("HOLDING_SUMMARY"))
    partitioning.set(TableSolution("CUSTOMER"))
    return partitioning


_WRITE = st.one_of(
    st.tuples(st.just("insert_ca"), st.integers(1, 5), st.just(0)),
    st.tuples(st.just("insert_trade"), st.integers(1, 25), st.just(0)),
    st.tuples(st.just("delete_ca"), st.integers(1, 29), st.just(0)),
    st.tuples(st.just("delete_trade"), st.integers(1, 120), st.just(0)),
    st.tuples(
        st.just("retarget_ca"), st.integers(1, 29), st.integers(1, 5)
    ),
    st.tuples(
        st.just("retarget_trade"),
        st.integers(1, 120),
        st.integers(1, 25),
    ),
    st.tuples(
        st.just("touch_qty"), st.integers(1, 120), st.integers(1, 99)
    ),
    # Re-insert a deleted account (the a-th tombstone): with its old
    # owner the swap is invisible to every walk, with a new owner it
    # moves the account's trades.
    st.tuples(
        st.just("reinsert_ca"), st.integers(0, 9), st.integers(1, 5)
    ),
)
_STORM = st.lists(_WRITE, min_size=1, max_size=15)


def _apply_storm(database, storm, between=lambda: None, other=None):
    """Apply one ``_STORM`` draw to *database* (a Figure-1 load).

    *between* runs after every mutation, e.g. to keep a router's lookup
    cache warm so each write meets a maintained lookup. *other* maps the
    kinds of step ``_STORM`` does not draw to a function of ``(a, b)``.
    """
    next_ca, next_trade = 20, 100
    tombstoned: set[int] = set()  # deleted accounts not inserted again
    for kind, a, b in storm:
        if other is not None and kind in other:
            other[kind](a, b)
        elif kind == "insert_ca":
            database.insert(
                "CUSTOMER_ACCOUNT", {"CA_ID": next_ca, "CA_C_ID": a}
            )
            next_ca += 1
        elif kind == "insert_trade":
            database.insert(
                "TRADE",
                {"T_ID": next_trade, "T_CA_ID": a, "T_QTY": 1},
            )
            next_trade += 1
        elif kind == "delete_ca":
            if database.get("CUSTOMER_ACCOUNT", (a,)) is not None:
                database.delete("CUSTOMER_ACCOUNT", (a,))
                tombstoned.add(a)
        elif kind == "delete_trade":
            if database.get("TRADE", (a,)) is not None:
                database.delete("TRADE", (a,))
        elif kind == "retarget_ca":
            if database.get("CUSTOMER_ACCOUNT", (a,)) is not None:
                database.update("CUSTOMER_ACCOUNT", (a,), {"CA_C_ID": b})
        elif kind == "retarget_trade":
            if database.get("TRADE", (a,)) is not None:
                database.update("TRADE", (a,), {"T_CA_ID": b})
        elif kind == "reinsert_ca":
            dead = sorted(tombstoned)
            if dead:
                ca_id = dead[a % len(dead)]
                database.insert(
                    "CUSTOMER_ACCOUNT", {"CA_ID": ca_id, "CA_C_ID": b}
                )
                tombstoned.discard(ca_id)
        else:  # touch_qty: routing-insensitive update
            if database.get("TRADE", (a,)) is not None:
                database.update("TRADE", (a,), {"T_QTY": b})
        between()


def assert_lookups_match_referee(router, database, partitioning):
    """The router's store and every cached lookup equal the referee's.

    Each cached view's store column must have followed every write
    (in step, so no refill hides a missed one) and hold the referee's
    placement; each view must hold the referee's group-by.
    """
    placement = naive_placement(database, partitioning)
    store = router.store
    for attribute, cached in router.cached_lookups().items():
        table = attribute.table
        assert store.in_step(table), table
        if table in placement:
            assert store.pids(table) == placement[table], table
        expected = naive_lookup(database, partitioning, attribute, placement)
        assert len(cached) == len(expected), attribute
        for value, partitions in expected.items():
            assert cached.partitions_for(value) == partitions, (
                attribute, value
            )


class TestMetamorphicWriteThrough:
    """Metamorphic property: a write-through-maintained router is
    indistinguishable from one built from scratch on the mutated database,
    decision for decision; after every write its placement store and
    lookup views equal the referee's."""

    @given(storm=_STORM)
    @settings(max_examples=50, deadline=None)
    def test_storm_preserves_lookup_equivalence(self, storm):
        schema = build_custinfo_schema()
        database = Database(schema)
        load_figure1_data(database)
        catalog = ProcedureCatalog([build_custinfo_procedure()])
        partitioning = _build_custinfo_partitioning(schema)
        router = Router(database, catalog, partitioning)
        try:
            # route after every write, so each one meets warm lookups:
            # the decisions equal a fresh router's, and the store and the
            # views the referee's, each time
            def step():
                live = _decisions(router)
                assert live == _fresh_decisions(database, catalog, partitioning)
                assert_lookups_match_referee(router, database, partitioning)

            step()
            _apply_storm(database, storm, between=step)
        finally:
            router.close()


# ----------------------------------------------------------------------
# cached plans against a fresh router, call by call
# ----------------------------------------------------------------------
_REOPEN = StoredProcedure(
    "Reopen",
    params=["ca_id", "c_id"],
    statements={
        "insert": """
            INSERT INTO CUSTOMER_ACCOUNT (CA_ID, CA_C_ID)
            VALUES (@ca_id, @c_id)
        """
    },
)
_INTERLEAVED_CALLS = CALL_BATTERY + [
    ("Reopen", {"ca_id": 1, "c_id": 2}),
    ("Reopen", {"ca_id": 40, "c_id": 1}),
]
#: ``_STORM``'s writes plus the changes that reach a router's views other
#: than through its store's listeners: see ``_run_interleaved``
_INTERLEAVED = st.lists(
    st.one_of(
        _WRITE,
        st.tuples(st.just("detach"), st.just(0), st.just(0)),
        st.tuples(
            st.just("retomb_ca"), st.sampled_from([1, 7, 40]), st.integers(1, 5)
        ),
        st.tuples(
            st.just("aborted_reopen"),
            st.sampled_from([1, 7, 40]),
            st.integers(1, 5),
        ),
        st.tuples(st.just("aborted_read"), st.integers(1, 2), st.integers(1, 2)),
        st.tuples(
            st.just("route_in_aborted_txn"),
            st.sampled_from([1, 7, 40]),
            st.integers(1, 5),
        ),
    ),
    min_size=1,
    max_size=12,
)


def _consulted_view_is_current(partitions_for):
    """Wrap ``LookupTable.partitions_for``: a consulted view's column must
    be in step, and the view built from the column's current fill."""

    def checked(view, value):
        table = view.attribute.table
        assert view.store.in_step(table), (view, "column out of step")
        assert view.generation == view.store.generation(table), (
            view, "column filled again since the view was built"
        )
        return partitions_for(view, value)

    return checked


def _run_interleaved(steps):
    """Apply *steps* to a Figure-1 database and route after each one.

    Two routers are under test: one over its own placement store, and a
    cluster's, over the cluster's. After every step each routes
    ``_INTERLEAVED_CALLS`` call by call and as a batch, and must decide
    as a router built afresh does; every lookup either consults must be
    current. Besides ``_STORM``'s writes a step can be:

    * ``detach``: close the first router; later writes reach its store
      only through the version check;
    * ``retomb_ca``: a tombstone for the non-live account *a*, naming
      customer *b*, which no listener hears;
    * ``aborted_reopen``: a cluster transaction re-inserting account *a*
      for customer *b* with every node down; the rollback restores the
      tombstone the insert replaced;
    * ``aborted_read``: ``retomb_ca`` on account 40, then a cluster call
      for customer *b* with node *a* down; a column it finds out of step
      is filled inside the transaction and, if it aborts, filled again by
      the abort;
    * ``route_in_aborted_txn``: ``retomb_ca``, then route inside a
      transaction of the first router's store, then abort it, which
      fills again every column the routing filled.

    Returns how often an abort filled a column again, per store.
    """
    schema = build_custinfo_schema()
    database = Database(schema)
    load_figure1_data(database)
    catalog = ProcedureCatalog([build_custinfo_procedure(), _REOPEN])
    partitioning = _build_custinfo_partitioning(schema)
    router = Router(database, catalog, partitioning)
    cluster = Cluster(database, catalog, partitioning)
    calls = _INTERLEAVED_CALLS
    abort_refills = Counter()
    abort = PlacementStore.abort

    def counted_abort(store):
        before = store.refills
        abort(store)
        if store.refills != before:
            label = "router" if store is router.store else "cluster"
            abort_refills[label] += 1

    def check():
        fresh = _fresh_decisions(database, catalog, partitioning, calls)
        for live in (router, cluster.router):
            assert _decisions(live, calls) == fresh
            assert live.route_batch(calls) == fresh

    def retomb(a, b):
        if database.get("CUSTOMER_ACCOUNT", (a,)) is None:
            database.table("CUSTOMER_ACCOUNT").restore_tombstone(
                (a,), {"CA_ID": a, "CA_C_ID": b}
            )

    def aborted_reopen(a, b):
        if database.get("CUSTOMER_ACCOUNT", (a,)) is not None:
            return
        for node in cluster.nodes.values():
            node.crash()
        assert not cluster.execute("Reopen", {"ca_id": a, "c_id": b})
        for node in cluster.nodes.values():
            node.recover()

    def aborted_read(a, b):
        retomb(40, b)
        cluster.nodes[a].crash()
        cluster.execute("CustInfo", {"cust_id": b, "any_account": 1})
        cluster.nodes[a].recover()

    def route_in_aborted_txn(a, b):
        retomb(a, b)
        router.store.begin()
        check()
        router.store.abort()

    other = {
        "detach": lambda a, b: router.close(),
        "retomb_ca": retomb,
        "aborted_reopen": aborted_reopen,
        "aborted_read": aborted_read,
        "route_in_aborted_txn": route_in_aborted_txn,
    }
    checked = _consulted_view_is_current(LookupTable.partitions_for)
    try:
        with mock.patch.object(
            LookupTable, "partitions_for", checked
        ), mock.patch.object(PlacementStore, "abort", counted_abort):
            check()
            _apply_storm(database, steps, between=check, other=other)
        assert cluster.check_conservation() == []
    finally:
        cluster.close()
        router.close()
    return abort_refills, router.metrics


@given(steps=_INTERLEAVED)
@settings(max_examples=40, deadline=None)
def test_interleaved_storm_routes_like_a_fresh_router(steps):
    _run_interleaved(steps)


@pytest.mark.smoke
def test_interleaved_storm_routes_like_a_fresh_router_smoke():
    abort_refills, metrics = _run_interleaved(
        [
            # account 1 (customer 1) is deleted; an aborted re-insert for
            # customer 2 puts its tombstone back behind the listeners
            ("delete_ca", 1, 0),
            ("aborted_reopen", 1, 2),
            # account 40's tombstone puts the account and trade columns
            # out of step, heard by no listener; each read, with the node
            # of its customer down, fills the trade column again inside
            # the transaction, and its abort once more
            ("retomb_ca", 40, 2),
            ("aborted_read", 2, 1),
            ("aborted_read", 1, 2),
            ("route_in_aborted_txn", 40, 1),
            # from here on the first router's store hears no write
            ("detach", 0, 0),
            ("retarget_ca", 7, 1),
            ("insert_trade", 8, 0),
            ("reinsert_ca", 0, 2),
            ("route_in_aborted_txn", 40, 3),
        ]
    )
    assert abort_refills == {"cluster": 2, "router": 2}
    assert metrics.staleness_detections > 0


class TestCachedPlans:
    """One plan per procedure, kept while no write or refill moves the
    stamp; a lookup is built only when a call consults it."""

    @pytest.fixture
    def router(self, figure1_db, custinfo_procedure, customer_partitioning):
        router = Router(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
        )
        yield router
        router.close()

    @pytest.fixture
    def resolved(self, monkeypatch):
        """Attributes the router resolves a lookup for, in order."""
        attributes = []
        lookup = Router._lookup

        def counted(self, attribute):
            attributes.append(attribute)
            return lookup(self, attribute)

        monkeypatch.setattr(Router, "_lookup", counted)
        return attributes

    def test_a_lookup_is_resolved_once_until_the_stamp_moves(
        self, figure1_db, router, resolved
    ):
        by_customer = Attr("CUSTOMER_ACCOUNT", "CA_C_ID")
        assert router.route("CustInfo", {"cust_id": 1}).partitions == {2}
        assert resolved == [by_customer]
        assert set(router.cached_lookups()) == {by_customer}
        resolved.clear()
        router.route("CustInfo", {"cust_id": 2})
        router.route_batch([("CustInfo", {"cust_id": 1})] * 3)
        assert resolved == []
        # an unseen customer falls through to the next candidate
        router.route("CustInfo", {"cust_id": 999, "any_account": 1})
        assert by_customer not in resolved and resolved
        resolved.clear()
        # a write moves the stamp: the next call resolves again
        figure1_db.update("TRADE", (1,), {"T_QTY": 5})
        router.route("CustInfo", {"cust_id": 1})
        assert resolved == [by_customer]
        assert router.metrics.staleness_detections == 0

    def test_an_abort_that_refills_a_column_moves_the_stamp(
        self, figure1_db, router
    ):
        """Routing inside a store transaction fills a column the abort
        fills again: the view built in between must not be served."""
        assert router.route("CustInfo", {"cust_id": 1}).partitions == {2}
        figure1_db.table("CUSTOMER_ACCOUNT").restore_tombstone(
            (40,), {"CA_ID": 40, "CA_C_ID": 2}
        )
        router.store.begin()
        assert router.route("CustInfo", {"cust_id": 1}).partitions == {2}
        assert router.metrics.lookups_rebuilt == 1
        router.store.abort()
        lookup = router.lookup_table(Attr("CUSTOMER_ACCOUNT", "CA_C_ID"))
        writes = figure1_db.writes
        with mock.patch.object(
            LookupTable,
            "partitions_for",
            _consulted_view_is_current(LookupTable.partitions_for),
        ):
            assert router.route("CustInfo", {"cust_id": 1}).partitions == {2}
        assert figure1_db.writes == writes
        assert router.metrics.lookups_rebuilt == 2
        assert router.metrics.staleness_detections == 2
        assert router.cached_lookups()[lookup.attribute] is lookup

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_first_call_keeps_the_build_out_of_its_latency(
        self, router, monkeypatch, batch
    ):
        pause = 0.05
        build = LookupTable.build

        def slow_build(cls, *arguments):
            time.sleep(pause)
            return build(*arguments)

        monkeypatch.setattr(LookupTable, "build", classmethod(slow_build))
        call = ("CustInfo", {"cust_id": 1})
        if batch:
            router.route_batch([call])
        else:
            router.route(*call)
        metrics = router.metrics
        assert metrics.lookups_built == 1
        assert metrics.lookup_build_seconds >= pause
        (histogram,) = metrics.latency.values()
        assert histogram.count == 1
        assert histogram.max_seconds < pause


# ----------------------------------------------------------------------
# lazy plans against the eager referee, on bundled workloads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def routed_bundles():
    """(bundle, JECB layout) per workload, generated once."""
    bundles = {
        "tpcc": TpccBenchmark(
            TpccConfig(warehouses=2, customers_per_district=8)
        ).generate(300, seed=11),
        "tatp": TatpBenchmark(TatpConfig(subscribers=120)).generate(
            400, seed=77
        ),
        "tpce": TpceBenchmark(
            TpceConfig(customers=30, brokers=8, companies=10)
        ).generate(500, seed=27),
    }
    return {
        name: (bundle, repro.partition(bundle, num_partitions=4).partitioning)
        for name, bundle in bundles.items()
    }


def _calls_with_misses(bundle):
    """The trace's calls, plus per procedure one call without arguments
    and one whose every argument is a value no row holds."""
    calls = bundle.trace.calls()
    firsts = {name: arguments for name, arguments in reversed(calls)}
    for name, arguments in sorted(firsts.items()):
        calls.append((name, {}))
        calls.append((name, {param: "no such value" for param in arguments}))
    return calls


@pytest.mark.parametrize("workload", ["tpcc", "tatp", "tpce"])
def test_lazy_routing_matches_the_eager_referee(routed_bundles, workload):
    bundle, partitioning = routed_bundles[workload]
    calls = _calls_with_misses(bundle)
    expected, consulted = eager_route(
        bundle.database, bundle.catalog, partitioning, calls
    )
    causes = Counter(cause for _, cause in expected if cause is not None)
    assert len(causes) > 1
    reference = RouteSummary()
    for decision, _ in expected:
        reference.record(decision)

    serial = Router(bundle.database, bundle.catalog, partitioning)
    batch = Router(bundle.database, bundle.catalog, partitioning)
    try:
        assert [serial.route(n, a) for n, a in calls] == [
            decision for decision, _ in expected
        ]
        summary = batch.route_summary(calls)
        for router in (serial, batch):
            assert router.metrics.broadcast_causes == causes
            assert router.metrics.lookups_built == len(consulted)
            assert set(router.cached_lookups()) == consulted
        assert str(summary) == str(reference)
    finally:
        serial.close()
        batch.close()


class TestBatchRouting:
    @pytest.fixture
    def router(self, figure1_db, custinfo_procedure, customer_partitioning):
        router = Router(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
        )
        yield router
        router.close()

    def test_batch_matches_serial(self, router):
        calls = CALL_BATTERY * 3
        batch = router.route_batch(calls)
        serial = [router.route(name, args) for name, args in calls]
        assert batch == serial

    def test_batch_memoizes_repeated_signatures(self, router):
        calls = [("CustInfo", {"cust_id": 1})] * 10
        decisions = router.route_batch(calls)
        assert len(set(decisions)) == 1
        assert router.metrics.batch_calls == 10
        assert router.metrics.batch_memo_hits == 9

    def test_unbound_unhashable_arguments_are_ignored(self, router):
        calls = [
            ("CustInfo", {"cust_id": 1, "extra": {"nested": True}}),
            ("CustInfo", {"cust_id": 1, "extra": {"nested": False}}),
        ]
        first, second = router.route_batch(calls)
        assert first == second
        assert first.partitions == frozenset({2})

    def test_summary_carries_metrics_and_latency(self, router):
        summary = router.route_summary(CALL_BATTERY)
        assert summary.metrics is router.metrics
        observed = sum(
            h.count for h in summary.metrics.latency.values()
        )
        assert observed == summary.total
        assert summary.total == len(CALL_BATTERY)


class TestTransitiveRouting:
    """A call routable only through the dataflow transitive closure.

    The procedure constrains CUSTOMER.C_ID with a *local variable* whose
    value is proven equal to the declared parameter (SELECT @cust = CA_C_ID
    ... WHERE CA_C_ID = @cust_id). The analyzer's direct bindings cannot
    route this; the router's dataflow closure can.
    """

    @pytest.fixture
    def transitive_setup(self, figure1_db):
        schema = figure1_db.schema
        partitioning = DatabasePartitioning(2, name="by-customer")
        partitioning.set(
            TableSolution(
                "CUSTOMER",
                JoinPath.parse(schema, ["CUSTOMER.C_ID"]),
                IdentityModMapping(2),
            )
        )
        for replicated in ("CUSTOMER_ACCOUNT", "TRADE", "HOLDING_SUMMARY"):
            partitioning.set(TableSolution(replicated))
        procedure = StoredProcedure(
            "TaxInfo",
            params=["cust_id"],
            statements={
                "find": (
                    "SELECT @cust = CA_C_ID FROM CUSTOMER_ACCOUNT "
                    "WHERE CA_C_ID = @cust_id"
                ),
                "read": "SELECT C_TAX_ID FROM CUSTOMER WHERE C_ID = @cust",
            },
        )
        router = Router(
            figure1_db, ProcedureCatalog([procedure]), partitioning
        )
        yield schema, procedure, router
        router.close()

    def test_direct_bindings_alone_cannot_route(self, transitive_setup):
        from repro.sql import analyze_procedure

        schema, procedure, _router = transitive_setup
        merged = analyze_procedure(procedure.statements, schema)
        assert (Attr("CUSTOMER", "C_ID"), "cust_id") not in (
            merged.param_bindings
        )

    def test_routes_via_transitive_binding(self, transitive_setup):
        _schema, _procedure, router = transitive_setup
        first = router.route("TaxInfo", {"cust_id": 1})
        second = router.route("TaxInfo", {"cust_id": 2})
        assert first.single_partition and second.single_partition
        assert first.partitions != second.partitions
