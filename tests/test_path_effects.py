"""Writes to join-path tables: the NONE / UNPLACED / ALL rule.

``TableSolution.mutation_effect`` decides what a write to a table on a
join path can do to the placements that walk through it. The placement
store acts on it, and the router's lookup views and the cluster's nodes
follow the store, so the differential checks here hold all three to the
referee (``tests.referee.naive_placement`` and ``naive_lookup``), plus
row conservation. TPC-C pins the cases that matter for JECB's
customer-rooted answer, and ``Cluster._rollback`` must put back the exact
tombstone an aborted insert replaced.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.cluster import Cluster
from repro.core.join_path import JoinPath
from repro.core.mapping import IdentityModMapping
from repro.core.placement import UNROUTABLE, PlacementStore
from repro.core.solution import DatabasePartitioning, PathEffect, TableSolution
from repro.cluster import FaultPlan
from repro.procedures import ProcedureCatalog, StoredProcedure
from repro.schema import Attr, DatabaseSchema, integer_table
from repro.storage import Database
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig

from tests.conftest import (
    build_custinfo_procedure,
    build_custinfo_schema,
    load_figure1_data,
)
from tests.referee import naive_placement
from tests.test_routing import (
    _STORM,
    _apply_storm,
    _build_custinfo_partitioning,
    assert_lookups_match_referee,
)

NONE, UNPLACED, ALL = PathEffect.NONE, PathEffect.UNPLACED, PathEffect.ALL


def assert_store_exact(store, database, partitioning):
    """Every column of *store* followed every write and equals the referee."""
    for table, pids in naive_placement(database, partitioning).items():
        assert store.in_step(table), table
        assert store.pids(table) == pids, table


def assert_cluster_exact(cluster):
    """Store, node contents and lookups all equal the referee."""
    assert_store_exact(cluster.store, cluster.source, cluster.partitioning)
    assert cluster.check_conservation() == []
    assert_lookups_match_referee(
        cluster.router, cluster.source, cluster.partitioning
    )


def _home(cluster, table, key):
    """Node holding the singly-homed row *key*, per the store."""
    return cluster.node_of(cluster.store.pid_of(table, key))


@pytest.fixture
def replacements(monkeypatch):
    """Record every store re-placement after a hop write as (table, full?)."""
    calls = []
    original = PlacementStore._replace

    def spy(self, column, effect):
        calls.append((column.name, effect is ALL))
        return original(self, column, effect)

    monkeypatch.setattr(PlacementStore, "_replace", spy)
    return calls


# ----------------------------------------------------------------------
# the rule itself
# ----------------------------------------------------------------------
class TestMutationEffect:
    @pytest.fixture
    def trade(self, custinfo_schema):
        """TRADE -> CUSTOMER_ACCOUNT (entered by its primary key)."""
        return _build_custinfo_partitioning(custinfo_schema).solution_for(
            "TRADE"
        )

    def _effect(self, solution, schema, table, op, old, new):
        return solution.mutation_effect(schema.table(table), op, old, new)

    def test_read_sets_are_the_path_node_columns(self, trade):
        assert trade.read_sets == {
            "TRADE": frozenset({"T_ID", "T_CA_ID"}),
            "CUSTOMER_ACCOUNT": frozenset({"CA_ID", "CA_C_ID"}),
        }
        assert TableSolution("CUSTOMER").read_sets == {}

    def test_derived_views_are_computed_once(self, trade):
        assert trade.dependency_tables is trade.dependency_tables
        assert trade.read_sets is trade.read_sets

    def test_update_outside_the_read_set_is_free(self, trade, custinfo_schema):
        # CA_NOTE stands for any column the path does not read.
        old = {"CA_ID": 1, "CA_C_ID": 1, "CA_NOTE": "a"}
        effect = self._effect(
            trade, custinfo_schema, "CUSTOMER_ACCOUNT", "update",
            old, dict(old, CA_NOTE="b"),
        )
        assert effect is NONE

    def test_update_of_a_read_column_moves_anything(
        self, trade, custinfo_schema
    ):
        effect = self._effect(
            trade, custinfo_schema, "CUSTOMER_ACCOUNT", "update",
            {"CA_ID": 1, "CA_C_ID": 1}, {"CA_ID": 1, "CA_C_ID": 2},
        )
        assert effect is ALL

    def test_delete_falls_back_to_the_tombstone(self, trade, custinfo_schema):
        effect = self._effect(
            trade, custinfo_schema, "CUSTOMER_ACCOUNT", "delete",
            {"CA_ID": 1, "CA_C_ID": 1}, None,
        )
        assert effect is NONE

    def test_fresh_insert_only_completes_unplaced_walks(
        self, trade, custinfo_schema
    ):
        effect = self._effect(
            trade, custinfo_schema, "CUSTOMER_ACCOUNT", "insert",
            None, {"CA_ID": 40, "CA_C_ID": 1},
        )
        assert effect is UNPLACED

    def test_insert_over_a_tombstone_compares_the_read_set(
        self, trade, custinfo_schema
    ):
        tombstone = {"CA_ID": 1, "CA_C_ID": 1}
        same = self._effect(
            trade, custinfo_schema, "CUSTOMER_ACCOUNT", "insert",
            tombstone, dict(tombstone),
        )
        moved = self._effect(
            trade, custinfo_schema, "CUSTOMER_ACCOUNT", "insert",
            tombstone, {"CA_ID": 1, "CA_C_ID": 2},
        )
        assert (same, moved) == (NONE, ALL)

    def test_own_rows_are_left_to_the_writer(self, trade, custinfo_schema):
        # No hop lands in TRADE: a TRADE write only moves the written row.
        effect = self._effect(
            trade, custinfo_schema, "TRADE", "update",
            {"T_ID": 1, "T_CA_ID": 1}, {"T_ID": 1, "T_CA_ID": 7},
        )
        assert effect is NONE

    def test_non_key_hop_keeps_the_full_rebuild(self, custinfo_schema):
        # Entering CUSTOMER_ACCOUNT through CA_C_ID (not its key): a delete
        # leaves no tombstone the walk could fall back to.
        custinfo_schema.add_foreign_key(
            "HOLDING_SUMMARY", ["HS_QTY"], "CUSTOMER_ACCOUNT", ["CA_C_ID"]
        )
        solution = TableSolution(
            "HOLDING_SUMMARY",
            JoinPath.parse(
                custinfo_schema,
                [
                    ["HOLDING_SUMMARY.HS_S_SYMB", "HOLDING_SUMMARY.HS_CA_ID"],
                    "HOLDING_SUMMARY.HS_QTY",
                    "CUSTOMER_ACCOUNT.CA_C_ID",
                ],
            ),
            IdentityModMapping(2),
        )
        row = {"CA_ID": 1, "CA_C_ID": 1}
        for op, old, new in (
            ("delete", row, None),
            ("insert", None, row),
            ("insert", row, dict(row)),
        ):
            effect = solution.mutation_effect(
                custinfo_schema.table("CUSTOMER_ACCOUNT"), op, old, new
            )
            assert effect is ALL, op


# ----------------------------------------------------------------------
# differential: the cluster twin of the router storm
# ----------------------------------------------------------------------
@given(storm=_STORM)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_cluster_storm_matches_fresh_placement(storm):
    schema = build_custinfo_schema()
    database = Database(schema)
    load_figure1_data(database)
    catalog = ProcedureCatalog([build_custinfo_procedure()])
    cluster = Cluster(database, catalog, _build_custinfo_partitioning(schema))
    router = cluster.router
    try:
        calls = [("CustInfo", {"cust_id": c}) for c in (1, 2, 3)] + [
            ("CustInfo", {"any_account": a}) for a in (1, 7, 20)
        ]

        def route_all():
            for name, arguments in calls:
                router.route(name, arguments)

        def step():
            route_all()
            assert_cluster_exact(cluster)

        step()
        _apply_storm(database, storm, between=step)
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# TPC-C: JECB's customer-rooted answer
# ----------------------------------------------------------------------
_CUSTOMER_PK = ["CUSTOMER.C_W_ID", "CUSTOMER.C_D_ID", "CUSTOMER.C_ID"]
_ORDERS_PK = ["ORDERS.O_W_ID", "ORDERS.O_D_ID", "ORDERS.O_ID"]


def _tpcc_layout(schema, root):
    """JECB's TPC-C layout: order tables follow ORDERS.O_C_ID to CUSTOMER.

    *root* is the CUSTOMER column the customer-side paths end at: JECB
    picks ``C_W_ID``; ``C_ID`` makes a customer retarget move rows.
    """
    to_root = [_CUSTOMER_PK, f"CUSTOMER.{root}"]
    orders = [
        _ORDERS_PK, ["ORDERS.O_W_ID", "ORDERS.O_D_ID", "ORDERS.O_C_ID"]
    ] + to_root
    paths = {
        "WAREHOUSE": ["WAREHOUSE.W_ID"],
        "DISTRICT": [
            ["DISTRICT.D_W_ID", "DISTRICT.D_ID"],
            "DISTRICT.D_W_ID",
            "WAREHOUSE.W_ID",
        ],
        "STOCK": [["STOCK.S_W_ID", "STOCK.S_I_ID"], "STOCK.S_W_ID"],
        "CUSTOMER": to_root,
        "HISTORY": [
            "HISTORY.H_ID",
            ["HISTORY.H_C_W_ID", "HISTORY.H_C_D_ID", "HISTORY.H_C_ID"],
        ]
        + to_root,
        "ORDERS": orders,
        "NEW_ORDER": [
            ["NEW_ORDER.NO_W_ID", "NEW_ORDER.NO_D_ID", "NEW_ORDER.NO_O_ID"]
        ]
        + orders,
        "ORDER_LINE": [
            [
                "ORDER_LINE.OL_W_ID", "ORDER_LINE.OL_D_ID",
                "ORDER_LINE.OL_O_ID", "ORDER_LINE.OL_NUMBER",
            ],
            ["ORDER_LINE.OL_W_ID", "ORDER_LINE.OL_D_ID", "ORDER_LINE.OL_O_ID"],
        ]
        + orders,
    }
    mapping = IdentityModMapping(4)
    partitioning = DatabasePartitioning(4, name=f"tpcc-{root}")
    for table, nodes in paths.items():
        partitioning.set(
            TableSolution(table, JoinPath.parse(schema, nodes), mapping)
        )
    partitioning.set(TableSolution("ITEM"))
    return partitioning


@pytest.fixture
def tpcc():
    benchmark = TpccBenchmark(TpccConfig(warehouses=2))
    bundle = benchmark.generate(0, seed=11)
    return benchmark, bundle


def _tpcc_cluster(bundle, root):
    partitioning = _tpcc_layout(bundle.database.schema, root)
    return Cluster(bundle.database, bundle.catalog, partitioning)


class _Driver:
    """Collector stand-in: executes each generated call on the cluster."""

    def __init__(self, cluster):
        self.cluster = cluster

    def run(self, procedure, arguments):
        assert self.cluster.execute(procedure.name, arguments)


def _order_lines(database, order_key):
    w_id, d_id, o_id = order_key
    return [
        key
        for key in database.table("ORDER_LINE").keys()
        if key[:3] == (w_id, d_id, o_id)
    ]


class TestTpccWrites:
    def test_payment_stream_rebuilds_and_replaces_nothing(
        self, tpcc, replacements
    ):
        benchmark, bundle = tpcc
        cluster = _tpcc_cluster(bundle, "C_W_ID")
        try:
            driver = _Driver(cluster)
            payment = bundle.catalog.get("Payment")
            rng = random.Random(3)
            for _ in range(25):
                benchmark.run_transaction(driver, payment, rng)
            metrics = cluster.router.metrics
            assert metrics.lookups_built > 0
            assert metrics.lookups_rebuilt == 0
            assert metrics.staleness_detections == 0
            assert replacements == []
            assert_cluster_exact(cluster)
        finally:
            cluster.close()

    def test_order_customer_retarget_moves_its_lines(
        self, tpcc, replacements
    ):
        _, bundle = tpcc
        database = bundle.database
        cluster = _tpcc_cluster(bundle, "C_ID")
        try:
            order = (1, 1, 1)
            lines = _order_lines(database, order)
            assert lines
            customer = database.get("ORDERS", order)["O_C_ID"]
            target = customer % 30 + 1  # next customer: next partition
            mapping = cluster.partitioning.solution_for("ORDERS").mapping
            home = cluster.node_of(mapping(target))
            assert home != cluster.node_of(mapping(customer))
            lookup = cluster.router.lookup_table(Attr("ORDER_LINE", "OL_O_ID"))
            assert lookup.partitions_for(1)  # warm

            database.update("ORDERS", order, {"O_C_ID": target})
            for key in lines:
                assert _home(cluster, "ORDER_LINE", key) == home
            assert ("ORDER_LINE", True) in replacements
            # The view followed the moved lines; nothing was rebuilt.
            assert mapping(target) in lookup.partitions_for(1)
            assert cluster.router.metrics.lookups_rebuilt == 0
            assert_cluster_exact(cluster)
        finally:
            cluster.close()

    def test_line_before_its_order_is_placed_by_the_order_insert(
        self, tpcc, replacements
    ):
        _, bundle = tpcc
        database = bundle.database
        cluster = _tpcc_cluster(bundle, "C_W_ID")
        try:
            router = cluster.router
            lookup = router.lookup_table(Attr("ORDER_LINE", "OL_O_ID"))
            line = (1, 1, 99, 1)
            database.insert(
                "ORDER_LINE",
                {
                    "OL_W_ID": 1, "OL_D_ID": 1, "OL_O_ID": 99,
                    "OL_NUMBER": 1, "OL_I_ID": 1, "OL_SUPPLY_W_ID": 1,
                    "OL_QUANTITY": 1, "OL_AMOUNT": 1,
                },
            )
            assert cluster.store.pid_of("ORDER_LINE", line) == UNROUTABLE
            assert lookup.partitions_for(99) == frozenset()

            database.insert(
                "ORDERS",
                {
                    "O_W_ID": 1, "O_D_ID": 1, "O_ID": 99, "O_C_ID": 1,
                    "O_CARRIER_ID": 0, "O_OL_CNT": 1,
                },
            )
            mapping = cluster.partitioning.solution_for("ORDER_LINE").mapping
            assert _home(cluster, "ORDER_LINE", line) == (
                cluster.node_of(mapping(1))
            )
            assert lookup.partitions_for(99) == frozenset({mapping(1)})
            assert router.cached_lookups()[lookup.attribute] is lookup
            assert router.metrics.lookups_rebuilt == 0
            # only the unroutable rows were looked at again
            assert replacements and all(not full for _, full in replacements)
            assert_cluster_exact(cluster)
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# rollback restores the tombstone an aborted insert replaced
# ----------------------------------------------------------------------
class TestRollbackTombstones:
    def test_tatp_call_forwarding_tombstone_comes_back(self):
        bundle = TatpBenchmark(TatpConfig(subscribers=80)).generate(300, seed=5)
        partitioning = repro.partition(bundle, num_partitions=4).partitioning
        database = bundle.database
        cluster = Cluster(database, bundle.catalog, partitioning)
        try:
            table = database.table("CALL_FORWARDING")
            key = next(iter(table.keys()))
            original = dict(table.get(key))
            database.delete("CALL_FORWARDING", key)

            cluster._begin()
            aborted = dict(
                original,
                CF_END_TIME=original["CF_END_TIME"] + 1,
                CF_NUMBERX=original["CF_NUMBERX"] + 1,
            )
            database.insert("CALL_FORWARDING", aborted)
            cluster._rollback()

            assert table.get(key) is None
            assert table.get_snapshot(key) == original
            assert_cluster_exact(cluster)
        finally:
            cluster.close()

    @pytest.fixture
    def cluster(self, figure1_db, custinfo_schema, custinfo_procedure):
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            _build_custinfo_partitioning(custinfo_schema),
        )
        yield cluster
        cluster.close()

    def test_aborted_reinsert_does_not_move_dependents(
        self, figure1_db, cluster
    ):
        # Account 1 (customer 1) is deleted; its trades still follow the
        # tombstone. An aborted re-insert for customer 2 must not leave
        # customer 2 in the tombstone.
        figure1_db.delete("CUSTOMER_ACCOUNT", (1,))
        cluster._begin()
        figure1_db.insert("CUSTOMER_ACCOUNT", {"CA_ID": 1, "CA_C_ID": 2})
        cluster._rollback()
        snapshot = figure1_db.table("CUSTOMER_ACCOUNT").get_snapshot((1,))
        assert snapshot == {"CA_ID": 1, "CA_C_ID": 1}
        assert_cluster_exact(cluster)

    def test_aborted_fresh_insert_leaves_no_tombstone(
        self, figure1_db, cluster
    ):
        figure1_db.insert("TRADE", {"T_ID": 50, "T_CA_ID": 40, "T_QTY": 1})
        cluster._begin()
        figure1_db.insert("CUSTOMER_ACCOUNT", {"CA_ID": 40, "CA_C_ID": 2})
        cluster._rollback()
        table = figure1_db.table("CUSTOMER_ACCOUNT")
        assert table.get_snapshot((40,)) is None
        assert cluster.store.pid_of("TRADE", (50,)) == UNROUTABLE
        assert_cluster_exact(cluster)

    def test_aborted_insert_over_a_tombstone_leaves_the_store_exact(
        self, figure1_db, custinfo_schema
    ):
        # Account 1 (customer 1, node 2) is deleted; its trades follow the
        # tombstone. A live re-insert for customer 2 targets node 1, which
        # is down: every attempt aborts, and each rollback restores the
        # tombstone behind the store's listeners.
        reopen = StoredProcedure(
            "Reopen",
            params=["ca_id", "c_id"],
            statements={
                "insert": """
                    INSERT INTO CUSTOMER_ACCOUNT (CA_ID, CA_C_ID)
                    VALUES (@ca_id, @c_id)
                """
            },
        )
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([reopen]),
            _build_custinfo_partitioning(custinfo_schema),
            fault_plan=FaultPlan().crash(node=1, at=0),
        )
        try:
            figure1_db.delete("CUSTOMER_ACCOUNT", (1,))
            assert not cluster.execute("Reopen", {"ca_id": 1, "c_id": 2})
            assert cluster.metrics.failed == 1
            table = figure1_db.table("CUSTOMER_ACCOUNT")
            assert table.get((1,)) is None
            assert table.get_snapshot((1,)) == {"CA_ID": 1, "CA_C_ID": 1}
            assert _home(cluster, "TRADE", (1,)) == 2
            assert_cluster_exact(cluster)
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# a path that lands back on its own source table
# ----------------------------------------------------------------------
def test_path_back_into_its_source_table_moves_the_other_rows():
    schema = DatabaseSchema("org")
    schema.add_table(
        integer_table(
            "EMPLOYEE", ["E_ID", "E_DEPT_ID", "E_REGION"], ["E_ID"]
        )
    )
    schema.add_table(integer_table("DEPT", ["D_ID", "D_HEAD_ID"], ["D_ID"]))
    schema.add_foreign_key("EMPLOYEE", ["E_DEPT_ID"], "DEPT", ["D_ID"])
    schema.add_foreign_key("DEPT", ["D_HEAD_ID"], "EMPLOYEE", ["E_ID"])
    database = Database(schema)
    for employee in range(1, 11):
        database.insert(
            "EMPLOYEE",
            {"E_ID": employee, "E_DEPT_ID": 1 + employee % 2, "E_REGION": 1},
        )
    for dept in (1, 2):
        database.insert("DEPT", {"D_ID": dept, "D_HEAD_ID": dept})
    # An employee is placed by the region of its department's head.
    by_head_region = TableSolution(
        "EMPLOYEE",
        JoinPath.parse(
            schema,
            [
                "EMPLOYEE.E_ID", "EMPLOYEE.E_DEPT_ID", "DEPT.D_ID",
                "DEPT.D_HEAD_ID", "EMPLOYEE.E_ID", "EMPLOYEE.E_REGION",
            ],
        ),
        IdentityModMapping(2),
    )
    assert "EMPLOYEE" in by_head_region.hop_targets
    partitioning = DatabasePartitioning(
        2, [by_head_region, TableSolution("DEPT")]
    )
    cluster = Cluster(database, ProcedureCatalog([]), partitioning)
    try:
        lookup = cluster.router.lookup_table(Attr("EMPLOYEE", "E_DEPT_ID"))
        assert lookup.partitions_for(1) == {2}
        # Head of department 1 moves region: the whole department follows.
        database.update("EMPLOYEE", (1,), {"E_REGION": 2})
        for employee in range(2, 11, 2):  # department 1
            assert _home(cluster, "EMPLOYEE", (employee,)) == 1
        assert_cluster_exact(cluster)
    finally:
        cluster.close()
