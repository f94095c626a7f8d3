"""Unit tests for the simulated partitioned cluster.

Placement, trace replay, live execution with atomic aborts, fault
injection (crash / recover / repartition), and the row-conservation
invariant — all on the paper's Figure-1 mini-database so every expected
node assignment can be written down by hand.
"""

import pytest

from repro.baselines.published import build_spec_partitioning
from repro.cluster import (
    Cluster,
    ClusterError,
    ClusterUnavailable,
    CostConfig,
    FaultEvent,
    FaultPlan,
)
from repro.core.join_path import JoinPath
from repro.core.mapping import IdentityModMapping
from repro.core.placement import UNROUTABLE
from repro.core.solution import DatabasePartitioning, TableSolution
from repro.procedures import ProcedureCatalog, StoredProcedure
from repro.schema import Attr
from repro.trace import Trace
from repro.trace.events import TransactionTrace, TupleAccess

from tests.test_path_effects import assert_cluster_exact


@pytest.fixture
def customer_partitioning(custinfo_schema):
    """By-customer layout: customer 1 -> partition 2, customer 2 -> 1."""
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


@pytest.fixture
def by_account(custinfo_schema):
    """By-account layout: account *a* -> partition ``1 + a % 2``."""
    return build_spec_partitioning(
        custinfo_schema,
        2,
        {"CUSTOMER_ACCOUNT": "CA_ID", "TRADE": "T_CA_ID"},
        mapping=IdentityModMapping(2),
        name="by-account",
    )


@pytest.fixture
def cluster(figure1_db, custinfo_procedure, customer_partitioning):
    cluster = Cluster(
        figure1_db,
        ProcedureCatalog([custinfo_procedure]),
        customer_partitioning,
    )
    yield cluster
    cluster.close()


def _trade_qty(database, trade_id):
    return database.get("TRADE", (trade_id,))["T_QTY"]


class TestPlacement:
    def test_one_node_per_partition_by_default(self, cluster):
        assert cluster.num_nodes == 2
        assert cluster.up_node_ids() == frozenset({1, 2})

    def test_rows_land_on_their_customer_node(self, cluster):
        # customer 2's accounts (7, 10) -> partition 1 -> node 1
        node1 = cluster.nodes[1].tables
        node2 = cluster.nodes[2].tables
        assert {r["CA_ID"] for r in node1["CUSTOMER_ACCOUNT"].values()} == {7, 10}
        assert {r["CA_ID"] for r in node2["CUSTOMER_ACCOUNT"].values()} == {1, 8}
        # trades follow their account through the join path
        assert {r["T_ID"] for r in node1["TRADE"].values()} == {2, 3, 6, 8}
        assert {r["T_ID"] for r in node2["TRADE"].values()} == {1, 4, 5, 7}

    def test_replicated_tables_on_every_node(self, cluster):
        for node in cluster.nodes.values():
            assert len(node.tables["CUSTOMER"]) == 2
            assert len(node.tables["HOLDING_SUMMARY"]) == 8

    def test_placement_metrics(self, cluster):
        # 4 CUSTOMER_ACCOUNT + 8 TRADE rows singly homed
        assert cluster.metrics.tuples_placed == 12
        # 2 CUSTOMER + 8 HOLDING_SUMMARY rows replicated everywhere
        assert cluster.metrics.tuples_replicated == 10
        assert cluster.metrics.unroutable_tuples == 0

    def test_initial_conservation_holds(self, cluster):
        assert cluster.check_conservation() == []

    @staticmethod
    def _retarget_past_the_store(database):
        """Account 1 (customer 1) ends as a tombstone of customer 2: the
        tombstone reaches no listener, so trades 1 and 7 should move from
        node 2 to node 1 without the store hearing of it. A tombstone in
        the replicated CUSTOMER table is missed too."""
        database.delete("CUSTOMER_ACCOUNT", (1,))
        database.table("CUSTOMER_ACCOUNT").restore_tombstone(
            (1,), {"CA_ID": 1, "CA_C_ID": 2}
        )
        database.table("CUSTOMER").restore_tombstone(
            (99,), {"C_ID": 99, "C_TAX_ID": 9099}
        )

    @staticmethod
    def _node_rows(cluster, table):
        return {
            node_id: dict(node.tables[table])
            for node_id, node in cluster.nodes.items()
        }

    def test_conservation_check_reports_a_write_past_the_store(
        self, figure1_db, cluster
    ):
        self._retarget_past_the_store(figure1_db)
        before = self._node_rows(cluster, "TRADE")
        problems = cluster.check_conservation()
        assert sorted(problems) == [
            "store column CUSTOMER out of step",
            "store column CUSTOMER_ACCOUNT out of step",
            "store column TRADE out of step",
        ]
        # The check repaired nothing.
        assert cluster.check_conservation() == problems
        assert self._node_rows(cluster, "TRADE") == before
        # The next reads fill the columns again and resync the nodes.
        for table in ("CUSTOMER", "CUSTOMER_ACCOUNT", "TRADE"):
            cluster.store.pids(table)
        assert cluster.nodes[1].tables["TRADE"].get((1,)) is not None
        assert cluster.check_conservation() == []

    def test_a_refilled_column_leaves_down_nodes_divergent(
        self, figure1_db, cluster
    ):
        cluster.nodes[1].crash()
        self._retarget_past_the_store(figure1_db)
        before = self._node_rows(cluster, "TRADE")
        for table in ("CUSTOMER", "CUSTOMER_ACCOUNT", "TRADE"):
            cluster.store.pids(table)
        after = self._node_rows(cluster, "TRADE")
        assert after[1] == before[1]
        assert cluster.nodes[1].divergent == {
            "CUSTOMER", "CUSTOMER_ACCOUNT", "TRADE"
        }
        assert (1,) not in after[2] and (7,) not in after[2]
        assert cluster.check_conservation() == []

    def test_ring_wrap_with_fewer_nodes_than_partitions(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            num_nodes=1,
        )
        try:
            assert cluster.node_of(1) == cluster.node_of(2) == 1
            assert len(cluster.nodes[1].tables["TRADE"]) == 8
            assert cluster.check_conservation() == []
        finally:
            cluster.close()

    def test_out_of_band_insert_is_mirrored(self, figure1_db, cluster):
        figure1_db.insert("CUSTOMER_ACCOUNT", {"CA_ID": 20, "CA_C_ID": 1})
        # customer 1 -> partition 2 -> node 2
        assert cluster.nodes[2].tables["CUSTOMER_ACCOUNT"].get((20,))
        assert cluster.nodes[1].tables["CUSTOMER_ACCOUNT"].get((20,)) is None
        assert cluster.check_conservation() == []

    def test_unroutable_row_is_spread_everywhere(self, figure1_db, cluster):
        # a trade pointing at a nonexistent account has no root value
        figure1_db.insert("TRADE", {"T_ID": 99, "T_CA_ID": 77, "T_QTY": 1})
        for node in cluster.nodes.values():
            assert node.tables["TRADE"].get((99,)) is not None
        assert cluster.metrics.unroutable_tuples == 1
        assert cluster.check_conservation() == []

    def test_dependency_mutation_moves_dependent_rows(
        self, figure1_db, cluster
    ):
        # retargeting account 1 to customer 2 moves it and its trades
        figure1_db.update("CUSTOMER_ACCOUNT", (1,), {"CA_C_ID": 2})
        node1 = cluster.nodes[1].tables
        assert node1["CUSTOMER_ACCOUNT"].get((1,)) is not None
        assert {r["T_ID"] for r in node1["TRADE"].values()} >= {1, 7}
        assert cluster.check_conservation() == []
        assert cluster.metrics.tuples_migrated >= 3


def _corrupt_copy(cluster):
    cluster.nodes[1].tables["TRADE"][(2,)]["T_QTY"] = -1


def _drop_homed_row(cluster):
    del cluster.nodes[1].tables["TRADE"][(2,)]


def _add_row_the_source_lacks(cluster):
    cluster.nodes[2].tables["TRADE"][(99,)] = {
        "T_ID": 99, "T_CA_ID": 1, "T_QTY": 1
    }


def _copy_homed_row_to_a_second_node(cluster):
    row = cluster.nodes[1].tables["TRADE"][(2,)]
    cluster.nodes[2].tables["TRADE"][(2,)] = dict(row)


def _drop_a_replica(cluster):
    del cluster.nodes[2].tables["CUSTOMER"][(1,)]


class TestConservationCheck:
    """Each node check of ``check_conservation`` reports what broke it."""

    @pytest.mark.parametrize(
        "corrupt, problem",
        [
            (_corrupt_copy, "TRADE(2,): content on node 1 differs from the source"),
            (_drop_homed_row, "TRADE(2,): on [], expected [1]"),
            (_add_row_the_source_lacks, "TRADE(99,): on node 2 but not in the source"),
            (_copy_homed_row_to_a_second_node, "TRADE(2,): on [1, 2], expected [1]"),
            (_drop_a_replica, "CUSTOMER(1,): replicated on [1], expected [1, 2]"),
        ],
        ids=["content", "dropped", "extra", "second-node", "replica"],
    )
    def test_a_broken_node_is_reported(self, cluster, corrupt, problem):
        assert cluster.check_conservation() == []
        corrupt(cluster)
        assert cluster.check_conservation() == [problem]

    def test_only_a_divergent_table_is_exempt(self, cluster):
        _drop_homed_row(cluster)
        cluster.nodes[1].crash()
        cluster.nodes[1].divergent.add("TRADE")
        assert cluster.check_conservation() == []
        cluster.nodes[1].divergent.clear()
        assert cluster.check_conservation() == [
            "TRADE(2,): on [], expected [1]"
        ]

    def test_node_copies_do_not_alias_the_source(self, figure1_db, cluster):
        # rows a write moves and a mirrored insert get copies of their own too
        figure1_db.update("CUSTOMER_ACCOUNT", (1,), {"CA_C_ID": 2})
        figure1_db.insert("TRADE", {"T_ID": 20, "T_CA_ID": 8, "T_QTY": 1})
        before = {
            node_id: {
                table: {key: dict(row) for key, row in rows.items()}
                for table, rows in node.tables.items()
            }
            for node_id, node in cluster.nodes.items()
        }
        cluster.close()
        for trade in (1, 2, 7, 20):
            figure1_db.update("TRADE", (trade,), {"T_QTY": 123})
        figure1_db.update("CUSTOMER", (1,), {"C_TAX_ID": 1})
        figure1_db.update("HOLDING_SUMMARY", (101, 1), {"HS_QTY": 0})
        for node_id, node in cluster.nodes.items():
            assert node.tables == before[node_id]


class TestTraceReplay:
    def _txn(self, txn_id, accesses):
        return TransactionTrace(
            txn_id=txn_id, class_name="T", accesses=accesses
        )

    def test_single_node_transaction_is_local(self, cluster):
        metrics = cluster.run_trace(
            Trace([
                self._txn(0, [
                    TupleAccess("TRADE", (2,), True),
                    TupleAccess("CUSTOMER_ACCOUNT", (7,), False),
                ])
            ])
        )
        assert metrics.committed_local == 1
        assert metrics.committed_distributed == 0
        assert metrics.total_cost_units == cluster.cost.local_unit

    def test_cross_node_transaction_is_distributed(self, cluster):
        metrics = cluster.run_trace(
            Trace([
                self._txn(0, [
                    TupleAccess("TRADE", (2,), True),   # node 1
                    TupleAccess("TRADE", (1,), True),   # node 2
                ])
            ])
        )
        assert metrics.committed_distributed == 1
        assert metrics.prepare_messages == 2
        assert metrics.commit_messages == 2
        assert metrics.coordination_cost_units == pytest.approx(
            cluster.cost.distributed_overhead(2)
        )

    def test_replicated_write_touches_every_node(self, cluster):
        metrics = cluster.run_trace(
            Trace([self._txn(0, [TupleAccess("CUSTOMER", (1,), True)])])
        )
        assert metrics.committed_distributed == 1
        assert metrics.per_node_transactions == {1: 1, 2: 1}

    def test_replicated_read_commits_locally(self, cluster):
        metrics = cluster.run_trace(
            Trace([
                self._txn(7, [TupleAccess("HOLDING_SUMMARY", (101, 1), False)])
            ])
        )
        assert metrics.committed_local == 1
        assert metrics.broadcasts == 0

    def test_unroutable_access_broadcasts(self, figure1_db, cluster):
        figure1_db.insert("TRADE", {"T_ID": 99, "T_CA_ID": 77, "T_QTY": 1})
        metrics = cluster.run_trace(
            Trace([self._txn(0, [TupleAccess("TRADE", (99,), False)])])
        )
        assert metrics.broadcasts == 1
        assert metrics.committed_distributed == 1

    def test_down_home_node_aborts_then_fails(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            fault_plan=FaultPlan().crash(node=1, at=0),
        )
        try:
            metrics = cluster.run_trace(
                Trace([self._txn(0, [TupleAccess("TRADE", (2,), True)])])
            )
            assert metrics.failed == 1
            assert metrics.retries == cluster.cost.max_retries
            assert metrics.aborts == cluster.cost.max_retries + 1
            assert metrics.retry_cost_units > 0
        finally:
            cluster.close()

    def test_replicated_read_fails_over_a_dead_coordinator(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        # txn_id 0 prefers node 1 (1 + 0 % 2); node 1 is down, so the
        # replicated read must fail over to node 2 and still commit.
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            fault_plan=FaultPlan().crash(node=1, at=0),
        )
        try:
            metrics = cluster.run_trace(
                Trace([
                    self._txn(
                        0, [TupleAccess("HOLDING_SUMMARY", (101, 1), False)]
                    )
                ])
            )
            assert metrics.committed_local == 1
            assert metrics.replica_failovers == 1
            assert metrics.per_node_transactions == {2: 1}
        finally:
            cluster.close()

    def test_crash_mid_trace_changes_the_live_set(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        # Node 1 crashes before transaction 1 and recovers before 3, all
        # inside one call: each transaction sees the nodes as they are.
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            fault_plan=FaultPlan().crash(node=1, at=1).recover(node=1, at=3),
        )
        try:
            on_node1 = [TupleAccess("TRADE", (2,), True)]
            metrics = cluster.run_trace(
                Trace([
                    self._txn(0, on_node1),
                    self._txn(1, on_node1),  # its home is down: it fails
                    self._txn(2, [TupleAccess("CUSTOMER", (1,), True)]),
                    self._txn(3, on_node1),
                ])
            )
            assert metrics.crashes == 1 and metrics.recoveries == 1
            assert metrics.failed == 1
            assert metrics.aborts == cluster.cost.max_retries + 1
            # the replicated write skips the down node, which fails over
            assert metrics.replica_failovers == 1
            assert metrics.committed_local == 3
            assert metrics.per_node_transactions == {1: 2, 2: 1}
        finally:
            cluster.close()

    def test_unavailable_names_the_first_access_with_a_down_home(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            fault_plan=FaultPlan().crash(node=1, at=0),
        )
        try:
            cluster._advance_faults()
            accesses = [
                TupleAccess("CUSTOMER", (1,), True),  # replicated
                TupleAccess("TRADE", (1,), False),  # node 2, up
                TupleAccess("TRADE", (6,), False),  # node 1, down
                TupleAccess("CUSTOMER_ACCOUNT", (7,), True),  # node 1, down
            ]
            with pytest.raises(
                ClusterUnavailable, match=r"^node 1 holding TRADE\(6,\) is down$"
            ):
                cluster._resolve_accesses(cluster._snapshot(), accesses, 0)
            with pytest.raises(
                ClusterUnavailable,
                match=r"^node 1 holding CUSTOMER_ACCOUNT\(7,\) is down$",
            ):
                cluster._resolve_accesses(
                    cluster._snapshot(), accesses[::-1], 0
                )
        finally:
            cluster.close()


class TestLiveExecution:
    def test_commit_applies_to_owning_node(self, figure1_db, cluster):
        before = _trade_qty(figure1_db, 2)
        assert cluster.execute("CustInfo", {"cust_id": 2, "any_account": 7})
        assert _trade_qty(figure1_db, 2) == before + 1
        node_row = cluster.nodes[1].tables["TRADE"].get((2,))
        assert node_row["T_QTY"] == before + 1
        assert cluster.check_conservation() == []
        assert cluster.metrics.committed == 1

    def test_abort_rolls_back_the_source_atomically(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            fault_plan=FaultPlan().crash(node=1, at=0),
        )
        try:
            before = {t: _trade_qty(figure1_db, t) for t in (2, 6)}
            # account 7's trades live on the crashed node 1
            assert not cluster.execute(
                "CustInfo", {"cust_id": 2, "any_account": 7}
            )
            assert {t: _trade_qty(figure1_db, t) for t in (2, 6)} == before
            assert cluster.metrics.failed == 1
            assert cluster.metrics.committed == 0
            assert cluster.check_conservation() == []
        finally:
            cluster.close()

    def test_recovery_resyncs_divergent_replicas(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        plan = FaultPlan().crash(node=2, at=0).recover(node=2, at=1)
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            fault_plan=plan,
        )
        try:
            # tick 0: node 2 crashes; a replicated write misses it
            assert cluster.execute(
                "CustInfo", {"cust_id": 2, "any_account": 7}
            )
            figure1_db.insert("CUSTOMER", {"C_ID": 3, "C_TAX_ID": 9003})
            assert "CUSTOMER" in cluster.nodes[2].divergent
            assert cluster.check_conservation() == []  # divergence is exempt
            # tick 1: node 2 recovers and resyncs the missed write
            assert cluster.execute(
                "CustInfo", {"cust_id": 2, "any_account": 7}
            )
            assert cluster.nodes[2].divergent == set()
            assert cluster.nodes[2].tables["CUSTOMER"].get((3,)) is not None
            assert cluster.metrics.rows_resynced >= 1
            assert cluster.metrics.crashes == 1
            assert cluster.metrics.recoveries == 1
            assert cluster.check_conservation() == []
        finally:
            cluster.close()

    def test_moving_a_row_commits_on_its_old_and_new_node(
        self, figure1_db, customer_partitioning
    ):
        # Account 7 moves from customer 2 (node 1) to customer 1 (node 2):
        # node 1 still holds it when the transaction commits.
        move = StoredProcedure(
            "MoveAccount",
            params=["ca_id", "c_id"],
            statements={
                "move": """
                    UPDATE CUSTOMER_ACCOUNT SET CA_C_ID = @c_id
                    WHERE CA_ID = @ca_id
                """
            },
        )
        cluster = Cluster(
            figure1_db, ProcedureCatalog([move]), customer_partitioning
        )
        try:
            assert cluster.execute("MoveAccount", {"ca_id": 7, "c_id": 1})
            assert cluster.metrics.committed_distributed == 1
            assert cluster.metrics.per_node_transactions == {1: 1, 2: 1}
            assert cluster.nodes[2].tables["CUSTOMER_ACCOUNT"].get((7,))
            assert cluster.nodes[1].tables["CUSTOMER_ACCOUNT"].get((7,)) is None
            assert cluster.check_conservation() == []
        finally:
            cluster.close()

    def test_aborted_fresh_insert_keeps_lookups_and_divergence(
        self, figure1_db, customer_partitioning
    ):
        # NewOrder's shape: an insert of a new key into a table that other
        # placements hop into. Node 1 is down from tick 0 to tick 2, so an
        # account of customer 2 (node 1) cannot be opened until then.
        open_account = StoredProcedure(
            "OpenAccount",
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
            ProcedureCatalog([open_account]),
            customer_partitioning,
            fault_plan=FaultPlan().crash(node=1, at=0).recover(node=1, at=2),
        )
        try:
            attribute = Attr("TRADE", "T_CA_ID")
            lookup = cluster.router.lookup_table(attribute)
            # tick 0: node 1 crashes
            assert not cluster.execute("OpenAccount", {"ca_id": 41, "c_id": 2})
            # Trade 60 names account 40, which does not exist: unroutable,
            # it goes to every node, and node 1 misses it.
            figure1_db.insert("TRADE", {"T_ID": 60, "T_CA_ID": 40, "T_QTY": 1})
            assert cluster.nodes[1].divergent == {"TRADE"}
            # tick 1: opening account 40 would place trade 60; it aborts
            assert not cluster.execute("OpenAccount", {"ca_id": 40, "c_id": 2})
            assert cluster.store.pid_of("TRADE", (60,)) == UNROUTABLE
            assert cluster.nodes[1].divergent == {"TRADE"}
            assert cluster.nodes[1].tables["TRADE"].get((60,)) is None
            assert cluster.check_conservation() == []
            # tick 2: node 1 recovers and resyncs the one row it missed
            assert cluster.execute("OpenAccount", {"ca_id": 42, "c_id": 1})
            assert cluster.metrics.failed == 2
            assert cluster.metrics.rows_resynced == 1
            routing = cluster.router.metrics
            assert routing.lookups_rebuilt == 0
            assert routing.staleness_detections == 0
            assert cluster.router.lookup_table(attribute) is lookup
            assert_cluster_exact(cluster)
        finally:
            cluster.close()

    def test_failed_transaction_leaves_no_partial_state(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        # Crash mid-plan: the write targets both nodes' trades via a
        # broadcast-y account list; node 2 down means the plan aborts
        # before ANY node sees a write.
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            fault_plan=FaultPlan().crash(node=2, at=0),
        )
        try:
            before = _trade_qty(figure1_db, 1)  # account 1 -> node 2
            assert not cluster.execute(
                "CustInfo", {"cust_id": 1, "any_account": 1}
            )
            assert _trade_qty(figure1_db, 1) == before
            assert cluster.nodes[2].tables["TRADE"].get((1,))["T_QTY"] == before
            assert cluster.check_conservation() == []
        finally:
            cluster.close()

    def test_unavailable_names_the_first_access_with_a_down_home(
        self, figure1_db, customer_partitioning
    ):
        read_three = StoredProcedure(
            "ReadThree",
            params=["up_trade", "down_trade", "down_account"],
            statements={
                "up": "SELECT T_QTY FROM TRADE WHERE T_ID = @up_trade",
                "down": "SELECT T_QTY FROM TRADE WHERE T_ID = @down_trade",
                "account": """
                    SELECT CA_C_ID FROM CUSTOMER_ACCOUNT
                    WHERE CA_ID = @down_account
                """,
            },
        )
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([read_three]),
            customer_partitioning,
            fault_plan=FaultPlan().crash(node=1, at=0),
        )
        try:
            cluster._advance_faults()
            # trade 1 is on node 2; trade 6 and account 7 on node 1
            arguments = {"up_trade": 1, "down_trade": 6, "down_account": 7}
            with pytest.raises(
                ClusterUnavailable, match=r"^node 1 holding TRADE\(6,\) is down$"
            ):
                cluster._execute_once(read_three, arguments, None)
            assert not cluster.execute("ReadThree", arguments)
            assert cluster.metrics.failed == 1
        finally:
            cluster.close()


class TestRepartitioning:
    def test_install_migrates_rows_and_stays_conserved(
        self, figure1_db, by_account, cluster
    ):
        moved = cluster.install(by_account)
        assert moved > 0
        assert cluster.metrics.repartitions == 1
        assert cluster.metrics.tuples_migrated >= moved
        assert cluster.check_conservation() == []
        # account 7 now hashes by its own id: 1 + 7 % 2 -> partition 2
        assert cluster.nodes[2].tables["CUSTOMER_ACCOUNT"].get((7,))

    def test_scheduled_repartition_fires_mid_trace(
        self, figure1_db, by_account, custinfo_procedure,
        customer_partitioning,
    ):
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            fault_plan=FaultPlan().repartition(by_account, at=1),
        )
        try:
            assert cluster.execute(
                "CustInfo", {"cust_id": 2, "any_account": 7}
            )
            assert cluster.metrics.repartitions == 0
            assert cluster.execute(
                "CustInfo", {"cust_id": 2, "any_account": 7}
            )
            assert cluster.metrics.repartitions == 1
            assert cluster.partitioning.name == "by-account"
            assert cluster.check_conservation() == []
        finally:
            cluster.close()

    def test_scheduled_repartition_fires_mid_replay(
        self, figure1_db, by_account, custinfo_procedure,
        customer_partitioning,
    ):
        cluster = Cluster(
            figure1_db,
            ProcedureCatalog([custinfo_procedure]),
            customer_partitioning,
            fault_plan=FaultPlan().repartition(by_account, at=1),
        )
        try:
            # By customer, account 7 (customer 2) is on node 1 and account
            # 1 (customer 1) on node 2; by account both hash to node 2.
            accesses = [
                TupleAccess("CUSTOMER_ACCOUNT", (7,), False),
                TupleAccess("CUSTOMER_ACCOUNT", (1,), False),
            ]
            metrics = cluster.run_trace(
                Trace([
                    TransactionTrace(txn_id=i, class_name="T", accesses=accesses)
                    for i in range(3)
                ])
            )
            assert metrics.repartitions == 1
            assert cluster.partitioning.name == "by-account"
            assert metrics.committed_distributed == 1
            assert metrics.committed_local == 2
            assert metrics.per_node_transactions == {1: 1, 2: 3}
            assert cluster.check_conservation() == []
        finally:
            cluster.close()


class TestFaultPlanValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ClusterError):
            FaultEvent(0, "explode", node=1)

    def test_crash_needs_a_node(self):
        with pytest.raises(ClusterError):
            FaultEvent(0, "crash")

    def test_repartition_needs_a_partitioning(self):
        with pytest.raises(ClusterError):
            FaultEvent(0, "repartition")

    def test_negative_tick_rejected(self):
        with pytest.raises(ClusterError):
            FaultEvent(-1, "crash", node=1)

    def test_events_sorted_by_tick(self):
        plan = FaultPlan().recover(node=1, at=9).crash(node=1, at=2)
        assert [e.tick for e in plan] == [2, 9]

    def test_cluster_rejects_unknown_node_target(
        self, figure1_db, custinfo_procedure, customer_partitioning
    ):
        with pytest.raises(ClusterError):
            Cluster(
                figure1_db,
                ProcedureCatalog([custinfo_procedure]),
                customer_partitioning,
                fault_plan=FaultPlan().crash(node=5, at=0),
            )


class TestCostConfig:
    def test_distributed_overhead_scales_with_participants(self):
        cost = CostConfig()
        assert cost.distributed_overhead(2) == pytest.approx(1.5)
        assert cost.distributed_overhead(4) == pytest.approx(2.5)

    def test_backoff_grows_exponentially(self):
        cost = CostConfig()
        assert cost.backoff_cost(0) == pytest.approx(0.5)
        assert cost.backoff_cost(2) == pytest.approx(2.0)
