"""The placement store: one maintained key -> partition id map.

The router's lookup views and the simulated cluster both read the store,
so the checks here hold it to the referee (``tests.referee``) on bundled
workloads while they run, pin that deploying a partitioning places each
key once, and cover the version check under the store's listeners.
"""

import random

import pytest

import repro
from repro.baselines.schism import TupleMapSolution
from repro.cluster import Cluster
from repro.core import JECBConfig
from repro.core.placement import MOVE, UNROUTABLE, PlacementStore
from repro.errors import PartitioningError
from repro.evaluation.framework import PartitioningExperiment
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpce import TpceBenchmark, TpceConfig

from tests.referee import naive_placement
from tests.test_path_effects import _Driver, assert_cluster_exact
from tests.test_routing import _build_custinfo_partitioning


class _Recorder:
    """A store subscriber that keeps what it was told."""

    def __init__(self):
        self.changes = []
        self.resets = []

    def placement_changed(self, table, op, key, old, new, old_pid, new_pid):
        self.changes.append((table, op, key, old_pid, new_pid))

    def placement_reset(self, table):
        self.resets.append(table)


# ----------------------------------------------------------------------
# the store against the referee, on a live workload
# ----------------------------------------------------------------------
# smoke: the CI fast job's serving-tier check
@pytest.mark.smoke
def test_tatp_store_matches_referee_smoke():
    """Store, nodes and lookups equal the referee after every TATP call."""
    benchmark = TatpBenchmark(TatpConfig(subscribers=80))
    bundle = benchmark.generate(300, seed=5)
    partitioning = repro.partition(bundle, num_partitions=4).partitioning
    cluster = Cluster(bundle.database, bundle.catalog, partitioning)
    try:
        assert_cluster_exact(cluster)
        driver = _Driver(cluster)
        rng = random.Random(9)
        writes = 0
        for _ in range(40):
            procedure = benchmark.pick_procedure(bundle.catalog, rng)
            before = bundle.database.table("CALL_FORWARDING").version
            benchmark.run_transaction(driver, procedure, rng)
            writes += bundle.database.table("CALL_FORWARDING").version > before
            assert_cluster_exact(cluster)
        assert writes > 0
    finally:
        cluster.close()


def test_tpce_deploy_places_each_key_once(monkeypatch):
    """Routing and replaying a TPC-E test half place every key each store
    is asked about exactly once: the router's store the tables its lookups
    group, the cluster's every table plus the trace's deleted rows."""
    bundle = TpceBenchmark(
        TpceConfig(customers=30, brokers=8, companies=10)
    ).generate(500, seed=27)
    stores = []
    original = PlacementStore.__init__

    def spy(self, *args):
        original(self, *args)
        stores.append(self)

    monkeypatch.setattr(PlacementStore, "__init__", spy)
    experiment = PartitioningExperiment(bundle)
    run = experiment.run(
        "jecb", JECBConfig(num_partitions=4), route=True, execute=True
    )
    assert run.route_summary is not None and run.cluster_metrics is not None
    database = bundle.database
    partitioned = set(run.partitioning.partitioned_tables())
    live = sum(len(database.table(t)) for t in partitioned)
    dead = {
        (access.table, access.key)
        for txn in experiment.testing_trace
        for access in txn.accesses
        if access.table in partitioned
        and database.table(access.table).get(access.key) is None
    }
    routed, replayed = stores
    placed = {
        name: len(column.pids) + len(column.walked)
        for name, column in routed._columns.items()
        if column.pids is not None
    }
    assert 0 < routed.pid_computations == sum(placed.values())
    assert replayed.pid_computations == live + len(dead)


# ----------------------------------------------------------------------
# unit behavior
# ----------------------------------------------------------------------
def test_keys_walk_once_and_columns_fill_on_first_whole_read(figure1_db):
    partitioning = _build_custinfo_partitioning(figure1_db.schema)
    figure1_db.delete("TRADE", (2,))  # account 7: customer 2
    store = PlacementStore(figure1_db, partitioning)
    assert store.pid_of("CUSTOMER", (1,)) == 0  # replicated: no column
    assert store.pid_computations == 0
    for _ in range(2):
        assert store.pid_of("TRADE", (1,)) == 2  # customer 1
        assert store.pid_of("TRADE", (2,)) == 1  # over the tombstone
    assert store.pid_of("TRADE", (999,)) == UNROUTABLE
    assert store.pid_computations == 3  # one walk per key, no column
    assert store.pids("TRADE") == naive_placement(figure1_db, partitioning)[
        "TRADE"
    ]
    assert store.pid_computations == 10  # the 7 live trades, in one pass
    assert store.pid_of("TRADE", (2,)) == 1
    assert store.pid_computations == 10


def test_walked_keys_follow_writes_before_the_column_fills(figure1_db):
    partitioning = _build_custinfo_partitioning(figure1_db.schema)
    store = PlacementStore(figure1_db, partitioning).attach()
    assert store.pid_of("TRADE", (1,)) == 2  # account 1: customer 1
    figure1_db.update("CUSTOMER_ACCOUNT", (1,), {"CA_C_ID": 2})
    assert store.pid_of("TRADE", (1,)) == 1  # heard by the listener
    store.close()
    figure1_db.update("CUSTOMER_ACCOUNT", (1,), {"CA_C_ID": 1})
    assert store.pid_of("TRADE", (1,)) == 2  # caught by the version check
    assert store.pid_computations == 3


def test_a_hop_write_moves_the_rows_that_walk_through_it(figure1_db):
    partitioning = _build_custinfo_partitioning(figure1_db.schema)
    store = PlacementStore(figure1_db, partitioning).attach()
    try:
        recorder = _Recorder()
        store.subscribe("TRADE", recorder)
        trades = {k for k, pid in store.pids("TRADE").items() if pid == 2}
        figure1_db.update("CUSTOMER_ACCOUNT", (1,), {"CA_C_ID": 2})
        moved = {
            key
            for table, op, key, old_pid, new_pid in recorder.changes
            if (table, op, old_pid, new_pid) == ("TRADE", MOVE, 2, 1)
        }
        assert moved and moved < trades  # account 1's trades, not 8's
        assert len(recorder.changes) == len(moved)
        assert store.in_step("TRADE")
        assert store.pids("TRADE") == naive_placement(
            figure1_db, partitioning
        )["TRADE"]
    finally:
        store.close()


def test_a_write_past_the_listeners_refills_and_resets(figure1_db):
    partitioning = _build_custinfo_partitioning(figure1_db.schema)
    store = PlacementStore(figure1_db, partitioning).attach()
    try:
        recorder = _Recorder()
        store.subscribe("TRADE", recorder)
        store.pids("TRADE")
        figure1_db.delete("CUSTOMER_ACCOUNT", (1,))
        assert store.in_step("TRADE")  # a delete by key moves nothing
        # A tombstone for customer 2 reaches no listener.
        figure1_db.table("CUSTOMER_ACCOUNT").restore_tombstone(
            (1,), {"CA_ID": 1, "CA_C_ID": 2}
        )
        assert not store.in_step("TRADE")
        # A later write the listener does see must not hide the gap.
        figure1_db.insert("CUSTOMER_ACCOUNT", {"CA_ID": 40, "CA_C_ID": 1})
        assert not store.in_step("TRADE")
        assert recorder.resets == []
        # The next read fills the column again and resets the subscribers.
        assert store.pids("TRADE") == naive_placement(
            figure1_db, partitioning
        )["TRADE"]
        assert recorder.resets == ["TRADE"]
        assert store.in_step("TRADE")
    finally:
        store.close()


def test_abort_puts_back_what_an_undone_fresh_insert_placed(figure1_db):
    # Trades 50 and 51 (deleted) name account 40, which does not exist:
    # they are unroutable until an insert of account 40 completes the walk.
    for trade in (50, 51):
        figure1_db.insert("TRADE", {"T_ID": trade, "T_CA_ID": 40, "T_QTY": 1})
    figure1_db.delete("TRADE", (51,))
    partitioning = _build_custinfo_partitioning(figure1_db.schema)
    store = PlacementStore(figure1_db, partitioning).attach()
    try:
        recorder = _Recorder()
        store.subscribe("TRADE", recorder)
        for table in ("TRADE", "CUSTOMER_ACCOUNT"):
            store.pids(table)  # filled, as under views and a cluster
        assert store.pid_of("TRADE", (50,)) == UNROUTABLE
        store.begin()
        figure1_db.insert("CUSTOMER_ACCOUNT", {"CA_ID": 40, "CA_C_ID": 2})
        assert store.pid_of("TRADE", (50,)) == store.pid_of("TRADE", (51,)) == 1
        # Undo the insert: the delete leaves the aborted row's tombstone,
        # which still places trade 50 until no tombstone is restored.
        figure1_db.delete("CUSTOMER_ACCOUNT", (40,))
        assert store.pid_of("TRADE", (50,)) == 1
        computed = store.pid_computations
        store.restore_tombstone("CUSTOMER_ACCOUNT", (40,), None)
        store.abort()
        assert store.pid_computations == computed  # no column filled again
        assert recorder.changes == [
            ("TRADE", MOVE, (50,), UNROUTABLE, 1),
            ("TRADE", MOVE, (50,), 1, UNROUTABLE),
        ]
        assert recorder.resets == []
        # The walks memoized over the aborted row are gone too.
        assert store.pid_of("TRADE", (51,)) == UNROUTABLE
        assert store.pid_of("CUSTOMER_ACCOUNT", (40,)) == UNROUTABLE
        for table, pids in naive_placement(figure1_db, partitioning).items():
            assert store.in_step(table), table
            assert store.pids(table) == pids, table
    finally:
        store.close()


def test_tuple_map_partitionings_are_refused(figure1_db):
    """A tuple map has no join path to place rows by: the store, hence the
    router and the cluster, refuses it when it is built."""
    solution = TupleMapSolution(
        "TRADE", assignments={(1,): 2}, classifier=None, num_partitions=2
    )
    partitioning = _build_custinfo_partitioning(figure1_db.schema)
    partitioning.set(solution)
    with pytest.raises(PartitioningError, match="tuple map"):
        PlacementStore(figure1_db, partitioning)
