"""Property and acceptance tests for the cluster simulator.

Four layers:

* **Exactness** — with faults off and one node per partition, replaying a
  workload's testing trace through the cluster must reproduce the static
  evaluator's distributed-transaction count EXACTLY (same Definition-5
  classification, computed by a physically-placed code path). Pinned on
  TPC-C and TATP, the acceptance workloads.
* **Conservation** — under arbitrary interleavings of live transactions,
  out-of-band mutations, node crashes and recoveries, no row may ever be
  lost or duplicated (modulo replication), and every transaction must be
  accounted committed or failed. Hypothesis drives the interleavings.
* **Chunking** — a replay resolves each ``run_trace`` call against one
  placement snapshot, so replaying a trace in one call, one transaction
  per call or in random chunks must give equal ``ClusterMetrics`` under
  any crash / recover / repartition schedule.
* **Snapshot lifetime** — replay keeps its snapshot across ``run_trace``
  calls, yet a write, a direct node crash or recovery, or an install made
  between two calls must be seen by the second: each call's outcome
  equals a fresh cluster's over the database, layout and live nodes as
  they then stand. With nothing changed, a call reads no store column.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.published import build_spec_partitioning
from repro.cluster import Cluster, FaultPlan
from repro.core import JECBConfig, JECBPartitioner
from repro.core.mapping import IdentityModMapping
from repro.core.placement import PlacementStore
from repro.evaluation import PartitioningEvaluator
from repro.procedures import ProcedureCatalog
from repro.storage import Database
from repro.trace import train_test_split
from repro.trace.events import TransactionTrace, TupleAccess
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig

from tests.conftest import (
    build_custinfo_procedure,
    build_custinfo_schema,
    load_figure1_data,
)


def _assert_cluster_matches_evaluator(bundle, num_partitions, seed_note):
    train, test = train_test_split(bundle.trace, 0.5)
    result = JECBPartitioner(
        bundle.database,
        bundle.catalog,
        JECBConfig(num_partitions=num_partitions),
    ).run(train)
    report = PartitioningEvaluator(bundle.database).evaluate(
        result.partitioning, test
    )
    cluster = Cluster(bundle.database, bundle.catalog, result.partitioning)
    try:
        metrics = cluster.run_trace(test)
        problems = cluster.check_conservation()
    finally:
        cluster.close()
    assert problems == []
    assert metrics.failed == 0, seed_note
    assert metrics.committed == len(test)
    # the acceptance criterion: EXACT agreement, not approximate
    assert metrics.committed_distributed == report.distributed_transactions
    assert metrics.distributed_fraction == report.cost
    # per-class counts agree too (Definition 6 is a per-class sum)
    assert metrics.per_class_distributed == {
        name: count
        for name, count in report.per_class_distributed.items()
        if count
    }


@pytest.mark.slow
def test_tpcc_faults_off_matches_static_evaluator_exactly():
    bundle = TpccBenchmark(TpccConfig(warehouses=4)).generate(800, seed=11)
    _assert_cluster_matches_evaluator(bundle, 4, "tpcc seed 11")


@pytest.mark.slow
def test_tatp_faults_off_matches_static_evaluator_exactly():
    bundle = TatpBenchmark(TatpConfig(subscribers=200)).generate(
        800, seed=33
    )
    _assert_cluster_matches_evaluator(bundle, 4, "tatp seed 33")


# ----------------------------------------------------------------------
# conservation under arbitrary mutation/fault interleavings
# ----------------------------------------------------------------------
def _build_partitioning(schema):
    from repro.core.join_path import JoinPath
    from repro.core.mapping import IdentityModMapping
    from repro.core.solution import DatabasePartitioning, TableSolution

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


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("execute"),
            st.integers(min_value=1, max_value=4),   # cust_id
            st.integers(min_value=1, max_value=12),  # any_account
        ),
        st.tuples(
            st.just("insert_ca"),
            st.integers(min_value=1, max_value=4),   # owning customer
            st.just(0),
        ),
        st.tuples(
            st.just("insert_trade"),
            st.integers(min_value=1, max_value=12),  # account
            st.just(0),
        ),
        st.tuples(
            st.just("delete_trade"),
            st.integers(min_value=1, max_value=8),
            st.just(0),
        ),
        st.tuples(
            st.just("retarget_ca"),
            st.sampled_from([1, 7, 8, 10]),
            st.integers(min_value=1, max_value=4),   # new customer
        ),
    ),
    min_size=1,
    max_size=12,
)

_FAULTS = st.lists(
    st.tuples(
        st.sampled_from(["crash", "recover"]),
        st.integers(min_value=1, max_value=2),  # node
        st.integers(min_value=0, max_value=12),  # tick
    ),
    max_size=4,
)


@given(ops=_OPS, faults=_FAULTS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_no_row_lost_or_duplicated_under_faults(ops, faults):
    schema = build_custinfo_schema()
    database = Database(schema)
    load_figure1_data(database)
    catalog = ProcedureCatalog([build_custinfo_procedure()])
    partitioning = _build_partitioning(schema)

    executes = sum(1 for op in ops if op[0] == "execute")
    plan = FaultPlan()
    for action, node, tick in faults:
        if action == "crash":
            plan = plan.crash(node=node, at=tick)
        else:
            plan = plan.recover(node=node, at=tick)
    # end in a fully-recovered state so divergence exemptions drain
    plan = plan.recover(node=1, at=executes).recover(node=2, at=executes)

    cluster = Cluster(database, catalog, partitioning, fault_plan=plan)
    try:
        next_ca = 50
        next_trade = 100
        for kind, a, b in ops:
            if kind == "execute":
                cluster.execute(
                    "CustInfo", {"cust_id": a, "any_account": b}
                )
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
            elif kind == "delete_trade":
                if database.get("TRADE", (a,)) is not None:
                    database.delete("TRADE", (a,))
            else:  # retarget_ca
                if database.get("CUSTOMER_ACCOUNT", (a,)) is not None:
                    database.update(
                        "CUSTOMER_ACCOUNT", (a,), {"CA_C_ID": b}
                    )
        # one trailing transaction fires the scheduled final recoveries
        cluster.execute("CustInfo", {"cust_id": 1, "any_account": 1})

        metrics = cluster.metrics
        assert cluster.check_conservation() == []
        assert all(node.divergent == set() for node in cluster.nodes.values())
        assert metrics.committed + metrics.failed == metrics.transactions
        assert metrics.transactions == executes + 1
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# replay does not depend on how the trace is chunked
# ----------------------------------------------------------------------
def _by_account(schema):
    return build_spec_partitioning(
        schema,
        2,
        {"CUSTOMER_ACCOUNT": "CA_ID", "TRADE": "T_CA_ID"},
        mapping=IdentityModMapping(2),
        name="by-account",
    )


#: figure-1 rows, plus keys no row holds (trade 99 has no account: it is
#: unroutable; account 50 and trade 100 exist only once written)
_ROWS = (
    [("TRADE", (t,)) for t in (1, 2, 3, 4, 6, 99, 100)]
    + [("CUSTOMER_ACCOUNT", (a,)) for a in (1, 7, 8, 10, 50)]
    + [("CUSTOMER", (1,)), ("CUSTOMER", (2,))]
    + [("HOLDING_SUMMARY", (101, 1)), ("HOLDING_SUMMARY", (103, 7))]
)
_ACCESSES = st.builds(
    lambda row, write: TupleAccess(*row, write),
    st.sampled_from(_ROWS),
    st.booleans(),
)

_TRACES = st.lists(
    st.lists(_ACCESSES, min_size=1, max_size=5), min_size=1, max_size=10
).map(
    lambda txns: [
        TransactionTrace(txn_id=i, class_name=f"C{i % 2}", accesses=accesses)
        for i, accesses in enumerate(txns)
    ]
)

_SCHEDULES = st.lists(
    st.tuples(
        st.sampled_from(["crash", "recover", "by-account", "by-customer"]),
        st.integers(min_value=1, max_value=2),  # node
        st.integers(min_value=0, max_value=10),  # tick
    ),
    max_size=5,
)

_CHUNKS = st.lists(st.integers(min_value=1, max_value=4), max_size=6)


def _fault_plan(schema, schedule):
    layouts = {
        "by-account": _by_account(schema),
        "by-customer": _build_partitioning(schema),
    }
    plan = FaultPlan()
    for action, node, tick in schedule:
        if action == "crash":
            plan = plan.crash(node=node, at=tick)
        elif action == "recover":
            plan = plan.recover(node=node, at=tick)
        else:
            plan = plan.repartition(layouts[action], at=tick)
    return plan


def _chunked(trace, sizes):
    """*trace* cut into chunks of *sizes*, the rest in one last chunk."""
    chunks, start = [], 0
    for size in sizes:
        if start >= len(trace):
            break
        chunks.append(trace[start : start + size])
        start += size
    if start < len(trace):
        chunks.append(trace[start:])
    return chunks


def _replay_in_chunks(trace, schedule, chunks):
    """Metrics and node divergence after replaying *chunks* call by call
    on a fresh figure-1 cluster under *schedule*."""
    schema = build_custinfo_schema()
    database = Database(schema)
    load_figure1_data(database)
    cluster = Cluster(
        database,
        ProcedureCatalog([build_custinfo_procedure()]),
        _build_partitioning(schema),
        fault_plan=_fault_plan(schema, schedule),
    )
    try:
        for chunk in chunks:
            cluster.run_trace(chunk)
        assert cluster.check_conservation() == []
        divergent = {n: set(node.divergent) for n, node in cluster.nodes.items()}
        return dataclasses.asdict(cluster.metrics), divergent
    finally:
        cluster.close()


def _assert_chunking_invariant(trace, schedule, sizes):
    whole = _replay_in_chunks(trace, schedule, [trace])
    assert whole[0]["transactions"] == len(trace)
    one_by_one = _replay_in_chunks(trace, schedule, [[txn] for txn in trace])
    assert one_by_one == whole
    assert _replay_in_chunks(trace, schedule, _chunked(trace, sizes)) == whole


@given(trace=_TRACES, schedule=_SCHEDULES, sizes=_CHUNKS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_replay_does_not_depend_on_chunking(trace, schedule, sizes):
    _assert_chunking_invariant(trace, schedule, sizes)


def _txn(txn_id, *accesses):
    return TransactionTrace(
        txn_id=txn_id,
        class_name="T",
        accesses=[TupleAccess(t, k, w) for t, k, w in accesses],
    )


#: homed, replicated and unroutable rows, read and written, on both nodes;
#: the one-call replay meets every event of each schedule mid-call
_SMOKE_TRACE = [
    _txn(0, ("TRADE", (2,), True), ("CUSTOMER_ACCOUNT", (1,), False)),
    _txn(1, ("CUSTOMER", (1,), True), ("TRADE", (1,), False)),
    _txn(2, ("TRADE", (2,), False), ("HOLDING_SUMMARY", (101, 1), False)),
    _txn(3, ("TRADE", (99,), True), ("CUSTOMER_ACCOUNT", (7,), False)),
    _txn(4, ("HOLDING_SUMMARY", (103, 7), False)),
    _txn(5, ("CUSTOMER_ACCOUNT", (7,), False), ("CUSTOMER_ACCOUNT", (1,), False)),
]


@pytest.mark.smoke
@pytest.mark.parametrize(
    "schedule, sizes",
    [
        ([("crash", 1, 1), ("recover", 1, 4)], [3, 3]),
        ([("by-account", 1, 2), ("crash", 2, 3)], [4]),
        ([("crash", 2, 0), ("by-account", 1, 2), ("recover", 2, 5)], [2, 1, 2]),
        ([("by-account", 1, 1), ("by-customer", 1, 4)], [5]),
    ],
)
def test_replay_does_not_depend_on_chunking_smoke(schedule, sizes):
    _assert_chunking_invariant(_SMOKE_TRACE, schedule, sizes)


# ----------------------------------------------------------------------
# a kept snapshot hides no change made between calls
# ----------------------------------------------------------------------
_WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("insert_ca"), st.integers(1, 2), st.just(0)),
        st.tuples(
            st.just("insert_trade"), st.sampled_from([1, 7, 8, 50]), st.just(0)
        ),
        st.tuples(
            st.just("delete_trade"), st.sampled_from([1, 2, 3, 100]), st.just(0)
        ),
        st.tuples(
            st.just("retarget_ca"), st.sampled_from([1, 7, 50]), st.integers(1, 2)
        ),
        st.tuples(
            st.just("tombstone_ca"), st.sampled_from([1, 7]), st.integers(1, 2)
        ),
        st.tuples(
            st.just("retomb_ca"), st.sampled_from([1, 7, 50]), st.integers(1, 2)
        ),
        st.tuples(
            st.sampled_from(["crash", "recover"]), st.integers(1, 2), st.just(0)
        ),
        st.tuples(
            st.just("install"),
            st.sampled_from(["by-account", "by-customer"]),
            st.just(0),
        ),
    ),
    max_size=3,
)


def _write(cluster, kind, a, b):
    """One out-of-band change; account 50 and trade 100 are the keys
    ``_ACCESSES`` names that no figure-1 row holds.

    ``tombstone_ca`` deletes account *a* and makes its tombstone name
    customer *b*: the store does not hear of the tombstone, so its next
    read fills the account and trade columns again, as new objects.
    ``retomb_ca`` is that tombstone write alone, on an account that is not
    live: a change no table listener hears. ``crash`` and ``recover`` call
    node *a* directly, outside the fault plan; ``install`` makes layout
    *a* live.
    """
    database = cluster.source
    if kind == "crash":
        cluster.nodes[a].crash()
    elif kind == "recover":
        cluster.nodes[a].recover()
    elif kind == "install":
        layouts = {"by-account": _by_account, "by-customer": _build_partitioning}
        cluster.install(layouts[a](database.schema))
    elif kind == "insert_ca":
        if database.get("CUSTOMER_ACCOUNT", (50,)) is None:
            database.insert("CUSTOMER_ACCOUNT", {"CA_ID": 50, "CA_C_ID": a})
    elif kind == "insert_trade":
        if database.get("TRADE", (100,)) is None:
            database.insert("TRADE", {"T_ID": 100, "T_CA_ID": a, "T_QTY": 1})
    elif kind == "delete_trade":
        if database.get("TRADE", (a,)) is not None:
            database.delete("TRADE", (a,))
    elif kind == "retomb_ca":
        if database.get("CUSTOMER_ACCOUNT", (a,)) is None:
            database.table("CUSTOMER_ACCOUNT").restore_tombstone(
                (a,), {"CA_ID": a, "CA_C_ID": b}
            )
    elif database.get("CUSTOMER_ACCOUNT", (a,)) is None:
        return
    elif kind == "retarget_ca":
        database.update("CUSTOMER_ACCOUNT", (a,), {"CA_C_ID": b})
    else:  # tombstone_ca
        database.delete("CUSTOMER_ACCOUNT", (a,))
        database.table("CUSTOMER_ACCOUNT").restore_tombstone(
            (a,), {"CA_ID": a, "CA_C_ID": b}
        )


def _outcome(metrics):
    return (
        metrics.transactions,
        metrics.committed_local,
        metrics.committed_distributed,
        metrics.broadcasts,
        metrics.prepare_messages,
        metrics.aborts,
        metrics.failed,
        metrics.replica_failovers,
        Counter(metrics.per_node_transactions),
    )


def _assert_each_call_sees_prior_writes(steps):
    """Changes between two calls reach the second: each call's outcome
    equals a fresh cluster's over the database, the installed layout and
    the live nodes as they then stand."""
    schema = build_custinfo_schema()
    database = Database(schema)
    load_figure1_data(database)
    catalog = ProcedureCatalog([build_custinfo_procedure()])
    cluster = Cluster(database, catalog, _build_partitioning(schema))
    try:
        for writes, chunk in steps:
            for write in writes:
                _write(cluster, *write)
            before = _outcome(cluster.metrics)
            after = _outcome(cluster.run_trace(chunk))
            fresh = Cluster(database, catalog, cluster.partitioning)
            try:
                for node_id, node in cluster.nodes.items():
                    if not node.up:
                        fresh.nodes[node_id].crash()
                expected = _outcome(fresh.run_trace(chunk))
            finally:
                fresh.close()
            delta = tuple(now - then for now, then in zip(after, before))
            assert delta == expected
        for table in schema.table_names:  # bring every column in step
            cluster.store.pids(table)
        assert cluster.check_conservation() == []
    finally:
        cluster.close()


@given(steps=st.lists(st.tuples(_WRITES, _TRACES), min_size=1, max_size=4))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_each_replay_call_sees_writes_made_before_it(steps):
    _assert_each_call_sees_prior_writes(steps)


@pytest.mark.smoke
def test_each_replay_call_sees_writes_made_before_it_smoke():
    reads = [
        _txn(0, ("CUSTOMER_ACCOUNT", (7,), False), ("TRADE", (1,), False)),
        _txn(1, ("TRADE", (100,), False), ("CUSTOMER_ACCOUNT", (50,), False)),
        _txn(2, ("TRADE", (2,), True), ("CUSTOMER_ACCOUNT", (1,), False)),
    ]
    moved = [_txn(3, ("CUSTOMER_ACCOUNT", (8,), False), ("TRADE", (4,), True))]
    _assert_each_call_sees_prior_writes(
        [
            ([], reads),
            # account 7 and its trades move to customer 1's node; account
            # 50 and trade 100 become live
            (
                [
                    ("retarget_ca", 7, 1),
                    ("insert_ca", 2, 0),
                    ("insert_trade", 50, 0),
                ],
                reads,
            ),
            ([("delete_trade", 2, 0), ("retarget_ca", 50, 1)], reads),
            # account 1's trades follow its tombstone to customer 2's node,
            # and back to customer 1's when only the tombstone is written
            ([("tombstone_ca", 1, 2)], reads),
            ([("retomb_ca", 1, 1)], reads),
            # outside the fault plan: a new layout moves account 8 and its
            # trades from node 2 to node 1; then node 2 goes down, node 1
            # takes its turn, and both are back
            ([("install", "by-account", 0)], reads + moved),
            ([("crash", 2, 0)], reads + moved),
            ([("recover", 2, 0), ("crash", 1, 0)], reads + moved),
            ([("recover", 1, 0)], reads + moved),
        ]
    )


@pytest.mark.smoke
def test_a_replay_call_with_nothing_changed_reads_no_store_column(
    monkeypatch,
):
    schema = build_custinfo_schema()
    database = Database(schema)
    load_figure1_data(database)
    cluster = Cluster(
        database,
        ProcedureCatalog([build_custinfo_procedure()]),
        _build_partitioning(schema),
    )
    reads: list[str] = []
    pids = PlacementStore.pids

    def counted(store, table):
        reads.append(table)
        return pids(store, table)

    monkeypatch.setattr(PlacementStore, "pids", counted)
    try:
        cluster.run_trace(_SMOKE_TRACE)
        assert reads
        reads.clear()
        cluster.run_trace(_SMOKE_TRACE)
        assert reads == []
        # each kind of change makes the next call read the columns again
        for change in (
            ("retarget_ca", 7, 1),
            ("insert_trade", 8, 0),
            ("delete_trade", 3, 0),
            ("tombstone_ca", 1, 2),
            ("retomb_ca", 1, 1),
            ("crash", 2, 0),
            ("recover", 2, 0),
            ("install", "by-account", 0),
        ):
            _write(cluster, *change)
            reads.clear()
            cluster.run_trace(_SMOKE_TRACE)
            assert reads, change
    finally:
        cluster.close()
