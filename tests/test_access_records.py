"""Access records are plain ``(table, key, write)`` tuples, per transaction.

The executor appends each statement's accesses to a sink list that the
trace collector and the cluster point at the open transaction's record.
Two contracts ride on that:

* every record is an exact ``tuple`` the cycle collector has stopped
  tracking, however it got there: collected, recorded by hand, loaded
  from a file or run live through the cluster; a ``NamedTuple`` record
  would stay tracked for good;
* an aborted transaction's accesses never reach the next record: here
  for a cluster transaction that aborts on a down node, and in
  ``tests/test_trace.py`` for a collected procedure that raises.
"""

from __future__ import annotations

import gc
import io

import pytest

from repro.cluster import Cluster, FaultPlan
from repro.procedures import ProcedureCatalog, StoredProcedure
from repro.trace import TraceCollector, TransactionTrace
from repro.trace.persistence import dump_trace, load_trace

from tests.conftest import build_custinfo_schema
from tests.test_cluster_properties import _build_partitioning

CALLS = [
    {"cust_id": 1, "any_account": 1},
    {"cust_id": 2, "any_account": 7},
    {"cust_id": 1, "any_account": 8},
]

#: a single-row SELECT, an INSERT and a DELETE
ONE_ROW = StoredProcedure(
    "OneRow",
    params=["trade", "new"],
    statements={
        "read": "SELECT T_QTY FROM TRADE WHERE T_ID = @trade",
        "add": "INSERT INTO TRADE (T_ID, T_CA_ID, T_QTY) VALUES (@new, 1, 1)",
        "drop": "DELETE FROM TRADE WHERE T_ID = @trade",
    },
)


def _settle() -> None:
    """Two full collections: one untracks a tuple only once all it holds
    is untracked, and it may visit a record before the fresh key inside
    it, so the first pass can leave records for the second."""
    gc.collect()
    gc.collect()


def _assert_untracked_plain(records) -> None:
    records = list(records)
    assert records
    _settle()
    for record in records:
        assert type(record) is tuple, record
        assert not gc.is_tracked(record), record


def _all_accesses(trace):
    return [access for txn in trace for access in txn.accesses]


def _spy_on_resolutions(cluster: Cluster) -> list[list]:
    """The accesses of every resolution *cluster* makes, in call order."""
    resolved: list[list] = []
    resolve = cluster._resolve_accesses

    def spy(snapshot, accesses, *rest):
        resolved.append(list(accesses))
        return resolve(snapshot, accesses, *rest)

    cluster._resolve_accesses = spy  # type: ignore[method-assign]
    return resolved


@pytest.fixture
def customer_partitioning():
    return _build_partitioning(build_custinfo_schema())


@pytest.mark.smoke
def test_recorded_accesses_are_untracked_plain_tuples(
    figure1_db, custinfo_procedure, customer_partitioning
):
    collector = TraceCollector(figure1_db)
    for arguments in CALLS:  # joins and an UPDATE
        collector.run(custinfo_procedure, arguments)
    for trade in (3, 4):
        collector.run(ONE_ROW, {"trade": trade, "new": 100 + trade})
    _assert_untracked_plain(_all_accesses(collector.trace))

    by_hand = TransactionTrace(0, "Manual")
    by_hand.record("TRADE", [1], True)
    by_hand.record("HOLDING_SUMMARY", (101, 1), False)
    _assert_untracked_plain(by_hand.accesses)

    stream = io.StringIO()
    dump_trace(collector.trace, stream)
    stream.seek(0)
    _assert_untracked_plain(_all_accesses(load_trace(stream)))

    cluster = Cluster(
        figure1_db,
        ProcedureCatalog([custinfo_procedure]),
        customer_partitioning,
    )
    try:
        resolved = _spy_on_resolutions(cluster)
        for arguments in CALLS:
            assert cluster.execute("CustInfo", arguments)
        _assert_untracked_plain(access for call in resolved for access in call)
    finally:
        cluster.close()


def test_cluster_drops_an_aborted_transaction_s_accesses(
    figure1_db, custinfo_procedure, customer_partitioning
):
    # account 1 belongs to customer 1, homed on node 2: down at tick 0
    cluster = Cluster(
        figure1_db,
        ProcedureCatalog([custinfo_procedure]),
        customer_partitioning,
        fault_plan=FaultPlan().crash(node=2, at=0).recover(node=2, at=1),
    )
    try:
        resolved = _spy_on_resolutions(cluster)
        assert not cluster.execute("CustInfo", CALLS[0])
        assert cluster.metrics.failed == 1
        assert resolved and cluster._txn_access == []
        resolved.clear()
        assert cluster.execute("CustInfo", CALLS[1])
        (accesses,) = resolved
        assert cluster._txn_access == []
    finally:
        cluster.close()
    fresh = TraceCollector(figure1_db).run(custinfo_procedure, CALLS[1])
    assert accesses == fresh.accesses
