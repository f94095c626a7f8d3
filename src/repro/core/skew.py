"""Skew mitigation extension (Section 8 future work).

The paper's proposed remedy for hot/cold partitions: create many more
partitions than processing elements and assign partitions to nodes with a
heat-aware bin-packing heuristic, so each node carries a different number
of partitions but a similar share of the load.

This module implements that proposal: measure per-partition *heat* from a
trace, then pack with Longest-Processing-Time-first greedy (a 4/3-
approximation for makespan), and report the resulting load balance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.placement import PlacementStore
from repro.core.solution import DatabasePartitioning
from repro.errors import PartitioningError
from repro.storage.database import Database
from repro.trace.events import Trace


def partition_heat(
    partitioning: DatabasePartitioning,
    trace: Trace,
    database: Database,
) -> dict[int, float]:
    """Per-partition load: one unit per transaction touching the partition."""
    pid_of = PlacementStore(database, partitioning).pid_of
    heat: dict[int, float] = {
        p: 0.0 for p in range(1, partitioning.num_partitions + 1)
    }
    for txn in trace:
        touched: set[int] = set()
        for table, key in txn.tuples:
            pid = pid_of(table, key)
            if pid > 0:
                touched.add(pid)
        for pid in touched:
            heat[pid] = heat.get(pid, 0.0) + 1.0
    return heat


@dataclass
class Placement:
    """Assignment of partitions to processing nodes."""

    assignment: dict[int, int]  # partition -> node
    node_loads: list[float]

    @property
    def makespan(self) -> float:
        return max(self.node_loads) if self.node_loads else 0.0

    @property
    def imbalance(self) -> float:
        """max load / average load (1.0 = perfectly balanced)."""
        if not self.node_loads:
            return 1.0
        avg = sum(self.node_loads) / len(self.node_loads)
        if avg == 0:
            return 1.0
        return max(self.node_loads) / avg


def pack_partitions(heat: dict[int, float], num_nodes: int) -> Placement:
    """LPT greedy bin packing: heaviest partition to the lightest node."""
    if num_nodes < 1:
        raise PartitioningError("need at least one node")
    loads = [0.0] * num_nodes
    assignment: dict[int, int] = {}
    for partition, load in sorted(
        heat.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        node = min(range(num_nodes), key=lambda n: loads[n])
        assignment[partition] = node
        loads[node] += load
    return Placement(assignment, loads)


def overpartition_and_pack(
    partitioning: DatabasePartitioning,
    trace: Trace,
    database: Database,
    num_nodes: int,
) -> Placement:
    """The full Section-8 recipe for an already over-partitioned database.

    *partitioning* should use more partitions than *num_nodes* (e.g. 4-8x);
    the returned placement maps each partition to a node so that node loads
    are even despite per-partition heat skew.
    """
    if partitioning.num_partitions < num_nodes:
        raise PartitioningError(
            "over-partitioning requires more partitions than nodes"
        )
    heat = partition_heat(partitioning, trace, database)
    return pack_partitions(heat, num_nodes)
