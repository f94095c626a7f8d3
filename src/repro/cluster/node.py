"""One simulated cluster node: partition-local row copies plus liveness."""

from __future__ import annotations

from repro.schema.database import DatabaseSchema
from repro.storage.table import KeyValue, Row


class Liveness:
    """An epoch that moves whenever a node of one cluster crashes or
    recovers, so the cluster can tell its live set is unchanged with one
    integer compare."""

    __slots__ = ("epoch",)

    def __init__(self) -> None:
        self.epoch = 0


class Node:
    """A member of the simulated cluster.

    ``tables`` maps each table of the cluster's schema to the rows placed
    here, by primary key; every row is the node's own copy, so writes to
    the source never show through. The
    :class:`~repro.cluster.cluster.Cluster` decides which rows live here and
    is the only writer. ``up`` models liveness for fault injection: a down
    node cannot participate in transactions, but its in-memory state
    survives the crash (crash-stop with durable storage). ``divergent``
    tracks tables whose replicated content missed writes while the node
    was down; recovery resyncs exactly those. ``up`` changes only through
    :meth:`crash` and :meth:`recover`, which move *liveness*'s epoch (the
    cluster's, shared by all its nodes).
    """

    def __init__(
        self,
        node_id: int,
        schema: DatabaseSchema,
        liveness: Liveness | None = None,
    ) -> None:
        self.node_id = node_id
        self.tables: dict[str, dict[KeyValue, Row]] = {
            name: {} for name in schema.table_names
        }
        self.up = True
        self.divergent: set[str] = set()
        self._liveness = liveness if liveness is not None else Liveness()

    def crash(self) -> None:
        self.up = False
        self._liveness.epoch += 1

    def recover(self) -> None:
        self.up = True
        self._liveness.epoch += 1

    def row_count(self) -> int:
        return sum(len(rows) for rows in self.tables.values())

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"Node({self.node_id}, {state}, rows={self.row_count()})"
