"""Lookup tables: routing-attribute value -> partition ids.

The paper adopts the lookup-table approach of Tatarowicz et al. [22]: for a
chosen column, map each value to the set of partitions holding associated
tuples. The coarser the attribute, the smaller the table; a mapping-
independent partitioning makes most lookups single-partition.

A lookup table is a *view*: a group-by over the attribute's table and the
:class:`~repro.core.placement.PlacementStore` column that places its rows,
counting contributing rows per (value, partition id). It never places a
row itself. The store hands it every change to a live row of its table —
a write, or a row the store moved because a write elsewhere changed its
join path — and the view moves that row's count (:meth:`placement_changed`).
When the store has to fill the column again from scratch, the view is
stale (:meth:`~LookupTable.is_stale`) and its holder (the router) builds
it again.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.metrics import RoutingMetrics
from repro.core.placement import MOVE, PlacementStore
from repro.schema.attribute import Attr
from repro.storage.table import KeyValue, Row


class LookupTable:
    """Partition locations of tuples, keyed by one column's values.

    ``partitions_for`` returns an immutable ``frozenset`` (memoized per
    value), so callers can never corrupt the table through aliasing. An
    empty frozenset means the value was seen but only in replicated or
    unroutable rows; ``None`` means the value is unknown. ``metrics``,
    when given, counts the writes the view absorbed.
    """

    def __init__(
        self,
        attribute: Attr,
        store: PlacementStore,
        metrics: RoutingMetrics | None = None,
    ) -> None:
        self.attribute = attribute
        self.store = store
        self.metrics = metrics
        #: the store column's generation the view was built from
        self.generation = store.generation(attribute.table)
        # value -> number of contributing rows (all seen values).
        self._row_counts: dict[Any, int] = {}
        # value -> {partition id -> contributing row count}; only values
        # with at least one singly-homed row have an entry.
        self._pid_counts: dict[Any, dict[int, int]] = {}
        # value -> memoized frozenset; invalidated per value on change.
        self._frozen: dict[Any, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        attribute: Attr,
        store: PlacementStore,
        metrics: RoutingMetrics | None = None,
    ) -> "LookupTable":
        """Group *attribute*'s table by value over *store*'s pid column.

        Replicated, partition-0 and unroutable rows constrain no location.
        """
        view = cls(attribute, store, metrics)
        pids = store.pids(attribute.table)
        column = attribute.column
        row_counts = view._row_counts
        pid_counts = view._pid_counts
        for key, row in store.database.table(attribute.table).items():
            value = row.get(column)
            if value is None:
                continue
            row_counts[value] = row_counts.get(value, 0) + 1
            if pids is not None:
                pid = pids[key]
                if pid > 0:
                    bucket = pid_counts.get(value)
                    if bucket is None:
                        bucket = pid_counts[value] = {}
                    bucket[pid] = bucket.get(pid, 0) + 1
        store.subscribe(attribute.table, view)
        return view

    def close(self) -> None:
        """Stop following the store (the view is dropped)."""
        self.store.unsubscribe(self.attribute.table, self)

    @property
    def dependencies(self) -> tuple[str, ...]:
        """Tables whose writes can change this lookup."""
        solution = self.store.partitioning.solution_for(self.attribute.table)
        return solution.dependency_tables

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def partitions_for(self, value: Any) -> frozenset[int] | None:
        """Partitions holding tuples for *value*; None when value unseen."""
        frozen = self._frozen.get(value)
        if frozen is not None:
            return frozen
        if value not in self._row_counts:
            return None
        frozen = frozenset(self._pid_counts.get(value, ()))
        self._frozen[value] = frozen
        return frozen

    def is_stale(self) -> bool:
        """True once the store had to fill the column again, so the view
        missed changes; a column that missed writes is refilled first."""
        return self.generation != self.store.generation(self.attribute.table)

    # ------------------------------------------------------------------
    # maintenance (the store's change feed)
    # ------------------------------------------------------------------
    def placement_changed(
        self,
        table: str,
        op: str,
        key: KeyValue,
        old: Row | None,
        new: Row | None,
        old_pid: int | None,
        new_pid: int | None,
    ) -> None:
        """Move one row's count (see
        :class:`~repro.core.placement.PlacementSubscriber`); an update
        that keeps the row's value and pid leaves it where it is."""
        column = self.attribute.column
        old_value = None if old is None else old.get(column)
        new_value = None if new is None else new.get(column)
        if op != "update" or old_pid != new_pid or old_value != new_value:
            if op != "insert":
                assert old is not None and old_pid is not None
                self._remove(old_value, old_pid)
            if op != "delete":
                assert new is not None and new_pid is not None
                self._add(new_value, new_pid)
        metrics = self.metrics
        if metrics is None or op == MOVE:
            return
        if op == "insert":
            metrics.write_through_inserts += 1
        elif op == "delete":
            metrics.write_through_deletes += 1
        else:
            metrics.write_through_updates += 1

    def placement_reset(self, table: str) -> None:
        """Nothing to undo here: :meth:`is_stale` sees the new generation."""

    def _add(self, value: Any, pid: int) -> None:
        if value is None:
            return
        self._row_counts[value] = self._row_counts.get(value, 0) + 1
        if pid > 0:
            bucket = self._pid_counts.setdefault(value, {})
            bucket[pid] = bucket.get(pid, 0) + 1
        self._frozen.pop(value, None)

    def _remove(self, value: Any, pid: int) -> None:
        if value is None:
            return
        count = self._row_counts[value]
        if count <= 1:
            del self._row_counts[value]
        else:
            self._row_counts[value] = count - 1
        if pid > 0:
            bucket = self._pid_counts[value]
            if bucket[pid] <= 1:
                del bucket[pid]
                if not bucket:
                    del self._pid_counts[value]
            else:
                bucket[pid] -= 1
        self._frozen.pop(value, None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __contains__(self, value: Any) -> bool:
        return value in self._row_counts

    def __iter__(self) -> Iterator[Any]:
        return iter(self._row_counts)

    def __len__(self) -> int:
        return len(self._row_counts)

    def __repr__(self) -> str:
        return f"LookupTable({self.attribute}, entries={len(self._row_counts)})"
