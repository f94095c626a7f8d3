"""Lookup tables: routing-attribute value -> partition ids.

The paper adopts the lookup-table approach of Tatarowicz et al. [22]: for a
chosen column, map each value to the set of partitions holding associated
tuples. The coarser the attribute, the smaller the table; a mapping-
independent partitioning makes most lookups single-partition.

This implementation is *live*: entries are refcounted per contributing row,
so the table can be maintained incrementally under inserts, deletes, and
updates of the attribute's own table (``apply_insert`` & co.), and a
version snapshot of every dependency table makes staleness a handful of
integer compares (``is_stale``). Writes to the tables along the join path
go through ``apply_dependency``, which asks the solution's shared rule
(:meth:`TableSolution.mutation_effect`) what the write can change: nothing
(the version is synced), only the rows whose walk found no root value
(those are kept aside and re-evaluated), or anything. Only the last case,
and own-table updates of a column the path reads, are answered with a full
rebuild by the caller (the router).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.core.mapping import REPLICATED
from repro.core.path_eval import JoinPathEvaluator
from repro.core.solution import DatabasePartitioning, PathEffect, TableSolution
from repro.schema.attribute import Attr
from repro.storage.database import Database
from repro.storage.table import KeyValue, Table


class LookupTable:
    """Partition locations of tuples, keyed by one column's values.

    ``partitions_for`` returns an immutable ``frozenset`` (memoized per
    value), so callers can never corrupt the table through aliasing. An
    empty frozenset means the value was seen but only in replicated rows;
    ``None`` means the value is unknown.
    """

    def __init__(
        self,
        attribute: Attr,
        solution: TableSolution | None = None,
        table: Table | None = None,
        evaluator: JoinPathEvaluator | None = None,
    ) -> None:
        self.attribute = attribute
        self._solution = solution
        self._table = table
        self._evaluator = evaluator
        # value -> number of contributing rows (all seen values).
        self._row_counts: dict[Any, int] = {}
        # value -> {partition id -> contributing row count}; only values
        # with at least one non-replicated contribution have an entry.
        self._pid_counts: dict[Any, dict[int, int]] = {}
        # value -> memoized frozenset; invalidated per value on mutation.
        self._frozen: dict[Any, frozenset[int]] = {}
        # primary key -> value of rows whose join path found no root value.
        self._unplaced: dict[KeyValue, Any] = {}
        # dependency table name -> version at build / last applied write.
        self._versions: dict[str, int] = {}
        # Source-table columns whose change can move a row's entry: the
        # attribute itself and every column the join path reads there.
        self._sensitive = frozenset({attribute.column})
        if solution is not None:
            self._sensitive |= solution.read_sets.get(
                attribute.table, frozenset()
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        attribute: Attr,
        database: Database,
        partitioning: DatabasePartitioning,
        evaluator: JoinPathEvaluator | None = None,
    ) -> "LookupTable":
        """Scan *attribute*'s table and record each value's partitions.

        Rows in replicated tables (or values mapped to partition 0)
        contribute no location constraint — they are everywhere.
        """
        evaluator = evaluator or JoinPathEvaluator(database)
        table = database.table(attribute.table)
        solution = partitioning.solution_for(attribute.table)
        out = cls(attribute, solution, table, evaluator)
        for row in table.scan():
            out._absorb(row)
        for name in solution.dependency_tables:
            out._versions[name] = database.table(name).version
        return out

    @property
    def dependencies(self) -> tuple[str, ...]:
        """Tables whose mutations can invalidate this lookup."""
        if self._solution is None:
            return (self.attribute.table,)
        return self._solution.dependency_tables

    @property
    def hop_targets(self) -> Mapping[str, frozenset[tuple[str, ...]]]:
        """Tables whose writes can move rows other than the written one."""
        if self._solution is None:
            return {}
        return self._solution.hop_targets

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

    def is_stale(self, database: Database) -> bool:
        """True when any dependency table mutated since the last sync.

        One integer compare per dependency table — cheap enough to run on
        every cache access as the safety net under the write-through hooks
        (e.g. for mutations applied while no hook was attached).
        """
        for name, version in self._versions.items():
            if database.table(name).version != version:
                return True
        return False

    # ------------------------------------------------------------------
    # incremental maintenance (write-through)
    # ------------------------------------------------------------------
    def apply_insert(self, row: Mapping[str, Any]) -> bool:
        """Absorb one inserted row of the attribute's table.

        Returns False when the mutation cannot be applied precisely and the
        caller must fall back to a full rebuild.
        """
        if self._table is None or self._solution is None:
            return False
        self._absorb(row)
        self._versions[self.attribute.table] = self._table.version
        return True

    def apply_delete(self, row: Mapping[str, Any]) -> bool:
        """Remove one deleted row's contribution (by its last version)."""
        if self._table is None or self._solution is None:
            return False
        if not self._expel(row):
            return False
        self._versions[self.attribute.table] = self._table.version
        return True

    def apply_update(
        self, old_row: Mapping[str, Any], new_row: Mapping[str, Any]
    ) -> bool:
        """Absorb an update; False when it touches routing-relevant columns.

        An update that changes neither the attribute column nor any source-
        table column the join path reads cannot move the row's partition,
        so the lookup is untouched (primary keys are immutable under
        :meth:`Table.update`). Anything else would need the *pre-update*
        path evaluation, which is gone — signal a rebuild instead.
        """
        if self._table is None or self._solution is None:
            return False
        for column in self._sensitive:
            if old_row.get(column) != new_row.get(column):
                return False
        self._versions[self.attribute.table] = self._table.version
        return True

    def apply_dependency(
        self,
        table: Table,
        op: str,
        old: Mapping[str, Any] | None,
        new: Mapping[str, Any] | None,
    ) -> bool:
        """Absorb a write to *table* as the other rows' join paths see it.

        Called with the table's listener arguments for every table in
        :attr:`hop_targets`, which holds the attribute's own table only
        when the path lands back on it (after its ``apply_*`` has handled
        the written row itself). Returns False when the write may have
        moved any row and the caller must rebuild.
        """
        if self._solution is None:
            return False
        effect = self._solution.mutation_effect(table.schema, op, old, new)
        if effect is PathEffect.ALL:
            return False
        if effect is PathEffect.UNPLACED:
            self._place_unplaced()
        self._versions[table.schema.name] = table.version
        return True

    def _place_unplaced(self) -> None:
        """Re-evaluate the rows whose join path found no root value."""
        assert self._solution is not None and self._evaluator is not None
        for key, value in list(self._unplaced.items()):
            pid = self._solution.partition_of(key, self._evaluator)
            if pid is None:
                continue
            del self._unplaced[key]
            if pid != REPLICATED:
                bucket = self._pid_counts.setdefault(value, {})
                bucket[pid] = bucket.get(pid, 0) + 1
                self._frozen.pop(value, None)

    def _absorb(self, row: Mapping[str, Any]) -> None:
        value = row.get(self.attribute.column)
        if value is None:
            return
        assert self._table is not None and self._solution is not None
        assert self._evaluator is not None
        key = self._table.primary_key_of(row)
        pid = self._solution.partition_of(key, self._evaluator)
        self._row_counts[value] = self._row_counts.get(value, 0) + 1
        if pid is None:
            self._unplaced[key] = value
        elif pid != REPLICATED:
            bucket = self._pid_counts.setdefault(value, {})
            bucket[pid] = bucket.get(pid, 0) + 1
        self._frozen.pop(value, None)

    def _expel(self, row: Mapping[str, Any]) -> bool:
        value = row.get(self.attribute.column)
        if value is None:
            return True
        count = self._row_counts.get(value)
        if count is None:
            # Never saw this value: the table and the lookup disagree.
            return False
        assert self._table is not None and self._solution is not None
        assert self._evaluator is not None
        key = self._table.primary_key_of(row)
        pid = self._solution.partition_of(key, self._evaluator)
        if pid is None:
            if key not in self._unplaced:
                return False
            del self._unplaced[key]
        elif pid != REPLICATED:
            bucket = self._pid_counts.get(value)
            if bucket is None or pid not in bucket:
                return False
            bucket[pid] -= 1
            if bucket[pid] <= 0:
                del bucket[pid]
            if not bucket:
                del self._pid_counts[value]
        if count <= 1:
            del self._row_counts[value]
            self._pid_counts.pop(value, None)
        else:
            self._row_counts[value] = count - 1
        self._frozen.pop(value, None)
        return True

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
