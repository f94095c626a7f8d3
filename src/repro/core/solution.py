"""Partitioning solutions: per-class, per-table, and whole-database.

* :class:`ClassSolution` — Definition 4: a join tree over one homogeneous
  workload plus (when needed) a concrete mapping function. Mapping
  independent solutions carry ``mapping=None``: any non-replicating
  mapping gives the same cost.
* :class:`TableSolution` — Definition 10: a join path from one table's
  primary key to a partitioning attribute, plus a mapping function (or
  replication).
* :class:`DatabasePartitioning` — Definition 11: one table solution per
  table; tables without one are replicated.

:meth:`TableSolution.mutation_effect` is the rule the placement store
(:mod:`repro.core.placement`) applies to decide what a write to a
join-path table can do to the placements that read it
(:class:`PathEffect`); the router's lookups and the cluster follow it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping

import numpy as np

from repro.errors import PartitioningError
from repro.schema.attribute import Attr
from repro.core.join_path import JoinPath
from repro.core.join_tree import JoinTree
from repro.core.mapping import HashMapping, MappingFunction
from repro.core.path_eval import ColumnarEngine
from repro.schema.table import TableSchema

TOTAL = "total"
PARTIAL = "partial"


@dataclass(frozen=True)
class ClassSolution:
    """A partitioning solution for one transaction class (Definition 4)."""

    class_name: str
    tree: JoinTree
    kind: str = TOTAL  # TOTAL or PARTIAL
    mapping: MappingFunction | None = None
    mapping_independent: bool = True

    @property
    def root(self) -> Attr:
        return self.tree.root

    def __str__(self) -> str:
        tag = "MI" if self.mapping_independent else "stat"
        return f"{self.class_name}[{self.kind},{tag}] root={self.root}"


class PathEffect(enum.IntEnum):
    """What one source write can do to the placements a join path yields.

    Ordered by reach, so ``max`` combines the effects of several writes.
    """

    #: no walk can change
    NONE = 0
    #: only walks that found no root value (``None``) can change
    UNPLACED = 1
    #: any walk may change: every row must be placed again
    ALL = 2


@dataclass(frozen=True)
class TableSolution:
    """How one table is placed (Definition 10).

    ``path=None`` means the table is fully replicated. Otherwise tuples
    follow ``path`` to the partitioning attribute and ``mapping`` sends the
    value to a partition id (0 = replicate that value's tuples).
    """

    table: str
    path: JoinPath | None = None
    mapping: MappingFunction | None = None

    def __post_init__(self) -> None:
        if self.path is not None:
            if self.path.source_table != self.table:
                raise PartitioningError(
                    f"solution path for {self.table} starts at "
                    f"{self.path.source_table}"
                )
            if self.mapping is None:
                raise PartitioningError(
                    f"partitioned table {self.table} needs a mapping function"
                )

    @property
    def replicated(self) -> bool:
        return self.path is None

    @property
    def attribute(self) -> Attr | None:
        return None if self.path is None else self.path.destination

    @cached_property
    def dependency_tables(self) -> tuple[str, ...]:
        """Tables whose rows influence the table's placement, in path order.

        A replicated table depends only on itself; a partitioned one
        depends on every table its join path walks through. The placement
        store's column for the table checks exactly these tables'
        versions for staleness.
        """
        if self.path is None:
            return (self.table,)
        seen: dict[str, None] = {self.table: None}
        for table in self.path.tables:
            seen.setdefault(table, None)
        return tuple(seen)

    @cached_property
    def read_sets(self) -> dict[str, frozenset[str]]:
        """Columns the join-path walk reads, per visited table.

        The union of the path's node attributes in each table: primary
        keys, foreign keys, intra-table targets and the destination —
        exactly the values the compiled path walk consults.
        Empty for a replicated table.
        """
        columns: dict[str, set[str]] = {}
        if self.path is not None:
            for node in self.path.nodes:
                for attr in node:
                    columns.setdefault(attr.table, set()).add(attr.column)
        return {table: frozenset(cols) for table, cols in columns.items()}

    @cached_property
    def hop_targets(self) -> dict[str, frozenset[tuple[str, ...]]]:
        """Tables a foreign-key hop of the path lands in.

        Each maps to the referenced columns of those hops. These are the
        tables where a walk reads rows other than its own, so only writes
        to them can move other rows (:meth:`mutation_effect`).
        """
        hops: dict[str, set[tuple[str, ...]]] = {}
        if self.path is not None:
            for step in self.path.steps:
                if step.fk is not None:
                    hops.setdefault(step.fk.ref_table, set()).add(
                        tuple(step.fk.ref_columns)
                    )
        return {table: frozenset(refs) for table, refs in hops.items()}

    def mutation_effect(
        self,
        table: TableSchema,
        op: str,
        old: Mapping[str, Any] | None,
        new: Mapping[str, Any] | None,
    ) -> PathEffect:
        """What one write to *table* can do to the placement of other rows.

        *op*, *old* and *new* follow the :class:`~repro.storage.table.Table`
        listener contract (an insert's *old* is the tombstone it replaced).
        Only walks that hop into *table* through a foreign key read rows
        other than their own, so the written row's own placement is left to
        its writer. Deletes are free on tables every hop enters by the
        exact primary key: the walk falls back to the tombstone, which
        holds the deleted values. For the same reason an insert there can
        only complete walks that found nothing before — unless it replaces
        a tombstone whose read-set values differ.
        """
        hops = self.hop_targets.get(table.name)
        if hops is None:
            return PathEffect.NONE
        read = self.read_sets[table.name]
        if op == "update":
            assert old is not None and new is not None
            return _same_columns(read, old, new)
        if any(columns != table.primary_key for columns in hops):
            return PathEffect.ALL
        if op == "delete":
            return PathEffect.NONE
        if old is None:
            return PathEffect.UNPLACED
        assert new is not None
        return _same_columns(read, old, new)

    def partition_ids(self, engine: ColumnarEngine, local_ids: Any) -> Any:
        """Partition ids for interned keys of this table, batched.

        *local_ids* index the table's keys in *engine*'s interned trace;
        the result holds one id per key, ``-1`` for unroutable.
        """
        if self.path is None:
            return np.zeros(len(local_ids), dtype=np.int64)
        return engine.partition_pids(self.path, self.mapping, local_ids)

    def __str__(self) -> str:
        if self.replicated:
            return f"{self.table}: replicated"
        return f"{self.table}: {self.path} via {self.mapping!r}"


def _same_columns(
    columns: frozenset[str], old: Mapping[str, Any], new: Mapping[str, Any]
) -> PathEffect:
    """NONE when *old* and *new* agree on every column, else ALL."""
    for column in columns:
        if old.get(column) != new.get(column):
            return PathEffect.ALL
    return PathEffect.NONE


class DatabasePartitioning:
    """A complete placement decision for every table (Definition 11)."""

    def __init__(
        self,
        num_partitions: int,
        solutions: Mapping[str, TableSolution] | Iterable[TableSolution] = (),
        name: str = "partitioning",
    ) -> None:
        if num_partitions < 1:
            raise PartitioningError("need at least one partition")
        self.num_partitions = num_partitions
        self.name = name
        self._solutions: dict[str, TableSolution] = {}
        items = (
            solutions.values() if isinstance(solutions, Mapping) else solutions
        )
        for solution in items:
            self.set(solution)

    def set(self, solution: TableSolution) -> None:
        self._solutions[solution.table] = solution

    def solution_for(self, table: str) -> TableSolution:
        """Placement for *table* (absent tables are replicated)."""
        found = self._solutions.get(table)
        if found is not None:
            return found
        return TableSolution(table)

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(self._solutions)

    def partitioned_tables(self) -> list[str]:
        return [t for t, s in self._solutions.items() if not s.replicated]

    def replicated_tables(self) -> list[str]:
        return [t for t, s in self._solutions.items() if s.replicated]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def single_attribute(
        cls,
        num_partitions: int,
        table_paths: Mapping[str, JoinPath],
        mapping: MappingFunction | None = None,
        replicated: Iterable[str] = (),
        name: str = "partitioning",
    ) -> "DatabasePartitioning":
        """All tables follow paths to one root, sharing one mapping."""
        mapping = mapping or HashMapping(num_partitions)
        out = cls(num_partitions, name=name)
        for table, path in table_paths.items():
            out.set(TableSolution(table, path, mapping))
        for table in replicated:
            out.set(TableSolution(table))
        return out

    @classmethod
    def from_tree(
        cls,
        num_partitions: int,
        tree: JoinTree,
        mapping: MappingFunction | None = None,
        replicated: Iterable[str] = (),
        name: str = "partitioning",
    ) -> "DatabasePartitioning":
        return cls.single_attribute(
            num_partitions, dict(tree.paths), mapping, replicated, name
        )

    def describe(self) -> str:
        lines = [f"{self.name} (k={self.num_partitions})"]
        for table in sorted(self._solutions):
            lines.append(f"  {self._solutions[table]}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DatabasePartitioning({self.name!r}, k={self.num_partitions}, "
            f"tables={len(self._solutions)})"
        )
