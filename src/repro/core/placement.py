"""The placement store: one maintained key -> partition id map per
(database, partitioning).

The router's lookup tables and the simulated cluster read it, so each
row is placed once. A partitioned table's *column* maps every live
primary key to its partition id (``0`` value-replicated,
:data:`UNROUTABLE` when the join path finds no root value); a replicated
table has none. A column is filled when a reader needs it whole
(:meth:`~PlacementStore.pids`: the views, the cluster), in one pass on
the solution's compiled :class:`~repro.core.path_eval._PathPlan`, whose
tail memo walks each distinct first-hop value once; a memo maps each
distinct root value to its pid once. Any other key — one that is not
live (a trace key of a deleted row), or every key while the column is
not filled — gets a memoized walk of its own.

:meth:`PlacementStore.attach` keeps the columns current with one listener
per table: a write re-places the written row, and a write to a table
other paths hop into is judged by
:meth:`~repro.core.solution.TableSolution.mutation_effect` (``NONE``,
``UNPLACED``: re-walk the unroutable rows, ``ALL``: re-walk every row).
Subscribers hear of every change to a live row. Each column's snapshot of
its dependency tables' versions is the safety net: a column read out of
step (writes made while detached, or a ``Table.restore_tombstone`` the
store did not make) is filled again, and its subscribers are told to
start over.

Between :meth:`~PlacementStore.begin` and ``commit``/``abort`` the store
journals each row's pid from before the transaction; an abort puts back
the rows the undone writes left elsewhere, and no column is filled again.
A partitioning with a tuple-map solution (Schism's: no join path, yet not
replicated) is refused at construction: the store places rows by join
path only.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Protocol

from repro.core.mapping import REPLICATED
from repro.core.path_eval import SnapshotIndex, _PathPlan
from repro.core.solution import DatabasePartitioning, PathEffect, TableSolution
from repro.errors import PartitioningError
from repro.storage.database import Database
from repro.storage.table import KeyValue, Row, Table

#: partition id of a row whose join path finds no root value
UNROUTABLE = -1
#: change op of a live row the store moved without it being written
MOVE = "move"


class PlacementSubscriber(Protocol):
    """What the store tells the views and the cluster built over it."""

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
        """One live row changed; its pid was *old_pid*, is *new_pid*.

        A write passes the table listener's *op*, *old* and *new* (an
        insert's *old* is the tombstone it replaced); a row the store only
        moved has op :data:`MOVE` and its live row as *old* and *new*. A
        pid is ``None`` while the row is not live.
        """

    def placement_reset(self, table: str) -> None:
        """*table*'s column was filled again: drop what was derived from it."""


class _Column:
    """One table's placement plus the state that keeps it exact."""

    __slots__ = (
        "name", "solution", "tables", "slots", "versions", "plan", "pids",
        "unplaced", "walked", "value_pids", "generation",
    )

    def __init__(self, solution: TableSolution, rows: SnapshotIndex) -> None:
        self.name = solution.table
        self.solution = solution
        names = solution.dependency_tables
        #: dependency tables, the source table first
        self.tables: tuple[Table, ...] = tuple(rows.table(n) for n in names)
        self.slots = {name: index for index, name in enumerate(names)}
        self.versions = [table.version for table in self.tables]
        #: ``None`` for a replicated table
        self.plan = (
            None if solution.path is None else _PathPlan(solution.path, rows)
        )
        #: live key -> pid; ``None`` for a replicated table or until filled
        self.pids: dict[KeyValue, int] | None = None
        self.unplaced: set[KeyValue] = set()
        #: memoized pids of keys placed one at a time
        self.walked: dict[KeyValue, int] = {}
        #: root value -> pid; no root value is unroutable
        self.value_pids: dict[Any, int] = {None: UNROUTABLE}
        #: how often the column was filled again from scratch
        self.generation = 0

    def in_step(self) -> bool:
        for table, version in zip(self.tables, self.versions):
            if table.version != version:
                return False
        return True


class PlacementStore:
    """Every row's partition id under one partitioning of one database.

    A column is filled on its first :meth:`pids` read (subscribers read
    theirs first); until then :meth:`pid_of` walks keys one at a time. A
    store made with the constructor is a snapshot kept honest by the
    version check alone; :meth:`attach` subscribes it to the tables'
    writes and :meth:`close` detaches it. ``pid_computations`` counts the
    per-key placements computed.
    """

    def __init__(
        self, database: Database, partitioning: DatabasePartitioning
    ) -> None:
        self.database = database
        self.partitioning = partitioning
        self.pid_computations = 0
        self._rows = SnapshotIndex(database)
        self._columns: dict[str, _Column] = {}
        #: table -> columns its writes reach (its own, and those hopping in)
        self._readers: dict[str, list[_Column]] = {}
        self._subscribers: dict[str, list[PlacementSubscriber]] = {}
        self._hooks: list[tuple[Table, Any]] = []
        for name in partitioning.tables:
            solution = partitioning.solution_for(name)
            if solution.path is None and not solution.replicated:
                raise PartitioningError(
                    f"{name} is placed by a tuple map (no join path): the "
                    "placement store places rows by join path only"
                )
        #: in a transaction: table -> {key -> pid before it} (None: refilled)
        self._journal: dict[str, dict[KeyValue, int | None] | None] | None
        self._journal = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> "PlacementStore":
        """Listen to every table's writes; returns the store."""
        for table in self.database:
            hook = partial(self._on_write, table.schema.name)
            table.add_listener(hook)
            self._hooks.append((table, hook))
        return self

    def close(self) -> None:
        """Detach the listeners and drop the subscribers; reads fall back
        to the version check."""
        for table, hook in self._hooks:
            table.remove_listener(hook)
        self._hooks.clear()
        self._subscribers.clear()

    def subscribe(self, table: str, subscriber: PlacementSubscriber) -> None:
        self._subscribers.setdefault(table, []).append(subscriber)

    def unsubscribe(self, table: str, subscriber: PlacementSubscriber) -> None:
        subscribers = self._subscribers.get(table, [])
        if subscriber in subscribers:
            subscribers.remove(subscriber)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Journal row pids until :meth:`commit` or :meth:`abort`."""
        self._journal = {}

    def commit(self) -> None:
        """Keep the transaction's placements."""
        self._journal = None

    def restore_tombstone(
        self, table: str, key: KeyValue, row: Row | None
    ) -> None:
        """``Table.restore_tombstone`` while undoing a transaction: keep
        the columns reading *table* in step and drop the walks memoized
        over *key*; :meth:`abort` puts back the live rows it moves."""
        assert self._journal is not None, "restore a tombstone inside begin()"
        source = self._rows.table(table)
        version = source.version
        readers = [
            column
            for column in self._readers.get(table, ())
            if column.versions[column.slots[table]] == version
        ]
        source.restore_tombstone(key, row)
        for column in readers:
            column.versions[column.slots[table]] = source.version
            if column.plan is None:
                continue
            if column.name == table:
                column.walked.pop(key, None)
            if table in column.solution.hop_targets:
                column.plan.tail_memo.clear()
                column.walked.clear()

    def abort(self) -> None:
        """Once the caller has undone the transaction's writes, put every
        journaled row whose pid differs back (a ``MOVE`` to subscribers);
        a column filled during the transaction is filled again."""
        journal, self._journal = self._journal, None
        assert journal is not None, "abort() without begin()"
        for table, entries in journal.items():
            column = self._columns[table]
            if entries is None:
                self._refill(column)
                continue
            pids = column.pids
            assert pids is not None
            rows = column.tables[0]
            for key, pid in entries.items():
                now = pids.get(key)
                assert (now is None) == (pid is None), (table, key)
                if pid is not None and now != pid:
                    self._set(column, key, pid)
                    row = rows.get(key)
                    self._emit(table, MOVE, key, row, row, now, pid)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def pids(self, table: str) -> dict[KeyValue, int] | None:
        """*table*'s live key -> pid column (``None``: replicated table).

        The column is the store's own; callers must not change it.
        """
        column = self._column(table)
        if column.pids is None and column.plan is not None:
            self._fill(column)
        return column.pids

    def pid_of(self, table: str, key: KeyValue) -> int:
        """Partition id of the tuple *key*, live or not.

        ``0`` replicated, :data:`UNROUTABLE` when no root value is found.
        """
        column = self._column(table)
        plan = column.plan
        if plan is None:
            return REPLICATED
        if column.pids is not None:
            pid = column.pids.get(key)
            if pid is not None:
                return pid
        pid = column.walked.get(key)
        if pid is None:
            pid = column.walked[key] = self._pid(column, plan.value(key))
        return pid

    def generation(self, table: str) -> int:
        """How often *table*'s column was filled again (after a read that
        refills it if it is out of step): views built over it compare this."""
        return self._column(table).generation

    def in_step(self, table: str) -> bool:
        """True when *table*'s column exists and saw every write it reads."""
        column = self._columns.get(table)
        return column is not None and column.in_step()

    def held(self, table: str) -> dict[KeyValue, int] | None:
        """:meth:`pids` as the column stands, in step or not: a refill
        would have the subscribers repair what a read-only check seeks."""
        column = self._columns.get(table) or self._column(table)
        if column.pids is None and column.plan is not None:
            self._fill(column)
        return column.pids

    def _column(self, table: str) -> _Column:
        column = self._columns.get(table)
        if column is None:
            column = _Column(self.partitioning.solution_for(table), self._rows)
            self._columns[table] = column
            if self._journal is not None:
                # filled from uncommitted rows: an abort fills it again
                self._journal[table] = None
            for name in column.slots:
                self._readers.setdefault(name, []).append(column)
            return column
        for source, version in zip(column.tables, column.versions):
            if source.version != version:  # in_step, inlined: a hot path
                self._refill(column)
                break
        return column

    # ------------------------------------------------------------------
    # placing
    # ------------------------------------------------------------------
    def _pid(self, column: _Column, value: Any) -> int:
        self.pid_computations += 1
        pid = column.value_pids.get(value)
        if pid is None:
            assert column.solution.mapping is not None
            pid = column.value_pids[value] = column.solution.mapping(value)
        return pid

    def _fill(self, column: _Column) -> None:
        """Place every live row of the column's table in one pass."""
        solution = column.solution
        assert column.plan is not None and solution.mapping is not None
        row_value = column.plan.row_value
        mapping, value_pids = solution.mapping, column.value_pids
        pids: dict[KeyValue, int] = {}
        for key, row in column.tables[0].items():
            value = row_value(key, row)
            pid = value_pids.get(value)
            if pid is None:
                pid = value_pids[value] = mapping(value)
            pids[key] = pid
        self.pid_computations += len(pids)
        column.pids = pids
        column.unplaced = {k for k, pid in pids.items() if pid == UNROUTABLE}

    def _set(self, column: _Column, key: KeyValue, pid: int | None) -> None:
        """Give the live row *key* its *pid* (``None``: no longer live)."""
        pids = column.pids
        assert pids is not None
        if self._journal is not None:
            self._note(column.name, key, pids.get(key))
        if pid is None:
            del pids[key]
            column.unplaced.discard(key)
            return
        pids[key] = pid
        if pid == UNROUTABLE:
            column.unplaced.add(key)
        else:
            column.unplaced.discard(key)

    def _note(self, table: str, key: KeyValue, pid: int | None) -> None:
        """Journal *key*'s pid before the transaction, once."""
        assert self._journal is not None
        entries = self._journal.setdefault(table, {})
        if entries is not None and key not in entries:
            entries[key] = pid

    def _refill(self, column: _Column) -> None:
        if self._journal is not None:
            self._journal[column.name] = None  # the abort fills it again
        column.generation += 1
        column.versions = [table.version for table in column.tables]
        if column.plan is not None:
            column.plan.tail_memo.clear()
            column.walked.clear()
            if column.pids is not None:
                self._fill(column)
        for subscriber in tuple(self._subscribers.get(column.name, ())):
            subscriber.placement_reset(column.name)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _on_write(
        self,
        name: str,
        op: str,
        key: KeyValue,
        old: Row | None,
        new: Row | None,
    ) -> None:
        readers = self._readers.get(name)
        if not readers:
            return
        table = self._rows.table(name)
        version = table.version
        for column in tuple(readers):
            slot = column.slots[name]
            if column.versions[slot] != version - 1:
                continue  # already out of step: the next read refills it
            column.versions[slot] = version
            if column.pids is None and column.plan is not None:
                # not filled: only the memoized walks can be out of date
                column.plan.tail_memo.clear()
                column.walked.clear()
                continue
            if column.name == name:
                self._place_written(column, op, key, old, new)
            if name in column.solution.hop_targets:
                effect = column.solution.mutation_effect(
                    table.schema, op, old, new
                )
                if effect is not PathEffect.NONE:
                    self._replace(column, effect)

    def _place_written(
        self,
        column: _Column,
        op: str,
        key: KeyValue,
        old: Row | None,
        new: Row | None,
    ) -> None:
        """Place the row a write to the column's own table touched."""
        pids = column.pids
        if pids is None:
            old_pid = None if op == "insert" else REPLICATED
            new_pid = None if op == "delete" else REPLICATED
        elif op == "delete":
            old_pid, new_pid = pids[key], None
            self._set(column, key, None)
            # The tombstone holds the row's last values: same walk.
            column.walked[key] = old_pid
        else:
            assert column.plan is not None
            old_pid = pids.get(key) if op == "update" else None
            new_pid = self._pid(column, column.plan.row_value(key, new))
            self._set(column, key, new_pid)
            column.walked.pop(key, None)
        self._emit(column.name, op, key, old, new, old_pid, new_pid)

    def _replace(self, column: _Column, effect: PathEffect) -> None:
        """Walk the column's rows again after a write to a hop target.

        ``ALL`` re-places every live row, ``UNPLACED`` only the rows that
        had no root value. Walks memoized before the write are dropped.
        """
        pids = column.pids
        assert pids is not None and column.plan is not None
        column.plan.tail_memo.clear()
        column.walked.clear()
        source = column.tables[0]
        if effect is PathEffect.ALL:
            items: Any = source.items()
        else:
            items = [(key, source.get(key)) for key in column.unplaced]
        row_value = column.plan.row_value
        moved = []
        for key, row in items:
            pid = self._pid(column, row_value(key, row))
            if pid != pids[key]:
                moved.append((key, row, pids[key], pid))
        for key, row, old_pid, pid in moved:
            self._set(column, key, pid)
            self._emit(column.name, MOVE, key, row, row, old_pid, pid)

    def _emit(self, table: str, *change: Any) -> None:
        """Pass one :meth:`PlacementSubscriber.placement_changed` on."""
        for subscriber in tuple(self._subscribers.get(table, ())):
            subscriber.placement_changed(table, *change)
