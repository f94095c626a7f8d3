"""A single in-memory table with primary and secondary hash indexes."""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import StorageError
from repro.schema.table import TableSchema

Row = dict[str, Any]
KeyValue = tuple[Any, ...]

#: Mutation listener: ``(op, key, old_row, new_row)`` where *op* is one of
#: ``"insert"`` / ``"update"`` / ``"delete"``. ``new_row`` is ``None`` for
#: deletes. An insert's ``old_row`` is the tombstone it replaced — the last
#: version of a deleted row with the same key — or ``None`` when the key
#: has no tombstone. Both rows are the listener's to keep: the table holds
#: no reference to them, so later in-place edits never show through.
MutationListener = Callable[[str, KeyValue, Row | None, Row | None], None]


class WriteCounter:
    """Writes made to a group of tables, all of them together.

    A :class:`~repro.storage.database.Database` shares one with each of
    its tables, so "was anything written?" is one integer compare however
    many tables there are.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class Table:
    """Row store for one table.

    * The primary index maps the primary-key value tuple to the row dict.
    * Secondary hash indexes (created lazily via :meth:`ensure_index`) map a
      column tuple's values to the list of matching primary keys; they are
      maintained on insert/update/delete.

    Rows handed out by lookups are the live dicts; callers mutate them only
    through :meth:`update` so indexes stay consistent.
    """

    def __init__(
        self, schema: TableSchema, writes: WriteCounter | None = None
    ) -> None:
        self.schema = schema
        # the primary-key tuple of a row: one getter, built once
        self._key_columns = itemgetter(*schema.primary_key)
        self._single_key = len(schema.primary_key) == 1
        self._rows: dict[KeyValue, Row] = {}
        self._version = 0
        #: bumped with ``_version``; shared with the table's database
        self._writes = writes if writes is not None else WriteCounter()
        self._indexes: dict[tuple[str, ...], dict[KeyValue, list[KeyValue]]] = {}
        # Last version of deleted rows. Join-path evaluation happens after
        # the trace was collected, but the paper's instrumentation captures
        # values at access time; tombstones preserve that information for
        # tuples that were deleted later (e.g. TPC-C NEW_ORDER rows).
        self._graveyard: dict[KeyValue, Row] = {}
        self._listeners: list[MutationListener] = []

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def primary_key_of(self, row: Mapping[str, Any]) -> KeyValue:
        """Extract the primary-key value tuple from a row mapping."""
        try:
            return tuple(row[c] for c in self.schema.primary_key)
        except KeyError as exc:
            raise StorageError(
                f"row missing primary-key column {exc} for table {self.schema.name}"
            ) from None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, row: Mapping[str, Any], validate: bool = False) -> KeyValue:
        """Insert a full row; returns its primary key.

        Raises :class:`StorageError` on duplicate primary key.
        """
        if validate:
            self.schema.validate_row(row)
        stored: Row = dict(row)
        try:
            key = self._key_columns(stored)
        except KeyError:
            key = self.primary_key_of(stored)  # raises StorageError
        if self._single_key:
            key = (key,)
        if key in self._rows:
            raise StorageError(
                f"duplicate primary key {key} in table {self.schema.name}"
            )
        self._version += 1
        self._writes.count += 1
        self._rows[key] = stored
        tombstone = self._graveyard.pop(key, None)
        for columns, index in self._indexes.items():
            index.setdefault(tuple(stored[c] for c in columns), []).append(key)
        if self._listeners:
            self._notify("insert", key, tombstone, dict(stored))
        return key

    def update(self, key: KeyValue, changes: Mapping[str, Any]) -> Row:
        """Apply *changes* to the row with primary key *key*.

        Primary-key columns cannot be changed; delete + insert instead.
        """
        row = self.get(key)
        if row is None:
            raise StorageError(f"no row {key} in table {self.schema.name}")
        for col in changes:
            if col in self.schema.primary_key:
                raise StorageError(
                    f"cannot update primary-key column {col} of {self.schema.name}"
                )
            if not self.schema.has_column(col):
                raise StorageError(f"no column {col} in table {self.schema.name}")
        old_row = dict(row) if self._listeners else None
        for columns, index in self._indexes.items():
            if any(c in changes for c in columns):
                old_val = tuple(row[c] for c in columns)
                bucket = index.get(old_val, [])
                if key in bucket:
                    bucket.remove(key)
                    if not bucket:
                        del index[old_val]
        self._version += 1
        self._writes.count += 1
        row.update(changes)
        for columns, index in self._indexes.items():
            if any(c in changes for c in columns):
                index.setdefault(tuple(row[c] for c in columns), []).append(key)
        if self._listeners:
            self._notify("update", key, old_row, dict(row))
        return row

    def delete(self, key: KeyValue) -> Row:
        """Remove and return the row with primary key *key*."""
        row = self._rows.pop(key, None)
        if row is None:
            raise StorageError(f"no row {key} in table {self.schema.name}")
        self._version += 1
        self._writes.count += 1
        self._graveyard[key] = dict(row)
        for columns, index in self._indexes.items():
            val = tuple(row[c] for c in columns)
            bucket = index.get(val, [])
            if key in bucket:
                bucket.remove(key)
                if not bucket:
                    del index[val]
        if self._listeners:
            self._notify("delete", key, dict(row), None)
        return row

    def restore_tombstone(
        self, key: KeyValue, row: Mapping[str, Any] | None
    ) -> None:
        """Make *row* the tombstone of the deleted key *key* again.

        ``None`` leaves the key with no tombstone. Undoing an insert is a
        delete followed by this call, so the key ends with the tombstone the
        insert replaced, not the aborted row. Listeners are not called (no
        live row changes); the version bump makes every version-checked
        view over the table rebuild.
        """
        key = tuple(key)
        if key in self._rows:
            raise StorageError(
                f"cannot set a tombstone for live row {key} in table "
                f"{self.schema.name}"
            )
        self._version += 1
        self._writes.count += 1
        if row is None:
            self._graveyard.pop(key, None)
        else:
            self._graveyard[key] = dict(row)

    # ------------------------------------------------------------------
    # mutation listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener: MutationListener) -> None:
        """Call *listener* after every committed insert/update/delete.

        Listeners fire after the table (rows, indexes, version counter) is
        fully updated, so they can re-read the table's new state. They are
        the write-through feed of the routing tier's lookup tables; the
        version counter stays the cheap fallback for holders that were not
        subscribed while mutations happened.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener: MutationListener) -> None:
        """Detach *listener*; unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(
        self, op: str, key: KeyValue, old: Row | None, new: Row | None
    ) -> None:
        for listener in tuple(self._listeners):
            listener(op, key, old, new)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, key: KeyValue) -> Row | None:
        """Fetch a row by primary-key tuple (``None`` if absent)."""
        return self._rows.get(tuple(key))

    def get_snapshot(self, key: KeyValue) -> Row | None:
        """Live row, or the last version of a deleted row (tombstone)."""
        key = tuple(key)
        row = self._rows.get(key)
        if row is not None:
            return row
        return self._graveyard.get(key)

    def get_snapshots(self, keys: Iterable[KeyValue]) -> list[Row | None]:
        """:meth:`get_snapshot` for each primary-key tuple of *keys*."""
        live = self._rows.get
        dead = self._graveyard.get
        rows: list[Row | None] = []
        append = rows.append
        for key in keys:  # a loop: a comprehension would need a closure
            row = live(key)
            append(row if row is not None else dead(key))
        return rows

    def ensure_index(self, columns: Sequence[str]) -> None:
        """Create a secondary hash index over *columns* if not present."""
        cols = tuple(columns)
        if cols in self._indexes:
            return
        for col in cols:
            if not self.schema.has_column(col):
                raise StorageError(f"no column {col} in table {self.schema.name}")
        index: dict[KeyValue, list[KeyValue]] = {}
        for key, row in self._rows.items():
            index.setdefault(tuple(row[c] for c in cols), []).append(key)
        self._indexes[cols] = index

    def lookup(self, columns: Sequence[str], values: Sequence[Any]) -> list[Row]:
        """All rows with ``row[columns[i]] == values[i]`` for every i.

        Uses the primary index when *columns* is the primary key, a
        secondary index when one exists (building it on first use), and a
        full scan otherwise.
        """
        cols = tuple(columns)
        vals = tuple(values)
        if cols == self.schema.primary_key:
            row = self._rows.get(vals)
            return [row] if row is not None else []
        if cols not in self._indexes:
            self.ensure_index(cols)
        keys = self._indexes[cols].get(vals, [])
        return [self._rows[k] for k in keys]

    def scan(self, predicate: Callable[[Row], bool] | None = None) -> Iterator[Row]:
        """Iterate over all rows, optionally filtered."""
        if predicate is None:
            yield from self._rows.values()
        else:
            for row in self._rows.values():
                if predicate(row):
                    yield row

    @property
    def version(self) -> int:
        """Mutation counter; bumps on insert/update/delete and
        :meth:`restore_tombstone`, as does the database's
        :attr:`~repro.storage.database.Database.writes`.

        Lets views over the table (the placement store's columns) detect
        writes they were not told about with one integer compare.
        """
        return self._version

    def keys(self) -> Iterable[KeyValue]:
        return self._rows.keys()

    def items(self) -> Iterable[tuple[KeyValue, Row]]:
        """Live ``(primary key, row)`` pairs; the rows are the live dicts."""
        return self._rows.items()

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.schema.name}, rows={len(self._rows)})"
