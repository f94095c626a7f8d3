"""Database instance: tables of one schema plus integrity checking."""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.errors import IntegrityError, StorageError
from repro.schema.database import DatabaseSchema
from repro.storage.table import KeyValue, Row, Table, WriteCounter


class Database:
    """All tables of a :class:`DatabaseSchema`, materialized in memory.

    The benchmark loaders fill a :class:`Database`; the query executor and
    the join-path evaluator read from it. Foreign-key lookups along join
    paths are frequent, so a secondary index is pre-built for every foreign
    key's referenced columns that are not already a primary key.
    """

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._writes = WriteCounter()
        self._tables: dict[str, Table] = {
            t.name: Table(t, self._writes) for t in schema.tables
        }
        for fk in schema.foreign_keys():
            ref = self._tables[fk.ref_table]
            if tuple(fk.ref_columns) != ref.schema.primary_key:
                ref.ensure_index(fk.ref_columns)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"no table {name!r} in database") from None

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def row_count(self) -> int:
        """Total number of rows across all tables."""
        return sum(len(t) for t in self._tables.values())

    @property
    def writes(self) -> int:
        """Writes made to any table so far: every bump of a
        :attr:`Table.version <repro.storage.table.Table.version>` bumps it
        too, so a holder of derived state can tell "nothing was written"
        with one integer compare."""
        return self._writes.count

    def get(self, table: str, key: Sequence[Any]) -> Row | None:
        return self.table(table).get(tuple(key))

    # ------------------------------------------------------------------
    # mutation convenience
    # ------------------------------------------------------------------
    def insert(self, table: str, row: Mapping[str, Any]) -> KeyValue:
        return self.table(table).insert(row)

    def update(self, table: str, key: Sequence[Any], changes: Mapping[str, Any]) -> Row:
        return self.table(table).update(tuple(key), changes)

    def delete(self, table: str, key: Sequence[Any]) -> Row:
        return self.table(table).delete(tuple(key))

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def check_integrity(self) -> None:
        """Verify every foreign-key value resolves to a referenced row.

        NULL foreign-key values are allowed (the reference is simply
        absent). Raises :class:`IntegrityError` on the first violation.
        """
        for fk in self.schema.foreign_keys():
            src = self.table(fk.table)
            dst = self.table(fk.ref_table)
            for row in src.scan():
                values = tuple(row[c] for c in fk.columns)
                if any(v is None for v in values):
                    continue
                if not dst.lookup(fk.ref_columns, values):
                    raise IntegrityError(
                        f"dangling foreign key {fk}: value {values} has no target"
                    )

    def __repr__(self) -> str:
        return f"Database({self.schema.name!r}, rows={self.row_count()})"
