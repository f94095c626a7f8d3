"""Unit tests for the in-memory storage engine."""

import pytest

from repro.errors import IntegrityError, StorageError
from repro.schema import DatabaseSchema, integer_table
from repro.storage import Database, Table


@pytest.fixture
def table() -> Table:
    return Table(integer_table("T", ["A", "B", "C"], ["A", "B"]))


class TestTable:
    def test_insert_and_get(self, table):
        key = table.insert({"A": 1, "B": 2, "C": 3})
        assert key == (1, 2)
        assert table.get((1, 2))["C"] == 3
        assert table.get((9, 9)) is None

    def test_duplicate_key_rejected(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        with pytest.raises(StorageError):
            table.insert({"A": 1, "B": 2, "C": 9})

    def test_insert_missing_pk_rejected(self, table):
        with pytest.raises(StorageError):
            table.insert({"A": 1, "C": 3})

    def test_insert_validate_flag(self, table):
        with pytest.raises(Exception):
            table.insert({"A": 1, "B": 2, "C": "nope"}, validate=True)

    def test_update(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        row = table.update((1, 2), {"C": 9})
        assert row["C"] == 9
        assert table.get((1, 2))["C"] == 9

    def test_update_missing_row(self, table):
        with pytest.raises(StorageError):
            table.update((1, 2), {"C": 9})

    def test_update_pk_column_rejected(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        with pytest.raises(StorageError):
            table.update((1, 2), {"A": 5})

    def test_update_unknown_column_rejected(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        with pytest.raises(StorageError):
            table.update((1, 2), {"Z": 5})

    def test_delete(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        row = table.delete((1, 2))
        assert row["C"] == 3
        assert table.get((1, 2)) is None
        with pytest.raises(StorageError):
            table.delete((1, 2))

    def test_graveyard_snapshot(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        table.delete((1, 2))
        snapshot = table.get_snapshot((1, 2))
        assert snapshot is not None and snapshot["C"] == 3

    def test_reinsert_clears_graveyard(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        table.delete((1, 2))
        table.insert({"A": 1, "B": 2, "C": 7})
        assert table.get_snapshot((1, 2))["C"] == 7

    def test_get_snapshots(self, table):
        for a in (1, 2, 3):
            table.insert({"A": a, "B": 0, "C": a * 10})
        table.delete((2, 0))  # a tombstone
        table.delete((3, 0))
        table.insert({"A": 3, "B": 0, "C": 99})  # its tombstone is gone
        live, dead, absent, again = table.get_snapshots(
            [(1, 0), (2, 0), (9, 9), (3, 0)]
        )
        assert live is table.get((1, 0)) and live["C"] == 10
        assert dead == {"A": 2, "B": 0, "C": 20}
        assert absent is None
        assert again is table.get((3, 0)) and again["C"] == 99
        assert table.get_snapshots([]) == []
        assert table.get_snapshots([(1, 0), (1, 0)]) == [live, live]

    def test_lookup_by_primary_key(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        rows = table.lookup(("A", "B"), (1, 2))
        assert len(rows) == 1 and rows[0]["C"] == 3
        assert table.lookup(("A", "B"), (8, 8)) == []

    def test_lookup_builds_secondary_index(self, table):
        for i in range(5):
            table.insert({"A": i, "B": 0, "C": i % 2})
        rows = table.lookup(("C",), (0,))
        assert {r["A"] for r in rows} == {0, 2, 4}

    def test_index_maintained_on_update(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        table.ensure_index(("C",))
        table.update((1, 2), {"C": 4})
        assert table.lookup(("C",), (3,)) == []
        assert len(table.lookup(("C",), (4,))) == 1

    def test_index_maintained_on_delete(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        table.ensure_index(("C",))
        table.delete((1, 2))
        assert table.lookup(("C",), (3,)) == []

    def test_index_maintained_on_insert_after_creation(self, table):
        table.ensure_index(("C",))
        table.insert({"A": 1, "B": 2, "C": 3})
        assert len(table.lookup(("C",), (3,))) == 1

    def test_ensure_index_unknown_column(self, table):
        with pytest.raises(StorageError):
            table.ensure_index(("Z",))

    def test_scan_with_predicate(self, table):
        for i in range(4):
            table.insert({"A": i, "B": 0, "C": i})
        assert len(list(table.scan())) == 4
        assert len(list(table.scan(lambda r: r["C"] >= 2))) == 2

    def test_len_and_keys(self, table):
        table.insert({"A": 1, "B": 2, "C": 3})
        assert len(table) == 1
        assert list(table.keys()) == [(1, 2)]


def _prepared(schema_table):
    """A table with an index, a listener, a live row and two tombstones."""
    table = Table(schema_table)
    calls = []
    table.ensure_index(["C"])
    table.add_listener(lambda *event: calls.append(event))
    for a in (1, 2, 3):
        table.insert({"A": a, "B": 0, "C": a % 2})
    table.delete((1, 0))
    table.delete((2, 0))
    return table, calls


def _state(table, calls):
    return (
        dict(table.items()),
        table.version,
        dict(table._graveyard),
        {c: table.lookup(["C"], [c]) for c in (0, 1, 5, 7)},
        calls,
    )


class TestInsert:
    """What one insert does to a table holding indexes, listeners and
    tombstones, and that a rejected insert does none of it."""

    def test_replaces_the_tombstone_and_hands_out_copies(self, table):
        table, calls = _prepared(table.schema)
        version = table.version
        row = {"A": 1, "B": 0, "C": 5}
        assert table.insert(row) == (1, 0)
        assert table.version == version + 1
        assert table.get((1, 0)) == row and table.get((1, 0)) is not row
        assert (1, 0) not in table._graveyard
        assert table.get_snapshot((2, 0)) == {"A": 2, "B": 0, "C": 0}
        assert table.lookup(["C"], [5]) == [row]
        # the listener hears the tombstone it replaced, and its own copies
        op, key, old, new = calls[-1]
        assert (op, key, new) == ("insert", (1, 0), row)
        assert old == {"A": 1, "B": 0, "C": 1}
        assert new is not table.get((1, 0))

    @pytest.mark.parametrize(
        "row", [{"A": 3, "B": 0, "C": 7}, {"A": 4, "C": 7}], ids=["dup", "no-key"]
    )
    def test_a_rejected_row_changes_nothing(self, table, row):
        table, calls = _prepared(table.schema)
        before = _state(table, list(calls))
        with pytest.raises(StorageError):
            table.insert(row)
        assert _state(table, calls) == before


class TestDatabase:
    def make(self) -> Database:
        schema = DatabaseSchema("d")
        schema.add_table(integer_table("A", ["A_ID"], ["A_ID"]))
        schema.add_table(integer_table("B", ["B_ID", "B_A_ID"], ["B_ID"]))
        schema.add_foreign_key("B", ["B_A_ID"], "A", ["A_ID"])
        return Database(schema)

    def test_table_access(self):
        database = self.make()
        assert database.table("A").schema.name == "A"
        with pytest.raises(StorageError):
            database.table("Z")

    def test_crud_shortcuts(self):
        database = self.make()
        database.insert("A", {"A_ID": 1})
        assert database.get("A", (1,)) == {"A_ID": 1}
        database.insert("B", {"B_ID": 1, "B_A_ID": 1})
        database.update("B", (1,), {"B_A_ID": 1})
        database.delete("B", (1,))
        assert database.get("B", (1,)) is None

    def test_writes_counts_every_version_bump(self):
        database = self.make()
        a, b = database.table("A"), database.table("B")

        def in_step():
            return database.writes == a.version + b.version

        assert database.writes == 0
        assert database.insert("A", {"A_ID": 1}) == (1,)
        database.insert("B", {"B_ID": 1, "B_A_ID": 1})
        database.insert("B", {"B_ID": 2, "B_A_ID": 1})
        assert database.writes == 3 and in_step()
        with pytest.raises(StorageError):
            database.insert("A", {"A_ID": 1})
        with pytest.raises(StorageError):
            database.insert("A", {})
        database.get("A", (1,))
        assert database.writes == 3
        database.update("B", (1,), {"B_A_ID": None})
        database.delete("B", (2,))
        b.restore_tombstone((2,), None)
        assert database.writes == 6 and in_step()

    def test_row_count(self):
        database = self.make()
        database.insert("A", {"A_ID": 1})
        database.insert("B", {"B_ID": 1, "B_A_ID": 1})
        assert database.row_count() == 2

    def test_integrity_ok(self):
        database = self.make()
        database.insert("A", {"A_ID": 1})
        database.insert("B", {"B_ID": 1, "B_A_ID": 1})
        database.check_integrity()

    def test_integrity_violation(self):
        database = self.make()
        database.insert("B", {"B_ID": 1, "B_A_ID": 99})
        with pytest.raises(IntegrityError):
            database.check_integrity()

    def test_integrity_allows_null_fk(self):
        database = self.make()
        database.insert("B", {"B_ID": 1, "B_A_ID": None})
        database.check_integrity()

    def test_figure1_data(self, figure1_db):
        assert len(figure1_db.table("TRADE")) == 8
        assert len(figure1_db.table("HOLDING_SUMMARY")) == 8
        figure1_db.check_integrity()
