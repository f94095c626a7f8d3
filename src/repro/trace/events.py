"""Trace data model: tuple accesses, transactions, and whole traces.

An access record is a plain ``(table, key, write)`` tuple, read by
position everywhere; :class:`TupleAccess` builds one by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

KeyValue = tuple  # primary-key value tuple
Access = tuple[str, KeyValue, bool]


class TupleAccess(NamedTuple):
    """One tuple touched by a transaction.

    Matches the paper's trace record: table name, primary key, and whether
    the access was a read or an update (Section 7.1). It compares equal
    to the plain ``(table, key, write)`` tuple the executor records.
    """

    table: str
    key: KeyValue
    write: bool = False

    def __str__(self) -> str:
        mode = "W" if self.write else "R"
        return f"{mode} {self.table}{self.key}"


@dataclass
class TransactionTrace:
    """All tuple accesses of one executed transaction (Definition 1).

    ``arguments`` optionally carries the stored-procedure invocation
    parameters the transaction ran with. The partitioning search never
    reads them, but they turn a testing trace into a replayable *call log*
    for the routing tier (``Trace.calls``).
    """

    txn_id: int
    class_name: str
    accesses: list[Access] = field(default_factory=list)
    arguments: dict | None = None

    def record(self, table: str, key: KeyValue, write: bool) -> None:
        self.accesses.append((table, tuple(key), write))

    @property
    def tuples(self) -> set[tuple[str, KeyValue]]:
        """Distinct (table, key) pairs accessed (the R ∪ W set)."""
        return {(table, key) for table, key, _ in self.accesses}

    @property
    def read_set(self) -> set[tuple[str, KeyValue]]:
        return {(table, key) for table, key, write in self.accesses if not write}

    @property
    def write_set(self) -> set[tuple[str, KeyValue]]:
        return {(table, key) for table, key, write in self.accesses if write}

    @property
    def tables(self) -> set[str]:
        return {table for table, _, _ in self.accesses}

    def __len__(self) -> int:
        return len(self.accesses)


class Trace:
    """A bag of executed transactions.

    When every transaction comes from the same stored procedure the trace is
    a *homogeneous workload*; :meth:`is_homogeneous` checks that.
    """

    def __init__(self, transactions: Sequence[TransactionTrace] = ()) -> None:
        self.transactions: list[TransactionTrace] = list(transactions)

    def append(self, txn: TransactionTrace) -> None:
        self.transactions.append(txn)

    def extend(self, txns: Sequence[TransactionTrace]) -> None:
        self.transactions.extend(txns)

    @property
    def class_names(self) -> list[str]:
        """Distinct transaction-class names, in first-seen order."""
        seen: dict[str, None] = {}
        for txn in self.transactions:
            seen.setdefault(txn.class_name, None)
        return list(seen)

    def is_homogeneous(self) -> bool:
        return len(self.class_names) <= 1

    def calls(self) -> list[tuple[str, dict]]:
        """The trace as a router-ready call log.

        One ``(procedure_name, arguments)`` pair per transaction that
        recorded its invocation arguments; transactions collected without
        arguments (e.g. traces loaded from old files) are skipped.
        """
        return [
            (txn.class_name, txn.arguments)
            for txn in self.transactions
            if txn.arguments is not None
        ]

    def tables(self) -> set[str]:
        """All tables touched anywhere in the trace."""
        out: set[str] = set()
        for txn in self.transactions:
            out |= txn.tables
        return out

    def distinct_tuples(self) -> set[tuple[str, KeyValue]]:
        out: set[tuple[str, KeyValue]] = set()
        for txn in self.transactions:
            out |= txn.tuples
        return out

    def __iter__(self) -> Iterator[TransactionTrace]:
        return iter(self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)

    def __repr__(self) -> str:
        return f"Trace(transactions={len(self.transactions)}, classes={self.class_names})"
