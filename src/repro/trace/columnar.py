"""Columnar trace representation: interned tuples, flat integer streams.

The object trace (:class:`~repro.trace.events.Trace`) is convenient to
collect but expensive to search: every mapping-independence test re-walks
lists of :class:`TupleAccess` objects. This module interns each distinct
``(table, key)`` pair into a dense integer *tuple id* once, and stores
each transaction class's stream as flat numpy int columns:

``offsets``
    CSR-style transaction boundaries into the access stream
    (``offsets[i]:offsets[i+1]`` is transaction *i*'s accesses).
``tuple_ids`` / ``write_bits``
    One entry per access: the interned tuple id and the read/write flag.
``uoffsets`` / ``utuple_ids``
    The same stream deduplicated *within* each transaction, in first-access
    order — exactly the ``txn.tuples`` set the mapping-independence
    definition quantifies over.

A :class:`ColumnarTrace` is built once from a :class:`Trace` at the start
of Phase 2; every class search and Phase 3's cost evaluation read it.

:class:`ColumnarClassTrace` views stay interchangeable with ``Trace``
where Phase 2 needs object semantics (greedy table elimination and the
statistics fallback iterate ``txn.tuples`` on the *original* transaction
objects), so those code paths stay bit-identical to the object scan by
construction.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.trace.events import KeyValue, Trace, TransactionTrace, TupleAccess

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table


class ColumnarClassTrace:
    """One transaction class's stream as flat integer columns.

    Iterable like a :class:`Trace` (yielding the original
    :class:`TransactionTrace` objects) so object-semantics code paths keep
    working.
    """

    def __init__(
        self,
        parent: "ColumnarTrace",
        class_name: str,
        txn_ids,
        offsets,
        tuple_ids,
        write_bits,
        uoffsets,
        utuple_ids,
        txns: list[TransactionTrace],
    ) -> None:
        self.parent = parent
        self.class_name = class_name
        self.txn_ids = txn_ids
        self.offsets = offsets
        self.tuple_ids = tuple_ids
        self.write_bits = write_bits
        self.uoffsets = uoffsets
        self.utuple_ids = utuple_ids
        self._txns = txns

    # ------------------------------------------------------------------
    # Trace-compatible object view
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def transactions(self) -> list[TransactionTrace]:
        return self._txns

    def __iter__(self) -> Iterator[TransactionTrace]:
        return iter(self.transactions)

    @property
    def class_names(self) -> list[str]:
        return [self.class_name] if len(self) else []

    def is_homogeneous(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # splitting (train/test halves for the statistics fallback)
    # ------------------------------------------------------------------
    def split(
        self, train_fraction: float = 0.5
    ) -> tuple["ColumnarClassTrace", "ColumnarClassTrace"]:
        """Deterministic train/test halves.

        Mirrors :func:`repro.trace.splitter.train_test_split` accumulator
        for accumulator, so both representations select the same
        transactions.
        """
        if not 0.0 < train_fraction < 1.0:
            raise WorkloadError("train_fraction must be strictly between 0 and 1")
        train_idx: list[int] = []
        test_idx: list[int] = []
        acc = 0.0
        for i in range(len(self)):
            acc += train_fraction
            if acc >= 1.0 - 1e-9:
                acc -= 1.0
                train_idx.append(i)
            else:
                test_idx.append(i)
        return self._subset(train_idx), self._subset(test_idx)

    def _subset(self, indices: list[int]) -> "ColumnarClassTrace":
        offsets = self.offsets
        uoffsets = self.uoffsets

        def gather(offs, ids, bits=None):
            spans = [np.arange(int(offs[i]), int(offs[i + 1])) for i in indices]
            flat = (
                np.concatenate(spans)
                if spans
                else np.empty(0, dtype=np.int64)
            )
            new_offs = np.zeros(len(indices) + 1, dtype=np.int64)
            for n, i in enumerate(indices):
                new_offs[n + 1] = new_offs[n] + int(offs[i + 1]) - int(offs[i])
            picked_bits = bits[flat] if bits is not None else None
            return new_offs, ids[flat], picked_bits

        new_offsets, new_ids, new_bits = gather(
            offsets, self.tuple_ids, self.write_bits
        )
        new_uoffsets, new_uids, _ = gather(uoffsets, self.utuple_ids)
        txns = [self._txns[i] for i in indices]
        txn_ids = self.txn_ids[np.asarray(indices, dtype=np.int64)] if indices else (
            self.txn_ids[:0]
        )
        return ColumnarClassTrace(
            self.parent,
            self.class_name,
            txn_ids,
            new_offsets,
            new_ids,
            new_bits,
            new_uoffsets,
            new_uids,
            txns=txns,
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarClassTrace({self.class_name!r}, txns={len(self)}, "
            f"accesses={len(self.tuple_ids)})"
        )


class _ClassBuilder:
    """Per-class accumulation state during interning."""

    __slots__ = ("txn_ids", "txns", "offsets", "ids", "writes", "uoffsets", "uids")

    def __init__(self) -> None:
        self.txn_ids: list[int] = []
        self.txns: list[TransactionTrace] = []
        self.offsets: list[int] = [0]
        self.ids: list[int] = []
        self.writes: list[int] = []
        self.uoffsets: list[int] = [0]
        self.uids: list[int] = []


class ColumnarTrace:
    """A whole trace with every ``(table, key)`` interned to a dense id.

    Tuple ids are global across tables; ``tuple_table``/``tuple_local``
    map an id back to its table and its position in that table's
    ``keys_of`` list (local key ids are dense per table, in first-seen
    order, so per-table result arrays index directly by local id).
    """

    def __init__(self) -> None:
        self.tables: list[str] = []
        self.table_ids: dict[str, int] = {}
        self.keys_of: list[list[KeyValue]] = []
        self.ids_by_table: list[Any] = []
        self.tuple_table: Any = None
        self.tuple_local: Any = None
        self.views: dict[str, ColumnarClassTrace] = {}
        self.n_transactions = 0
        self.n_accesses = 0
        self.build_seconds = 0.0
        self.intern_seconds = 0.0
        #: the object trace this was built from (identity is used to route
        #: cost evaluation through the columnar kernel).
        self.source: Trace | None = None
        self._key_gids: list[dict[KeyValue, int]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        started = time.perf_counter()
        self = cls()
        self.source = trace
        table_ids = self.table_ids
        tables = self.tables
        keys_of = self.keys_of
        key_gids = self._key_gids
        tuple_table: list[int] = []
        tuple_local: list[int] = []
        gids_by_table: list[list[int]] = []
        builders: dict[str, _ClassBuilder] = {}

        for txn in trace:
            builder = builders.get(txn.class_name)
            if builder is None:
                builder = builders[txn.class_name] = _ClassBuilder()
            builder.txn_ids.append(txn.txn_id)
            builder.txns.append(txn)
            seen: set[int] = set()
            for access in txn.accesses:
                tid = table_ids.get(access.table)
                if tid is None:
                    tid = len(tables)
                    table_ids[access.table] = tid
                    tables.append(access.table)
                    keys_of.append([])
                    key_gids.append({})
                    gids_by_table.append([])
                interned = key_gids[tid]
                gid = interned.get(access.key)
                if gid is None:
                    gid = len(tuple_table)
                    interned[access.key] = gid
                    tuple_local.append(len(keys_of[tid]))
                    keys_of[tid].append(access.key)
                    gids_by_table[tid].append(gid)
                    tuple_table.append(tid)
                builder.ids.append(gid)
                builder.writes.append(1 if access.write else 0)
                if gid not in seen:
                    seen.add(gid)
                    builder.uids.append(gid)
            builder.offsets.append(len(builder.ids))
            builder.uoffsets.append(len(builder.uids))
        self.intern_seconds = time.perf_counter() - started

        self.tuple_table = np.asarray(tuple_table, dtype=np.int64)
        self.tuple_local = np.asarray(tuple_local, dtype=np.int64)
        self.ids_by_table = [
            np.asarray(gids, dtype=np.int64) for gids in gids_by_table
        ]
        for name, builder in builders.items():
            view = ColumnarClassTrace(
                self,
                name,
                np.asarray(builder.txn_ids, dtype=np.int64),
                np.asarray(builder.offsets, dtype=np.int64),
                np.asarray(builder.ids, dtype=np.int64),
                np.asarray(builder.writes, dtype=np.uint8),
                np.asarray(builder.uoffsets, dtype=np.int64),
                np.asarray(builder.uids, dtype=np.int64),
                txns=builder.txns,
            )
            self.views[name] = view
            self.n_transactions += len(view)
            self.n_accesses += len(view.tuple_ids)
        self.build_seconds = time.perf_counter() - started
        return self

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def n_tuples(self) -> int:
        return 0 if self.tuple_table is None else len(self.tuple_table)

    @property
    def class_names(self) -> list[str]:
        return list(self.views)

    def class_view(self, name: str) -> ColumnarClassTrace:
        return self.views[name]

    def table_of(self, gid: int) -> str:
        return self.tables[int(self.tuple_table[gid])]

    def key_of(self, gid: int) -> KeyValue:
        return self.keys_of[int(self.tuple_table[gid])][
            int(self.tuple_local[gid])
        ]

    def key_gids(self, tid: int) -> dict[KeyValue, int]:
        """``key -> global tuple id`` for one table."""
        return self._key_gids[tid]

    def gid_for(self, table: str, key: KeyValue) -> int | None:
        tid = self.table_ids.get(table)
        if tid is None:
            return None
        return self.key_gids(tid).get(tuple(key))

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace(classes={len(self.views)}, "
            f"txns={self.n_transactions}, tuples={self.n_tuples}, "
            f"accesses={self.n_accesses})"
        )


class ColumnarSnapshot:
    """Interned row view of one table, aligned with the trace's key ids.

    ``rows`` is the table's merged live+tombstone snapshot;
    ``row_at(local_id)`` probes it by array index instead of a dict hash,
    and ``column(name)`` materializes one column across all trace keys.
    Rebuilt by the engine when the table's mutation counter moves.
    """

    def __init__(self, table: "Table", keys: list[KeyValue]) -> None:
        self.table = table
        self.version = table.version
        self.rows = table.snapshot_items()
        self.keys = keys
        self._trace_rows: list[dict[str, Any] | None] | None = None
        self._columns: dict[str, list[Any]] = {}

    @property
    def stale(self) -> bool:
        return self.table.version != self.version

    @property
    def trace_rows(self) -> list[dict[str, Any] | None]:
        if self._trace_rows is None:
            rows = self.rows
            self._trace_rows = [rows.get(key) for key in self.keys]
        return self._trace_rows

    def row_at(self, local_id: int) -> dict[str, Any] | None:
        return self.trace_rows[local_id]

    def column(self, name: str) -> list[Any]:
        """One column across all trace keys (``None`` for missing rows)."""
        values = self._columns.get(name)
        if values is None:
            values = [
                None if row is None else row.get(name)
                for row in self.trace_rows
            ]
            self._columns[name] = values
        return values


def intern_table_names(trace: Trace) -> Trace:
    """Deduplicate repeated table-name strings in-place (``sys.intern``).

    Large persisted traces repeat every table name once per access; loading
    them used to materialize millions of equal-but-distinct strings.
    """
    for txn in trace:
        accesses = txn.accesses
        for i, access in enumerate(accesses):
            interned = sys.intern(access.table)
            if interned is not access.table:
                accesses[i] = TupleAccess(interned, access.key, access.write)
    return trace
