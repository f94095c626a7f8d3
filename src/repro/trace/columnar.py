"""Columnar trace representation: interned tuples, flat integer streams.

The object trace (:class:`~repro.trace.events.Trace`) is convenient to
collect but expensive to search: every mapping-independence test re-walks
lists of access records. This module interns each distinct
``(table, key)`` pair into a dense integer *tuple id* once, and stores
each transaction class's stream as flat numpy int columns:

``offsets``
    CSR-style transaction boundaries into the access stream
    (``offsets[i]:offsets[i+1]`` is transaction *i*'s accesses).
``tuple_ids`` / ``write_bits``
    One entry per access: the interned tuple id and the read/write flag.
``uoffsets`` / ``utuple_ids``
    The same stream deduplicated *within* each transaction, in first-access
    order — the ``txn.tuples`` set the mapping-independence definition
    quantifies over, in an order that does not depend on string hashing.

A :class:`ColumnarTrace` is built once from a :class:`Trace` at the start
of Phase 2; every class search and Phase 3's cost evaluation read it, and
nothing downstream reads the transaction objects again (``txn_ids`` names
them). The partitioning evaluator interns any other trace it scores the
same way.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.errors import WorkloadError
from repro.trace.events import KeyValue, Trace
from repro.trace.splitter import round_robin


class ColumnarClassTrace:
    """One transaction class's stream as flat integer columns.

    ``txn_ids[i]`` is the id of the transaction whose accesses
    ``offsets[i]:offsets[i+1]`` hold.
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
    ) -> None:
        self.parent = parent
        self.class_name = class_name
        self.txn_ids = txn_ids
        self.offsets = offsets
        self.tuple_ids = tuple_ids
        self.write_bits = write_bits
        self.uoffsets = uoffsets
        self.utuple_ids = utuple_ids
        #: {(txn start, txn stop) -> {table id -> (gids, local ids)}}
        self._chunks: dict[tuple[int, int], dict[int, tuple[Any, Any]]] = {}

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def chunk_tables(self, start: int, stop: int) -> dict[int, tuple[Any, Any]]:
        """Per-table (global ids, local ids) of the distinct tuples that
        transactions ``start:stop`` touch, memoized on this view.

        The memo lives on the view, not on whoever asks: a view and the
        sub-views :meth:`split` cuts from it share a class name and chunk
        bounds but not their transactions.
        """
        cached = self._chunks.get((start, stop))
        if cached is None:
            uids = self.utuple_ids[self.uoffsets[start] : self.uoffsets[stop]]
            cached = self._chunks[(start, stop)] = self.parent.group_touched(
                uids
            )
        return cached

    # ------------------------------------------------------------------
    # splitting (train/test halves for the statistics fallback)
    # ------------------------------------------------------------------
    def split(
        self, train_fraction: float = 0.5
    ) -> tuple["ColumnarClassTrace", "ColumnarClassTrace"]:
        """Deterministic train/test halves.

        Selects with :func:`~repro.trace.splitter.round_robin`, as
        :func:`~repro.trace.splitter.train_test_split` does, so both
        representations pick the same transactions.
        """
        if not 0.0 < train_fraction < 1.0:
            raise WorkloadError("train_fraction must be strictly between 0 and 1")
        picks = round_robin(len(self), train_fraction)
        return (
            self._subset([i for i, picked in enumerate(picks) if picked]),
            self._subset([i for i, picked in enumerate(picks) if not picked]),
        )

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
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarClassTrace({self.class_name!r}, txns={len(self)}, "
            f"accesses={len(self.tuple_ids)})"
        )


class _ClassBuilder:
    """Per-class accumulation state during interning."""

    __slots__ = ("txn_ids", "offsets", "ids", "writes", "uoffsets", "uids")

    def __init__(self) -> None:
        self.txn_ids: list[int] = []
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
    ``table_gids[tid]`` lists the table's tuple ids in local-id order, so
    position *i* holds the id of local key *i*.
    """

    def __init__(self) -> None:
        self.tables: list[str] = []
        self.table_ids: dict[str, int] = {}
        self.keys_of: list[list[KeyValue]] = []
        self.tuple_table: Any = None
        self.tuple_local: Any = None
        self.table_gids: list[Any] = []
        self.views: dict[str, ColumnarClassTrace] = {}
        self.n_transactions = 0
        self.n_accesses = 0
        self.build_seconds = 0.0
        self.intern_seconds = 0.0
        #: the object trace this was built from (the evaluator reuses this
        #: interning when it is handed the same, unchanged trace).
        self.source: Trace | None = None

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
        key_gids: list[dict[KeyValue, int]] = []
        tuple_table: list[int] = []
        tuple_local: list[int] = []
        builders: dict[str, _ClassBuilder] = {}

        for txn in trace:
            builder = builders.get(txn.class_name)
            if builder is None:
                builder = builders[txn.class_name] = _ClassBuilder()
            builder.txn_ids.append(txn.txn_id)
            seen: set[int] = set()
            for table, key, write in txn.accesses:
                tid = table_ids.get(table)
                if tid is None:
                    tid = len(tables)
                    table_ids[table] = tid
                    tables.append(table)
                    keys_of.append([])
                    key_gids.append({})
                interned = key_gids[tid]
                gid = interned.get(key)
                if gid is None:
                    gid = len(tuple_table)
                    interned[key] = gid
                    tuple_local.append(len(keys_of[tid]))
                    keys_of[tid].append(key)
                    tuple_table.append(tid)
                builder.ids.append(gid)
                builder.writes.append(1 if write else 0)
                if gid not in seen:
                    seen.add(gid)
                    builder.uids.append(gid)
            builder.offsets.append(len(builder.ids))
            builder.uoffsets.append(len(builder.uids))
        self.intern_seconds = time.perf_counter() - started

        self.tuple_table = np.asarray(tuple_table, dtype=np.int64)
        self.tuple_local = np.asarray(tuple_local, dtype=np.int64)
        # Ids are handed out in first-seen order, and so are local ids
        # within a table: a stable sort by table lists each table's ids in
        # local-id order.
        bounds = np.cumsum(np.bincount(self.tuple_table, minlength=len(tables)))
        order = np.argsort(self.tuple_table, kind="stable")
        self.table_gids = np.split(order, bounds)[:-1]
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

    def group_touched(self, gids) -> dict[int, tuple[Any, Any]]:
        """Per-table (global ids, local ids) of the distinct tuples among
        *gids*, both in local-id order, tables in id order; tables none
        of them belong to are left out.

        One mask over every tuple instead of a sort: ``np.unique`` costs
        tens of times more than the mask on the streams scored here.
        """
        seen = np.zeros(self.n_tuples, dtype=bool)
        seen[gids] = True
        groups = {}
        for tid, table_gids in enumerate(self.table_gids):
            local_ids = np.flatnonzero(seen[table_gids])
            if local_ids.size:
                groups[tid] = (table_gids[local_ids], local_ids)
        return groups

    def class_view(self, name: str) -> ColumnarClassTrace:
        return self.views[name]

    def table_of(self, gid: int) -> str:
        return self.tables[int(self.tuple_table[gid])]

    def key_of(self, gid: int) -> KeyValue:
        return self.keys_of[int(self.tuple_table[gid])][
            int(self.tuple_local[gid])
        ]

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace(classes={len(self.views)}, "
            f"txns={self.n_transactions}, tuples={self.n_tuples}, "
            f"accesses={self.n_accesses})"
        )

