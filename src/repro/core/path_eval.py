"""Evaluating join paths on live data: tuple -> root-attribute value.

A join path ``p(key(T), X)`` is a mapping from each tuple of ``T`` to one
value of ``X`` (Section 5). Each path is compiled once into a
:class:`_PathPlan`, the one walker every layer shares: it fetches rows
only when a needed column is not already known — so paths that stay
inside the primary key (e.g. TPC-C's ``NO_W_ID``) still evaluate for
tuples that have since been deleted — and memoizes the walk past the
first foreign-key hop per distinct hop values.

:class:`ColumnarEngine` is the one evaluator of trace-driven decisions:
it stores walk results as interned code columns over a
:class:`~repro.trace.columnar.ColumnarTrace` and answers Definition 7
(mapping independence) and the per-key partition ids Definitions 5/6
need, for views of that trace only. The serving tier places live rows
through :class:`~repro.core.placement.PlacementStore`, which fills whole
columns on the same plans and walks single keys on them too. Snapshot
lookups (the live row, else the tombstone) go through a
:class:`SnapshotIndex`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.join_path import JoinPath
from repro.errors import PartitioningError
from repro.storage.database import Database
from repro.storage.table import Table
from repro.trace.columnar import ColumnarClassTrace, ColumnarTrace

#: sentinel distinguishing "not memoized yet" from a memoized ``None``
_MISS = object()
#: code -> pid slot whose mapping has not been called yet
_NO_PID = np.iinfo(np.int64).min


class SnapshotIndex:
    """Per-table snapshot lookups for one database, shared by walkers.

    A snapshot is the live row, else the tombstone of a deleted one. Each
    probe reads the table directly, so a holder that outlives writes (the
    placement store) stays correct; the index only saves the database's
    error-checked table lookup.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._tables: dict[str, Table] = {}

    def table(self, name: str) -> Table:
        """Cached table handle (skips the database's error-checked lookup)."""
        table = self._tables.get(name)
        if table is None:
            table = self.database.table(name)
            self._tables[name] = table
        return table

    def snapshot(self, table_name: str, key: tuple) -> dict[str, Any] | None:
        """Row snapshot (live or tombstone) for *key*, or ``None``."""
        return self.table(table_name).get_snapshot(key)


class _PathPlan:
    """Compiled walk for one join path: the only code that walks one.

    Which columns are known at each step — the source table's primary
    key, then the current row's columns — is fixed by the path, so the
    fetch-or-not control flow is decided once here rather than per key.
    ``mode`` selects the per-key source stage:

    * ``0`` — the destination comes straight from the key tuple (``arg``
      is its index), so deleted rows still evaluate;
    * ``1`` — the destination comes from the source row;
    * ``2`` — the first fk hop's values come from the key (``arg`` is a
      tuple of key indices);
    * ``3`` — the first fk hop's values come from the source row (``arg``
      is the fk's column tuple).

    ``tail`` holds the fk hops from the first one on (intra steps there
    are no-ops: a row is always held after a hop), and ``tail_memo``
    collapses repeated sub-walks — every source key mapping to the same
    first-hop values shares one tail walk, which is what makes walks over
    fact tables (order lines funneling into a few districts) cheap. The
    memo is only as fresh as the data it read, so a plan lives exactly as
    long as its holder's value memo (the placement store clears it when
    a write can change a walk). A hop into the referenced table's primary
    key is one snapshot probe: the live row, else the tombstone.
    """

    __slots__ = (
        "snapshots", "source", "npk", "mode", "arg", "dest_col", "tail",
        "tail_memo",
    )

    def __init__(self, path: JoinPath, snapshots: SnapshotIndex) -> None:
        self.snapshots = snapshots
        self.source = path.source_table
        pk_columns = snapshots.table(self.source).schema.primary_key
        pk_set = set(pk_columns)
        self.npk = len(pk_columns)
        self.dest_col = path.destination.column
        self.tail_memo: dict[tuple, Any] = {}
        steps = list(zip(path.steps, path.nodes[1:]))
        first_fk = None
        need_row = False
        for index, (step, node) in enumerate(steps):
            if step.kind == "fk":
                first_fk = index
                if not need_row and not all(
                    c in pk_set for c in step.fk.columns
                ):
                    need_row = True
                break
            # an intra step needing a non-key column fetches the source
            # row; every later value then reads from that row
            if not need_row and not all(a.column in pk_set for a in node):
                need_row = True
        self.tail: tuple = ()
        if first_fk is None:
            if need_row or self.dest_col not in pk_set:
                self.mode, self.arg = 1, None
            else:
                self.mode, self.arg = 0, pk_columns.index(self.dest_col)
            return
        fk0 = steps[first_fk][0].fk
        if need_row:
            self.mode, self.arg = 3, tuple(fk0.columns)
        else:
            self.mode = 2
            self.arg = tuple(pk_columns.index(c) for c in fk0.columns)
        tail = []
        for step, _node in steps[first_fk:]:
            if step.kind != "fk":
                continue  # intra after a hop is a no-op: a row is held
            ref_table = snapshots.table(step.fk.ref_table)
            probe_pk = (
                tuple(step.fk.ref_columns) == ref_table.schema.primary_key
            )
            tail.append((step.fk, ref_table, probe_pk))
        self.tail = tuple(tail)

    def value(self, key: tuple) -> Any:
        """Root value for the source tuple *key*, or ``None``."""
        if len(key) != self.npk:
            return None
        row = None
        if self.mode & 1:
            row = self.snapshots.snapshot(self.source, key)
            if row is None:
                return None
        return self.row_value(key, row)

    def row_value(self, key: tuple, row: Any) -> Any:
        """Root value for *key* whose live source *row* is in hand (the
        placement store's scan or write); modes 0 and 2 ignore *row*."""
        mode = self.mode
        if mode == 0:
            return key[self.arg]
        if mode == 1:
            return row.get(self.dest_col)
        if mode == 2:
            values = tuple(key[i] for i in self.arg)
        else:
            values = tuple(row.get(c) for c in self.arg)
        memo = self.tail_memo
        value = memo.get(values, _MISS)
        if value is _MISS:
            value = memo[values] = self._tail_value(values)
        return value

    def _tail_value(self, values: tuple) -> Any:
        """Walk the fk hops from the first one's *values* to the root.

        A hop matches live rows first and, when it targets the referenced
        table's primary key, tombstones second; a NULL foreign key or a
        failed hop yields ``None``.
        """
        row = None
        snapshot = self.snapshots.snapshot
        for fk, ref_table, probe_pk in self.tail:
            vals = (
                values
                if row is None
                else tuple(row.get(c) for c in fk.columns)
            )
            if None in vals:
                return None
            if probe_pk:
                row = snapshot(fk.ref_table, vals)
                if row is None:
                    return None
            else:
                matches = ref_table.lookup(fk.ref_columns, vals)
                if not matches:
                    return None
                row = matches[0]
        return row.get(self.dest_col)


# ----------------------------------------------------------------------
# columnar engine
# ----------------------------------------------------------------------
class _PathColumn:
    """Lazily filled per-path code column (one slot per local key id)."""

    __slots__ = ("codes", "computed", "complete")

    def __init__(self, size: int) -> None:
        self.codes = np.zeros(size, dtype=np.int64)
        self.computed = np.zeros(size, dtype=bool)
        self.complete = size == 0


class ColumnarEngine:
    """Batch join-path evaluation over a :class:`ColumnarTrace`.

    The engine holds one cache layer keyed by interned ids:

    * per-path *code columns* — for each distinct key of the path's source
      table (local key id order), the *value code* of the path's root
      value: ``0`` for "no value" (the walk failed), otherwise a dense id
      interning the value under its own ``__eq__``/``__hash__``. Two
      tuples share a code exactly when their root values compare equal,
      so the vectorized checks below decide Definitions 5 and 7 on codes
      alone. Columns fill lazily —
      a mapping-independence test only walks the tuple ids its class
      stream actually contains, and later classes (or trees sharing the
      path) reuse every code already computed.
    * ``tree_is_mapping_independent(tree, view)`` — Definition 7 as three
      segmented reductions over the view's deduplicated stream.
    * ``partition_pids(path, mapping, local_ids)`` — partition ids for
      the demanded keys of a table solution (``-1`` unroutable, ``0``
      replicated), feeding the Definition-5/6 kernel in the evaluation
      framework.
    * ``class_value_luts(view, paths)`` — per-table key -> root-value
      dicts for the scalar loops (blame, statistics fallback) that must
      keep their own iteration order.

    Every entry point takes views of :attr:`ctrace` only. One engine is
    shared by every class of a search and by Phase 3; callers pass a
    :class:`~repro.core.metrics.CacheStats` to count column hits and
    misses per class.
    """

    def __init__(self, database: Database, ctrace: ColumnarTrace) -> None:
        self.database = database
        self.ctrace = ctrace
        self.snapshots = SnapshotIndex(database)
        #: interned root values; index 0 is reserved for "no value".
        self.values: list[Any] = [None]
        self._value_codes: dict[Any, int] = {}
        self._columns: dict[JoinPath, _PathColumn] = {}
        self._plans: dict[JoinPath, _PathPlan] = {}
        #: {id(mapping) -> [mapping, value code -> partition id array]}
        self._luts: dict[int, list[Any]] = {}
        self._db_tables = list(database)
        self._db_version = sum(t.version for t in self._db_tables)

    # ------------------------------------------------------------------
    # value interning
    # ------------------------------------------------------------------
    def _code_of(self, value: Any) -> int:
        if value is None:
            return 0
        code = self._value_codes.get(value)
        if code is None:
            code = len(self.values)
            self._value_codes[value] = code
            self.values.append(value)
        return code

    # ------------------------------------------------------------------
    # per-path plans and code columns
    # ------------------------------------------------------------------
    def _check_version(self) -> None:
        """Drop every value cache if any table mutated since the last call.

        One summed mutation counter over all tables — far cheaper than a
        per-path version tuple, and the database is static for the whole
        search anyway (the trace is collected up front).
        """
        version = sum(t.version for t in self._db_tables)
        if version != self._db_version:
            self._db_version = version
            self._columns.clear()
            self._plans.clear()
            self._luts.clear()

    def _column(self, path: JoinPath) -> _PathColumn:
        column = self._columns.get(path)
        if column is None:
            tid = self.ctrace.table_ids.get(path.source_table)
            size = len(self.ctrace.keys_of[tid]) if tid is not None else 0
            column = _PathColumn(size)
            self._columns[path] = column
        return column

    def _plan(self, path: JoinPath) -> _PathPlan:
        plan = self._plans.get(path)
        if plan is None:
            plan = self._plans[path] = _PathPlan(path, self.snapshots)
        return plan

    def _fill(self, path: JoinPath, column: _PathColumn, local_ids) -> None:
        """Walk *path* for the given local key ids and record their codes.

        One compiled plan serves every key, so a fill never repeats a
        sub-walk past the first fk hop that two source keys share.
        """
        keys = self.ctrace.keys_of[self.ctrace.table_ids[path.source_table]]
        walk = self._plan(path).value
        codes = column.codes
        computed = column.computed
        code_of = self._code_of
        for local_id in local_ids.tolist():
            codes[local_id] = code_of(walk(keys[local_id]))
            computed[local_id] = True

    def ensure_codes(
        self, path: JoinPath, local_ids, stats: CacheStats | None = None
    ):
        """The path's code column, with *local_ids* guaranteed computed.

        *stats* counts one hit when nothing had to be walked, else one
        miss.
        """
        column = self._column(path)
        if not column.complete:
            missing = local_ids[~column.computed[local_ids]]
            if missing.size:
                if stats is not None:
                    stats.misses += 1
                self._fill(path, column, missing)
                column.complete = bool(column.computed.all())
                return column.codes
        if stats is not None:
            stats.hits += 1
        return column.codes

    def _own(self, view: ColumnarClassTrace) -> None:
        """Reject a view interned into some other trace."""
        if view.parent is not self.ctrace:
            raise PartitioningError(
                f"{view!r} is not a view of this engine's interned trace"
            )

    # ------------------------------------------------------------------
    # Definition 7: vectorized mapping-independence
    # ------------------------------------------------------------------
    def tree_is_mapping_independent(
        self, tree, view: ColumnarClassTrace, stats=None
    ) -> tuple[bool, int]:
        """Definition-7 verdict plus the number of covered tuple probes.

        Segmented min/max over each transaction's deduplicated tuple ids:
        a transaction refutes when a covered tuple has no root value
        (code 0) or two covered tuples carry different codes — Definition
        7's value comparison, since the codes intern value equality.

        The stream is processed in geometrically growing transaction
        chunks (64, 128, 256, ...) with an early exit on the first
        refuting chunk — most candidate trees are refuted within the
        first few transactions, and the lazy code columns then never walk
        the rest of the class's tuples. Chunk boundaries are fixed, so
        the verdict and probe count are deterministic.
        """
        self._own(view)
        self._check_version()
        ntxn = len(view)
        if ntxn == 0 or view.utuple_ids.size == 0:
            return True, 0
        ctrace = self.ctrace
        uoffsets = view.uoffsets
        utuple_ids = view.utuple_ids
        uncovered_hi = np.iinfo(np.int64).max
        paths = [
            (ctrace.table_ids[table], path)
            for table, path in tree.paths.items()
            if table in ctrace.table_ids
        ]
        scratch = np.full(ctrace.n_tuples, -1, dtype=np.int64)
        probes = 0
        pos = 0
        size = 64
        while pos < ntxn:
            stop = min(pos + size, ntxn)
            size *= 2
            ustart = int(uoffsets[pos])
            uend = int(uoffsets[stop])
            if uend == ustart:
                pos = stop
                continue
            uids = utuple_ids[ustart:uend]
            per_table = view.chunk_tables(pos, stop)
            for tid, path in paths:
                entry = per_table.get(tid)
                if entry is None:
                    continue  # chunk never touches this table
                gids, local_ids = entry
                column = self.ensure_codes(path, local_ids, stats)
                scratch[gids] = column[local_ids]
            codes = scratch[uids]
            offsets = uoffsets[pos : stop + 1] - ustart
            starts = offsets[:-1]
            lengths = offsets[1:] - starts
            # reduceat needs in-range start indices; trailing empty
            # segments are masked out through `lengths` below.
            safe_starts = np.minimum(starts, uids.size - 1)
            lifted = np.where(codes >= 0, codes, uncovered_hi)
            mins = np.minimum.reduceat(lifted, safe_starts)
            maxs = np.maximum.reduceat(codes, safe_starts)
            covered = (maxs >= 0) & (lengths > 0)
            refuted = covered & ((mins == 0) | (mins != maxs))
            probes += int((codes >= 0).sum())
            if bool(refuted.any()):
                return False, probes
            pos = stop
        return True, probes

    # ------------------------------------------------------------------
    # Definition 5/6 support: per-key partition ids
    # ------------------------------------------------------------------
    def partition_pids(
        self, path: JoinPath, mapping, local_ids, stats=None
    ) -> Any:
        """Partition ids for the given local key ids: ``-1`` unroutable,
        ``0`` replicated.

        Demand driven: only the requested keys are walked (the lazy code
        columns persist across calls), and ``mapping`` is invoked once per
        distinct value code, in ascending code order — it is a
        deterministic pure function (process-independent ``stable_hash``),
        so this yields exactly the ids a walk per access would
        (``PlacementStore.pid_of``). The answers are cached per mapping
        identity in one dense code -> pid array, grown as values are
        interned, so a call is one gather; codes intern value equality,
        so the array is shared across every path that produces the same
        values.
        """
        self._check_version()
        codes = self.ensure_codes(path, local_ids, stats)[local_ids]
        cached = self._luts.get(id(mapping))
        if cached is None or cached[0] is not mapping:
            cached = self._luts[id(mapping)] = [
                mapping, np.full(1, -1, dtype=np.int64)
            ]
        code_pid = cached[1]
        if code_pid.size < len(self.values):
            grown = np.full(
                max(len(self.values), 2 * code_pid.size), _NO_PID, dtype=np.int64
            )
            grown[: code_pid.size] = code_pid
            code_pid = cached[1] = grown
        pids = code_pid[codes]
        missing = pids == _NO_PID
        if missing.any():
            fresh = np.zeros(code_pid.size, dtype=bool)
            fresh[codes[missing]] = True
            values = self.values
            for code in np.flatnonzero(fresh).tolist():
                code_pid[code] = int(mapping(values[code]))
            pids = code_pid[codes]
        return pids

    def class_value_luts(
        self, view: ColumnarClassTrace, paths, stats=None
    ) -> dict[str, dict]:
        """Per-table ``{key: root value}`` over every tuple *view* touches.

        Feeds the scalar loops (greedy blame, the statistics fallback)
        that must keep their own iteration order over ``txn.tuples``:
        downstream set construction is order-sensitive, so only the value
        lookup is batched. Values come from the same lazy code columns
        the Definition-7 kernel reads.
        """
        self._own(view)
        self._check_version()
        per_table = view.chunk_tables(0, len(view))
        values = self.values
        luts: dict[str, dict] = {}
        for table, path in paths.items():
            tid = self.ctrace.table_ids.get(table)
            entry = per_table.get(tid) if tid is not None else None
            if entry is None:
                luts[table] = {}
                continue
            _, local_ids = entry
            codes = self.ensure_codes(path, local_ids, stats)[local_ids]
            keys = self.ctrace.keys_of[tid]
            luts[table] = {
                keys[lid]: values[code]
                for lid, code in zip(local_ids.tolist(), codes.tolist())
            }
        return luts
