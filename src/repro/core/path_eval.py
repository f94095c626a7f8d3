"""Evaluating join paths on live data: tuple -> root-attribute value.

A join path ``p(key(T), X)`` is a mapping from each tuple of ``T`` to one
value of ``X`` (Section 5). The evaluator walks the path's validated steps
against the database, fetching rows only when a needed column is not
already known — so paths that stay inside the primary key (e.g. TPC-C's
``NO_W_ID``) still evaluate for tuples that have since been deleted.

Results are memoized per (path, key) in a bounded LRU cache with hit/miss
counters: mapping-independence testing and cost evaluation revisit the
same tuples constantly, and the counters feed
:class:`~repro.core.metrics.SearchMetrics`. Snapshot lookups go through a
:class:`SnapshotIndex`, a per-table materialized live+tombstone index that
can be shared across evaluators.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.join_path import JoinPath
from repro.core.metrics import CacheStats
from repro.storage.database import Database
from repro.storage.table import Table
from repro.trace.columnar import (
    ColumnarClassTrace,
    ColumnarSnapshot,
    ColumnarTrace,
)

#: sentinel distinguishing "not memoized yet" from a memoized ``None``
_MISS = object()


class SnapshotIndex:
    """Shared, lazily built per-table snapshot lookups for one database.

    The trace is collected before partitioning starts, so the database is
    static during the search: materializing each table's merged
    live+tombstone view once is safe and turns every snapshot probe into a
    single dict access. The :class:`ColumnarEngine` shares one index with
    its fallback walker, so a search builds each table's view once.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._tables: dict[str, Table] = {}
        self._snapshots: dict[str, tuple[int, dict[tuple, dict[str, Any]]]] = {}

    def table(self, name: str) -> Table:
        """Cached table handle (skips the database's error-checked lookup)."""
        table = self._tables.get(name)
        if table is None:
            table = self.database.table(name)
            self._tables[name] = table
        return table

    def snapshot(self, table_name: str, key: tuple) -> dict[str, Any] | None:
        """Row snapshot (live or tombstone) for *key*, or ``None``.

        The materialized view is rebuilt whenever the table's mutation
        counter moved, so long-lived holders (the router) stay correct if
        the database keeps changing under them.
        """
        table = self.table(table_name)
        cached = self._snapshots.get(table_name)
        if cached is None or cached[0] != table.version:
            cached = (table.version, table.snapshot_items())
            self._snapshots[table_name] = cached
        return cached[1].get(key)


class JoinPathEvaluator:
    """Evaluates join paths against one :class:`Database`.

    ``cache_size`` bounds the (path, key) memo table; ``None`` means
    unbounded. Eviction is least-recently-used. ``cache_stats`` counts
    hits/misses/evictions; ``mi_tests``/``mi_refuted`` are incremented by
    :meth:`JoinTree.is_mapping_independent` so Phase 2 can report how much
    of the search each class consumed.
    """

    def __init__(
        self,
        database: Database,
        cache_size: int | None = None,
        snapshots: SnapshotIndex | None = None,
    ) -> None:
        self.database = database
        self.snapshots = snapshots or SnapshotIndex(database)
        self.cache_size = cache_size
        self.cache_stats = CacheStats()
        self.mi_tests = 0
        self.mi_refuted = 0
        self.evaluations = 0
        self.mi_seconds = 0.0
        self._cache: dict[tuple[JoinPath, tuple], Any] = {}

    def evaluate(self, path: JoinPath, key: tuple) -> Any:
        """Value of the path's destination attribute for the tuple *key*.

        *key* is the primary-key tuple of the path's source table. Returns
        ``None`` when the walk cannot complete (missing row, NULL foreign
        key) — callers treat that as "no root value".
        """
        self.evaluations += 1
        key = tuple(key)
        cache_key = (path, key)
        cache = self._cache
        if cache_key in cache:
            self.cache_stats.hits += 1
            if self.cache_size is not None:
                # LRU: re-insert at the back of the (ordered) dict.
                value = cache.pop(cache_key)
                cache[cache_key] = value
                return value
            return cache[cache_key]
        self.cache_stats.misses += 1
        value = self._walk(path, key)
        if self.cache_size is not None and len(cache) >= self.cache_size:
            cache.pop(next(iter(cache)))
            self.cache_stats.evictions += 1
        cache[cache_key] = value
        return value

    def _walk(self, path: JoinPath, key: tuple) -> Any:
        source_table = path.source_table
        table = self.snapshots.table(source_table)
        pk_columns = table.schema.primary_key
        if len(pk_columns) != len(key):
            return None
        known: dict[str, Any] = dict(zip(pk_columns, key))
        current_table = source_table
        row: dict[str, Any] | None = None

        for step, node in zip(path.steps, path.nodes[1:]):
            if step.kind == "intra":
                needed = [a.column for a in node]
                if not all(c in known for c in needed):
                    if row is None:
                        row = self._fetch_current(current_table, known)
                        if row is None:
                            return None
                        known = dict(row)
                # values now available through `known`
            else:  # fk hop
                fk = step.fk
                assert fk is not None
                if not all(c in known for c in fk.columns):
                    if row is None:
                        row = self._fetch_current(current_table, known)
                        if row is None:
                            return None
                        known = dict(row)
                values = tuple(known.get(c) for c in fk.columns)
                if any(v is None for v in values):
                    return None
                ref_table = self.snapshots.table(fk.ref_table)
                matches = ref_table.lookup(fk.ref_columns, values)
                if matches:
                    row = matches[0]
                elif tuple(fk.ref_columns) == ref_table.schema.primary_key:
                    row = self.snapshots.snapshot(fk.ref_table, values)
                    if row is None:
                        return None
                else:
                    return None
                known = dict(row)
                current_table = fk.ref_table

        destination = path.destination
        if destination.column in known:
            return known[destination.column]
        if row is None:
            row = self._fetch_current(current_table, known)
            if row is None:
                return None
            known = dict(row)
        return known.get(destination.column)

    def _fetch_current(
        self, table_name: str, known: dict[str, Any]
    ) -> dict[str, Any] | None:
        table = self.snapshots.table(table_name)
        pk = table.schema.primary_key
        if not all(c in known for c in pk):
            return None
        return self.snapshots.snapshot(table_name, tuple(known[c] for c in pk))

    def clear_cache(self) -> None:
        self._cache.clear()


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


class _PathPlan:
    """Compiled walk for one join path (see :meth:`ColumnarEngine._fill`).

    The object walk's fetch-or-not control flow depends only on *which*
    columns are known at each step — the source table's primary key, then
    the current row's columns — so for a fixed path it is the same for
    every key. ``mode`` selects the per-key source stage:

    * ``0`` — the destination comes straight from the key tuple (``arg``
      is its index);
    * ``1`` — the destination comes from the source row;
    * ``2`` — the first fk hop's values come from the key (``arg`` is a
      tuple of key indices);
    * ``3`` — the first fk hop's values come from the source row (``arg``
      is the fk's column tuple).

    ``tail`` holds the fk hops from the first one on (intra steps there
    are no-ops: a row is always held after a hop), and ``tail_memo``
    collapses repeated sub-walks — every source key mapping to the same
    first-hop values shares one tail walk, which is what makes fills over
    fact-table streams (order lines funneling into a few districts)
    cheap. Plans hoist resolved table objects, so the engine drops them
    whenever the database version moves.
    """

    __slots__ = ("npk", "mode", "arg", "dest_col", "tail", "tail_memo")


class ColumnarEngine:
    """Batch join-path evaluation over a :class:`ColumnarTrace`.

    The engine holds one cache layer keyed by interned ids:

    * per-path *code columns* — for each distinct key of the path's source
      table (local key id order), the *value code* of the path's root
      value: ``0`` for "no value" (the walk failed), otherwise a dense id
      interning the value under its own ``__eq__``/``__hash__``. Two
      tuples share a code exactly when the object scan's ``!=``
      comparison would call them equal, so the vectorized checks below
      return the same verdicts as the object scan. Columns fill lazily —
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

    One engine is shared by every class of a search and by Phase 3;
    per-class counters live in :class:`ColumnarPathEvaluator` adapters.
    """

    def __init__(self, database: Database, ctrace: ColumnarTrace) -> None:
        self.database = database
        self.ctrace = ctrace
        self.snapshots = SnapshotIndex(database)
        #: object walks for keys outside the trace
        self._walker = JoinPathEvaluator(database, snapshots=self.snapshots)
        #: interned root values; index 0 is reserved for "no value".
        self.values: list[Any] = [None]
        self._value_codes: dict[Any, int] = {}
        self._column_snapshots: dict[str, ColumnarSnapshot] = {}
        self._columns: dict[JoinPath, _PathColumn] = {}
        self._plans: dict[JoinPath, _PathPlan] = {}
        #: {id(mapping) -> (mapping, {value code -> partition id})}
        self._luts: dict[int, tuple[Any, dict[int, int]]] = {}
        self._scalar_memo: dict[tuple[JoinPath, tuple], Any] = {}
        #: {(class, txn start, txn stop) -> {table id -> (gids, local ids)}}
        #: of the tuples one chunk of a class stream touches
        self._view_locals: dict[tuple, dict[int, tuple[Any, Any]]] = {}
        self._db_tables = list(database)
        self._db_version = sum(t.version for t in self._db_tables)
        self._eval_calls = 0
        self.batch_walks = 0

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
    # snapshots and per-path code columns
    # ------------------------------------------------------------------
    def column_snapshot(self, table_name: str) -> ColumnarSnapshot:
        snapshot = self._column_snapshots.get(table_name)
        if snapshot is None or snapshot.stale:
            tid = self.ctrace.table_ids.get(table_name)
            keys = self.ctrace.keys_of[tid] if tid is not None else []
            snapshot = ColumnarSnapshot(self.snapshots.table(table_name), keys)
            self._column_snapshots[table_name] = snapshot
        return snapshot

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
            self._scalar_memo.clear()
            self._column_snapshots.clear()

    def _column(self, path: JoinPath) -> _PathColumn:
        column = self._columns.get(path)
        if column is None:
            tid = self.ctrace.table_ids.get(path.source_table)
            size = len(self.ctrace.keys_of[tid]) if tid is not None else 0
            column = _PathColumn(size)
            self._columns[path] = column
        return column

    def _plan(self, path: JoinPath) -> _PathPlan:
        """Compile (and cache) the per-path walk plan for :meth:`_fill`."""
        plan = self._plans.get(path)
        if plan is not None:
            return plan
        table = self.snapshots.table(path.source_table)
        pk_columns = table.schema.primary_key
        pk_set = set(pk_columns)
        plan = _PathPlan()
        plan.npk = len(pk_columns)
        plan.dest_col = path.destination.column
        plan.tail_memo = {}
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
        if first_fk is None:
            if need_row or plan.dest_col not in pk_set:
                plan.mode, plan.arg = 1, None
            else:
                plan.mode, plan.arg = 0, pk_columns.index(plan.dest_col)
            plan.tail = ()
        else:
            fk0 = steps[first_fk][0].fk
            if need_row:
                plan.mode, plan.arg = 3, tuple(fk0.columns)
            else:
                plan.mode = 2
                plan.arg = tuple(pk_columns.index(c) for c in fk0.columns)
            tail = []
            for step, _node in steps[first_fk:]:
                if step.kind != "fk":
                    continue  # intra after a hop is a no-op: a row is held
                ref_table = self.snapshots.table(step.fk.ref_table)
                tail.append(
                    (
                        step.fk,
                        ref_table,
                        tuple(step.fk.ref_columns)
                        == ref_table.schema.primary_key,
                    )
                )
            plan.tail = tuple(tail)
        self._plans[path] = plan
        return plan

    def _tail_value(self, plan: _PathPlan, values: tuple) -> Any:
        """Walk the fk hops from the first one's *values* to the root.

        Mirrors the object walk hop for hop: failed lookups, primary-key
        snapshot fallbacks and NULL foreign keys all yield ``None``.
        """
        row = None
        for fk, ref_table, probe_pk in plan.tail:
            vals = (
                values
                if row is None
                else tuple(row.get(c) for c in fk.columns)
            )
            if any(v is None for v in vals):
                return None
            matches = ref_table.lookup(fk.ref_columns, vals)
            if matches:
                row = matches[0]
            elif probe_pk:
                row = self.snapshots.snapshot(fk.ref_table, vals)
                if row is None:
                    return None
            else:
                return None
        return row.get(plan.dest_col)

    def _fill(self, path: JoinPath, column: _PathColumn, local_ids) -> None:
        """Walk *path* for the given local key ids and record their codes.

        Runs the compiled plan per key: the source stage reads the key
        tuple or the trace-aligned source row, and everything past the
        first fk hop is memoized per distinct hop values, so a fill never
        repeats a sub-walk two source keys share.
        """
        tid = self.ctrace.table_ids[path.source_table]
        keys = self.ctrace.keys_of[tid]
        snapshot = self.column_snapshot(path.source_table)
        plan = self._plan(path)
        codes = column.codes
        computed = column.computed
        code_of = self._code_of
        npk = plan.npk
        mode = plan.mode
        arg = plan.arg
        dest_col = plan.dest_col
        memo = plan.tail_memo
        tail = self._tail_value
        row_at = snapshot.row_at
        miss = _MISS
        for local_id in local_ids.tolist():
            key = keys[local_id]
            if len(key) != npk:
                value = None
            elif mode == 0:
                value = key[arg]
            elif mode == 1:
                row = row_at(local_id)
                value = None if row is None else row.get(dest_col)
            else:
                if mode == 2:
                    values = tuple(key[i] for i in arg)
                else:
                    row = row_at(local_id)
                    values = (
                        None
                        if row is None
                        else tuple(row.get(c) for c in arg)
                    )
                if values is None:
                    value = None
                else:
                    value = memo.get(values, miss)
                    if value is miss:
                        value = tail(plan, values)
                        memo[values] = value
            codes[local_id] = code_of(value)
            computed[local_id] = True
        self.batch_walks += len(local_ids)

    def ensure_codes(
        self, path: JoinPath, local_ids=None, stats: "CacheStats | None" = None
    ):
        """The path's code column, with the given local ids (all when
        ``None``) guaranteed computed."""
        column = self._column(path)
        if column.complete:
            if stats is not None:
                stats.hits += 1
            return column.codes
        if local_ids is None:
            missing = np.flatnonzero(~column.computed)
        else:
            missing = local_ids[~column.computed[local_ids]]
        if missing.size:
            if stats is not None:
                stats.misses += 1
            self._fill(path, column, missing)
            if local_ids is None or bool(column.computed.all()):
                column.complete = True
        else:
            if stats is not None:
                stats.hits += 1
            if local_ids is None:
                column.complete = True
        return column.codes

    def path_codes(self, path: JoinPath, stats: "CacheStats | None" = None):
        """Root-value codes for every distinct source-table key, by local id."""
        self._check_version()
        return self.ensure_codes(path, None, stats)

    def evaluate_one(self, path: JoinPath, key: tuple, stats=None) -> Any:
        """Scalar evaluation through the batch columns (object-identical).

        The staleness check is amortized over 256 calls: scalar probes
        come from tight loops (greedy elimination, the statistics
        fallback) that never mutate the database mid-loop, and every
        batch entry point re-checks unconditionally.
        """
        self._eval_calls += 1
        if self._eval_calls & 0xFF == 0:
            self._check_version()
        memo_key = (path, key)
        memo = self._scalar_memo
        if memo_key in memo:
            if stats is not None:
                stats.hits += 1
            return memo[memo_key]
        tid = self.ctrace.table_ids.get(path.source_table)
        if tid is not None:
            gid = self.ctrace.key_gids(tid).get(key)
            if gid is not None:
                local_id = int(self.ctrace.tuple_local[gid])
                column = self._column(path)
                if not column.computed[local_id]:
                    if stats is not None:
                        stats.misses += 1
                    self._fill(path, column, np.asarray([local_id]))
                elif stats is not None:
                    stats.hits += 1
                value = self.values[int(column.codes[local_id])]
                memo[memo_key] = value
                return value
        # Key outside the trace (e.g. a caller probing ad hoc): fall back
        # to a memoized object walk.
        if stats is not None:
            stats.misses += 1
        value = self._walker._walk(path, key)
        memo[memo_key] = value
        return value

    # ------------------------------------------------------------------
    # Definition 7: vectorized mapping-independence
    # ------------------------------------------------------------------
    def _chunk_tables(self, view: ColumnarClassTrace, start: int, stop: int):
        """Per-table (global ids, local ids) of one chunk's unique tuples."""
        key = (view.class_name, start, stop)
        cached = self._view_locals.get(key)
        if cached is None:
            ctrace = self.ctrace
            uoffsets = view.uoffsets
            uids = view.utuple_ids[uoffsets[start] : uoffsets[stop]]
            unique_gids = np.unique(uids)
            tids = ctrace.tuple_table[unique_gids]
            cached = {}
            for tid in np.unique(tids).tolist():
                gids = unique_gids[tids == tid]
                cached[tid] = (gids, ctrace.tuple_local[gids])
            self._view_locals[key] = cached
        return cached

    def tree_is_mapping_independent(
        self, tree, view: ColumnarClassTrace, stats=None
    ) -> tuple[bool, int]:
        """Definition-7 verdict plus the number of covered tuple probes.

        Segmented min/max over each transaction's deduplicated tuple ids:
        a transaction refutes when a covered tuple has no root value
        (code 0) or two covered tuples carry different codes. Identical to
        the object scan's chained ``!=`` comparisons because the codes
        intern value equality.

        The stream is processed in geometrically growing transaction
        chunks (64, 128, 256, ...) with an early exit on the first
        refuting chunk — most candidate trees are refuted within the
        first few transactions, and the lazy code columns then never walk
        the rest of the class's tuples. Chunk boundaries are fixed, so
        the verdict and probe count are deterministic.
        """
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
            per_table = self._chunk_tables(view, pos, stop)
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
        distinct value code — it is a deterministic pure function
        (process-independent ``stable_hash``), so this yields exactly the
        ids the object path computes per access. The code -> pid table is
        cached per mapping identity; codes intern value equality, so the
        table is shared across every path that produces the same values.
        """
        self._check_version()
        codes = self.ensure_codes(path, local_ids, stats)[local_ids]
        cached = self._luts.get(id(mapping))
        if cached is None or cached[0] is not mapping:
            cached = (mapping, {0: -1})
            self._luts[id(mapping)] = cached
        code_pid = cached[1]
        unique = np.unique(codes)
        values = self.values
        upids = np.empty(unique.size, dtype=np.int64)
        for i, code in enumerate(unique.tolist()):
            pid = code_pid.get(code)
            if pid is None:
                pid = int(mapping(values[code]))
                code_pid[code] = pid
            upids[i] = pid
        return upids[np.searchsorted(unique, codes)]

    def class_value_luts(
        self, view: ColumnarClassTrace, paths, stats=None
    ) -> dict[str, dict]:
        """Per-table ``{key: root value}`` over every tuple *view* touches.

        Feeds the scalar loops (greedy blame, the statistics fallback)
        that probe one access at a time: a plain dict get replaces a
        memoized ``evaluate_one`` call. Values come from the same lazy
        code columns, so they are identical to scalar evaluation, and the
        caller keeps its own iteration order — only the value lookup is
        swapped out, which preserves bit-identical downstream set
        construction.
        """
        self._check_version()
        per_table = self._chunk_tables(view, 0, len(view))
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


class ColumnarPathEvaluator:
    """Per-class counter facade over a shared :class:`ColumnarEngine`.

    Quacks like :class:`JoinPathEvaluator` (``evaluate``, ``mi_tests``,
    ``cache_stats``…) so greedy elimination, partial-solution mining and
    the statistics fallback run unchanged — every scalar ``evaluate``
    resolves to an array probe of the engine's interned columns.
    ``JoinTree.is_mapping_independent`` detects the ``engine`` attribute
    and dispatches whole trace views to the vectorized kernel.
    """

    def __init__(self, engine: ColumnarEngine) -> None:
        self.engine = engine
        self.database = engine.database
        self.snapshots = engine.snapshots
        self.cache_stats = CacheStats()
        self.mi_tests = 0
        self.mi_refuted = 0
        self.evaluations = 0
        self.mi_seconds = 0.0

    def evaluate(self, path: JoinPath, key: tuple) -> Any:
        self.evaluations += 1
        return self.engine.evaluate_one(path, tuple(key), self.cache_stats)

    def clear_cache(self) -> None:  # pragma: no cover - API parity
        pass


def value_luts_for(evaluator, trace, paths) -> dict[str, dict] | None:
    """Per-table key -> root-value dicts, when the pair is columnar-backed.

    Returns ``None`` unless *evaluator* carries a :class:`ColumnarEngine`
    and *trace* is a class view of its interned trace — the scalar loops
    then fall back to per-access ``evaluate`` calls. When available, the
    dicts hold exactly the values scalar evaluation would return, computed
    in one batch per (table, path) instead of one memo probe per access.
    """
    engine = getattr(evaluator, "engine", None)
    if engine is None:
        return None
    if getattr(trace, "parent", None) is not engine.ctrace:
        return None
    return engine.class_value_luts(trace, paths, evaluator.cache_stats)
