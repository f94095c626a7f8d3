"""Evaluating join paths on live data: tuple -> root-attribute value.

A join path ``p(key(T), X)`` is a mapping from each tuple of ``T`` to one
value of ``X`` (Section 5). Each path is compiled once into a
:class:`_PathPlan`, the one walker every layer shares. It walks a batch
of keys one hop at a time. The first hop's values come from the keys, or
from the source rows, fetched only when a needed column is not in the
primary key — so paths that stay inside the key (e.g. TPC-C's
``NO_W_ID``) still evaluate for tuples that have since been deleted.
Each hop then probes only the distinct values its memo has not seen (a
hop into a primary key in one
:meth:`~repro.storage.table.Table.get_snapshots` call), so keys that
share any suffix of their walk share its probes. The single-key entry
points, :meth:`_PathPlan.value` and :meth:`_PathPlan.row_value`, are
batches of one.

:class:`ColumnarEngine` is the one evaluator of trace-driven decisions:
it stores walk results as interned code columns over a
:class:`~repro.trace.columnar.ColumnarTrace` and answers Definition 7
(mapping independence) and the per-key partition ids Definitions 5/6
need, for views of that trace only. The serving tier places live rows
through :class:`~repro.core.placement.PlacementStore`, which fills whole
columns on the same plans and walks single keys on them too. Plans get
their table handles from a shared :class:`SnapshotIndex`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.join_path import JoinPath
from repro.errors import PartitioningError
from repro.storage.database import Database
from repro.storage.table import Table
from repro.trace.columnar import ColumnarClassTrace, ColumnarTrace

#: code -> pid slot whose mapping has not been called yet
_NO_PID = np.iinfo(np.int64).min


class SnapshotIndex:
    """Per-table handles for one database, shared by walkers.

    A walk reads each table directly (the live row, else the tombstone of
    a deleted one), so a holder that outlives writes (the placement
    store) stays correct; the index only saves the database's
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


def _read(rows: Sequence[Any], columns: str | tuple) -> list[Any]:
    """Each row's value of one column (*columns* a name), or its tuple of
    values (*columns* a tuple of names); ``None`` for a missing row."""
    if isinstance(columns, str):
        return [None if row is None else row.get(columns) for row in rows]
    return [
        None if row is None else tuple(map(row.get, columns)) for row in rows
    ]


class _Hop:
    """One foreign-key hop of a plan and the walks it has resolved.

    A hop's values are the bare value of a one-column foreign key, else
    the tuple of its values. ``memo`` maps them to what the hop reads from
    the row it reaches (``out``): the next hop's values or, on the last
    hop, the root value. ``None`` maps to ``None``, so a failed walk
    passes through every later hop untouched.
    """

    __slots__ = ("table", "probe_pk", "ref_columns", "single", "out", "memo")

    def __init__(
        self, table: Table, ref_columns: tuple, out: str | tuple
    ) -> None:
        self.table = table
        #: a hop into the primary key reads live rows, then tombstones
        self.probe_pk = ref_columns == table.schema.primary_key
        self.ref_columns = ref_columns
        self.single = len(ref_columns) == 1
        self.out = out
        self.memo: dict[Any, Any] = {None: None}

    def resolve(self, fresh: set) -> None:
        """Probe the values in *fresh* (none memoized yet) and memoize
        what each reaches; a NULL foreign key reaches nothing."""
        memo = self.memo
        keys: Iterable[Any]
        if self.single:
            probe = list(fresh)  # None is memoized: no NULL here
            keys = zip(probe)  # 1-tuples
        else:
            probe = []
            for values in fresh:
                if None in values:
                    memo[values] = None
                else:
                    probe.append(values)
            keys = probe
        if self.probe_pk:
            found = self.table.get_snapshots(keys)
        else:
            lookup, ref_columns = self.table.lookup, self.ref_columns
            found = [
                matches[0] if (matches := lookup(ref_columns, key)) else None
                for key in keys
            ]
        memo.update(zip(probe, _read(found, self.out)))


class _PathPlan:
    """Compiled walk for one join path: the only code that walks one.

    Which columns are known at each step — the source table's primary
    key, then the current row's columns — is fixed by the path, so the
    fetch-or-not control flow is decided once here rather than per key.
    The first values of a walk — the first fk hop's, or the destination's
    when the path has no hop — come from the key (``pick``, an
    ``itemgetter``), so deleted rows still evaluate, or else from the
    source row (``columns``, read like a hop's ``out``).

    ``hops`` holds the fk hops from the first one on (intra steps there
    are no-ops: a row is always held after a hop). A batch moves through
    them one hop at a time, and each hop probes only the distinct values
    its memo has not seen — which is what makes walks over fact tables
    (order lines funneling into a few districts) cheap. The memos are
    only as fresh as the data they read, so a plan lives exactly as long
    as its holder's value memo (the placement store calls :meth:`forget`
    when a write can change a walk). A hop into the referenced table's
    primary key reads the live row, else the tombstone; any other hop
    reads the first live match. A NULL foreign key or a failed hop yields
    ``None``.
    """

    __slots__ = ("table", "npk", "arity", "pick", "columns", "hops")

    def __init__(self, path: JoinPath, snapshots: SnapshotIndex) -> None:
        self.table = snapshots.table(path.source_table)
        pk_columns = self.table.schema.primary_key
        pk_set = set(pk_columns)
        self.npk = len(pk_columns)
        self.arity = frozenset((self.npk,))
        dest_col = path.destination.column
        steps = list(zip(path.steps, path.nodes[1:]))
        fks = [step.fk for step, _node in steps if step.kind == "fk"]
        need_row = False
        for step, node in steps:
            if step.kind == "fk":
                break
            # an intra step needing a non-key column fetches the source
            # row; every later value then reads from that row
            if not all(a.column in pk_set for a in node):
                need_row = True
                break
        # intra steps after a hop are no-ops: a row is held
        outs = [_columns(fk.columns) for fk in fks[1:]] + [dest_col]
        first = tuple(fks[0].columns) if fks else (dest_col,)
        if need_row or not pk_set.issuperset(first):
            self.pick, self.columns = None, _columns(first)
        else:
            self.pick = itemgetter(*map(pk_columns.index, first))
            self.columns = None
        self.hops = tuple(
            _Hop(snapshots.table(fk.ref_table), tuple(fk.ref_columns), out)
            for fk, out in zip(fks, outs)
        )

    def forget(self) -> None:
        """Drop every memoized hop (a write may have changed a walk)."""
        for hop in self.hops:
            hop.memo.clear()
            hop.memo[None] = None

    def value(self, key: tuple) -> Any:
        """Root value for the source tuple *key*, or ``None``."""
        return self.values((key,))[0]

    def row_value(self, key: tuple, row: Any) -> Any:
        """:meth:`row_values` for one key."""
        return self.row_values((key,), (row,))[0]

    def values(self, keys: Sequence[tuple]) -> list[Any]:
        """Root value for each source tuple of *keys*, or ``None``.

        A key of the wrong arity names no tuple; the source rows (live,
        else tombstones) are fetched in one probe when the plan needs them.
        """
        if not self.arity.issuperset(map(len, keys)):
            npk = self.npk
            fit = [i for i, key in enumerate(keys) if len(key) == npk]
            out: list[Any] = [None] * len(keys)
            for i, value in zip(fit, self.values([keys[i] for i in fit])):
                out[i] = value
            return out
        rows = keys if self.pick is not None else self.table.get_snapshots(keys)
        return self.row_values(keys, rows)

    def row_values(
        self, keys: Sequence[tuple], rows: Sequence[Any]
    ) -> list[Any]:
        """Root values for *keys* whose source *rows* are in hand (the
        placement store's scan or write); a plan reading the key ignores
        *rows*."""
        if self.pick is not None:
            current = list(map(self.pick, keys))
        else:
            current = _read(rows, self.columns)
        for hop in self.hops:
            memo = hop.memo
            try:
                current = list(map(memo.__getitem__, current))
            except KeyError:  # some values are new to this hop
                hop.resolve(set(current).difference(memo))
                current = list(map(memo.__getitem__, current))
        return current


def _columns(columns: Sequence[str]) -> str | tuple:
    """How a walk reads *columns*: one name bare, several as a tuple."""
    return columns[0] if len(columns) == 1 else tuple(columns)


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
    * ``tuple_codes(view, paths)`` — the code of each distinct tuple a
      view touches, aligned with its deduplicated stream, for the Phase-2
      loops that read root values per transaction (greedy blame, the
      statistics fallback's co-access groups).

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
        self._value_codes: dict[Any, int] = {None: 0}
        self._columns: dict[JoinPath, _PathColumn] = {}
        self._plans: dict[JoinPath, _PathPlan] = {}
        #: {id(mapping) -> [mapping, value code -> partition id array]}
        self._luts: dict[int, list[Any]] = {}
        self._db_writes = database.writes

    # ------------------------------------------------------------------
    # per-path plans and code columns
    # ------------------------------------------------------------------
    def _check_version(self) -> None:
        """Drop every value cache if any table mutated since the last call.

        One compare of the database's write counter — far cheaper than a
        per-path version tuple, and the database is static for the whole
        search anyway (the trace is collected up front).
        """
        writes = self.database.writes
        if writes != self._db_writes:
            self._db_writes = writes
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

        One batch walk serves every key, so a fill never repeats a probe
        that two source keys share at any hop. Values new to the engine
        get codes in the order of *local_ids*.
        """
        keys = self.ctrace.keys_of[self.ctrace.table_ids[path.source_table]]
        values = self._plan(path).values([keys[i] for i in local_ids.tolist()])
        value_codes = self._value_codes
        for value in dict.fromkeys(values):
            if value not in value_codes:
                value_codes[value] = len(self.values)
                self.values.append(value)
        column.codes[local_ids] = list(map(value_codes.__getitem__, values))
        column.computed[local_ids] = True

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
        uoffsets = view.uoffsets
        uncovered_hi = np.iinfo(np.int64).max
        scratch = np.full(self.ctrace.n_tuples, -1, dtype=np.int64)
        probes = 0
        pos = 0
        size = 64
        while pos < ntxn:
            stop = min(pos + size, ntxn)
            size *= 2
            ustart = int(uoffsets[pos])
            if int(uoffsets[stop]) == ustart:
                pos = stop
                continue
            codes = self._gather(view, tree.paths, pos, stop, scratch, stats)
            offsets = uoffsets[pos : stop + 1] - ustart
            starts = offsets[:-1]
            lengths = offsets[1:] - starts
            # reduceat needs in-range start indices; trailing empty
            # segments are masked out through `lengths` below.
            safe_starts = np.minimum(starts, codes.size - 1)
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

    def tuple_codes(self, view: ColumnarClassTrace, paths, stats=None) -> Any:
        """The value code of each entry of ``view.utuple_ids`` (each
        transaction's distinct tuples, in first-access order): ``0`` for
        no value, ``-1`` for a tuple of a table *paths*
        (``{table: JoinPath}``) does not cover."""
        self._own(view)
        self._check_version()
        scratch = np.full(self.ctrace.n_tuples, -1, dtype=np.int64)
        return self._gather(view, paths, 0, len(view), scratch, stats)

    def _gather(self, view, paths, start: int, stop: int, scratch, stats):
        """Codes of transactions ``start:stop``'s distinct tuples.

        The one place that maps tuples to codes: each covered table's
        touched keys are filled (:meth:`ensure_codes`) and written into
        *scratch*, a ``-1``-filled array over every interned tuple; a
        caller may reuse it across chunks of one view and one *paths*.
        """
        table_ids = self.ctrace.table_ids
        per_table = view.chunk_tables(start, stop)
        for table, path in paths.items():
            entry = per_table.get(table_ids.get(table))
            if entry is None:
                continue  # the chunk never touches this table
            gids, local_ids = entry
            scratch[gids] = self.ensure_codes(path, local_ids, stats)[local_ids]
        uoffsets = view.uoffsets
        return scratch[view.utuple_ids[uoffsets[start] : uoffsets[stop]]]

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
