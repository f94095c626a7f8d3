"""A deterministic in-process simulation of an N-node partitioned cluster.

The static :class:`~repro.evaluation.evaluator.PartitioningEvaluator`
*counts* which partitions a transaction would touch; the :class:`Cluster`
actually *places* every row on a node, executes transactions against the
placed data, and charges a 2PC-style coordination cost to every
multi-participant commit. With faults disabled and one node per partition
the simulated distributed-transaction fraction reproduces Definition 6
exactly (the property tests pin this), while being computed by a genuinely
different code path — a differential check on the whole evaluation stack.

Two execution modes share all placement and accounting logic:

* :meth:`Cluster.run_trace` replays a collected trace's tuple accesses —
  the accounting twin of the static evaluator, used by the evaluation
  framework and the benchmarks;
* :meth:`Cluster.execute` runs a stored procedure live through the
  existing :class:`~repro.routing.router.Router` (coordinator choice) and
  :class:`~repro.engine.executor.Executor` (data access, appending its
  access records to the running transaction's list, which an abort
  clears), buffering writes, aborting atomically when a touched node is
  down, and applying committed writes to the owning nodes (write-through
  placement).

Both run each transaction through one attempt loop (aborts, retries and
their backoff cost) and resolve it against one kept snapshot of the
placement and the live nodes, taken again only once something changed;
a live transaction that moved rows takes its own.

Where every row lives comes from one
:class:`~repro.core.placement.PlacementStore` per installed partitioning,
shared with the cluster's router; the cluster walks no join path itself.
Each node holds plain row maps, the copies placed on it.

Fault injection (:class:`~repro.cluster.faults.FaultPlan`) crashes and
recovers nodes and installs new partitionings between transactions;
recovery resyncs replicas that diverged while down, and repartitioning
migrates rows to their new homes, counting moved tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Iterable,
    Mapping,
    NoReturn,
    Sequence,
)

from repro.cluster.faults import CRASH, RECOVER, REPARTITION, FaultPlan
from repro.cluster.node import Liveness, Node
from repro.core.mapping import REPLICATED
from repro.core.metrics import ClusterMetrics
from repro.core.placement import MOVE, UNROUTABLE, PlacementStore
from repro.core.solution import DatabasePartitioning
from repro.engine.executor import Executor
from repro.errors import ClusterError, ClusterUnavailable
from repro.procedures.procedure import ProcedureCatalog
from repro.routing.router import Router, RoutingDecision
from repro.storage.database import Database
from repro.storage.table import KeyValue, Row
from repro.trace.events import Access, Trace, TransactionTrace


@dataclass(frozen=True)
class CostConfig:
    """Simulated cost units (not wall time) charged per transaction.

    A local transaction costs ``local_unit``. A distributed one costs
    ``local_unit + coordinator_overhead + (prepare_unit + commit_unit) *
    participants`` — one prepare and one commit message per participant,
    plus fixed coordinator work. Aborted attempts retry up to
    ``max_retries`` times with exponentially growing backoff cost.
    """

    local_unit: float = 1.0
    coordinator_overhead: float = 0.5
    prepare_unit: float = 0.25
    commit_unit: float = 0.25
    retry_backoff_unit: float = 0.5
    backoff_factor: float = 2.0
    max_retries: int = 3

    def distributed_overhead(self, participants: int) -> float:
        """Coordination cost beyond the local unit for one commit."""
        return self.coordinator_overhead + (
            self.prepare_unit + self.commit_unit
        ) * participants

    def backoff_cost(self, attempt: int) -> float:
        return self.retry_backoff_unit * (self.backoff_factor**attempt)


@dataclass
class _Resolution:
    """Who must participate in one transaction, and why."""

    participants: set[int]
    broadcast: bool = False
    failovers: int = 0
    #: (node_id, table) pairs that missed a replicated write while down
    divergent: Collection[tuple[int, str]] = ()


#: one buffered store change (see ``PlacementSubscriber.placement_changed``)
_Change = tuple[
    str, str, KeyValue, "Row | None", "Row | None", "int | None", "int | None"
]
#: "this snapshot has not read the table's column yet"
_UNREAD: Any = object()


class _Snapshot:
    """What resolving accesses reads: the store's pid columns and the
    live nodes, as they stand while the snapshot is in use.

    The cluster keeps one (:meth:`Cluster._replay_snapshot`) for as long
    as the store, the source database (its write counter) and the live set
    (the cluster's liveness epoch) stay as they were when it was taken:
    replay resolves against it across :meth:`Cluster.run_trace` calls, and
    so does a live transaction that moved no rows, after its writes. Only a
    transaction that moved rows takes one of its own, which also knows
    where the nodes still hold them. A column is read on its table's first
    access and kept: nothing writes while the snapshot is in use, so the
    store's version check would find it in step every time.
    """

    __slots__ = ("store", "columns", "up", "down", "moved")

    def __init__(
        self,
        store: PlacementStore,
        nodes: Collection[Node],
        moved: Mapping[tuple[str, KeyValue], int] | None = None,
    ) -> None:
        self.store = store
        #: table -> pid column read so far (``None``: replicated table)
        self.columns: dict[str, dict[KeyValue, int] | None] = {}
        # One plain loop: every transaction that wrote takes a new one.
        up: list[int] = []
        down: list[int] = []
        for node in nodes:
            (up if node.up else down).append(node.node_id)
        self.up = frozenset(up)
        self.down = down
        #: rows the running transaction moved: (table, key) -> pid before it
        self.moved = moved

    def pid(self, table: str, key: KeyValue) -> int:
        """Partition id of *key* (a moved row's from before the transaction)."""
        if self.moved:
            pid = self.moved.get((table, key))
            if pid is not None:
                return pid
        pids = self.columns.get(table, _UNREAD)
        if pids is _UNREAD:
            pids = self.columns[table] = self.store.pids(table)
        if pids is None:
            return REPLICATED
        pid = pids.get(key)
        if pid is None:  # not a live row
            pid = self.store.pid_of(table, key)
        return pid


class Cluster:
    """N nodes, a physical placement of every row, and a 2PC coordinator.

    ``database`` stays the logical source of truth (what the union of all
    partitions contains); each :class:`~repro.cluster.node.Node` holds the
    physically placed copies, homed by :attr:`store`. Live execution runs
    against the source and, on commit, moves each row the store changed
    from its old partition's nodes to its new one's; writes made outside
    a transaction are mirrored at once.

    ``num_nodes`` defaults to one node per partition; with fewer nodes
    than partitions, partition ids wrap around the ring
    (``node_of``).
    """

    def __init__(
        self,
        database: Database,
        catalog: ProcedureCatalog,
        partitioning: DatabasePartitioning,
        num_nodes: int | None = None,
        cost: CostConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.source = database
        self.schema = database.schema
        self.catalog = catalog
        self.num_nodes = num_nodes or partitioning.num_partitions
        if self.num_nodes < 1:
            raise ClusterError("need at least one node")
        self.cost = cost or CostConfig()
        self.fault_plan = fault_plan or FaultPlan()
        for event in self.fault_plan:
            if event.node is not None and not (1 <= event.node <= self.num_nodes):
                raise ClusterError(
                    f"fault plan targets unknown node {event.node}"
                )
        self.metrics = ClusterMetrics(nodes=self.num_nodes)
        self._liveness = Liveness()
        self.nodes: dict[int, Node] = {
            node_id: Node(node_id, self.schema, self._liveness)
            for node_id in range(1, self.num_nodes + 1)
        }
        self._all_nodes = tuple(self.nodes)
        self.partitioning = partitioning
        self.store: PlacementStore | None = None
        self.router: Router | None = None
        self._tick = 0
        self._fault_cursor = 0
        #: the running transaction's store changes (None outside one)
        self._txn_log: list[_Change] | None = None
        #: the running transaction's accesses, cleared between transactions
        self._txn_access: list[Access] = []
        self._undoing = False
        #: the replay snapshot, and the (store, source writes, liveness
        #: epoch) it was taken at
        self._replay: _Snapshot | None = None
        self._replay_stamp: tuple[PlacementStore | None, int, int] | None = None
        #: runs every procedure call against the source and appends its
        #: accesses to ``_txn_access``; the executor holds no reference to
        #: the cluster, so the two form no reference cycle
        self._executor = Executor(self.source, accesses=self._txn_access)
        self.install(partitioning, _initial=True)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def node_of(self, pid: int) -> int:
        """Node hosting partition *pid* (ring wrap when nodes < partitions)."""
        return 1 + (pid - 1) % self.num_nodes

    def up_node_ids(self) -> frozenset[int]:
        return frozenset(n.node_id for n in self.nodes.values() if n.up)

    @property
    def tick(self) -> int:
        """Index of the next transaction to run (fault-plan time base)."""
        return self._tick

    def close(self) -> None:
        """Detach the router and the placement store from the source."""
        if self.router is not None:
            self.router.close()
            self.router = None
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def install(
        self, partitioning: DatabasePartitioning, _initial: bool = False
    ) -> int:
        """Make *partitioning* live, migrating rows to their new homes.

        Returns the number of row copies that had to be created on nodes
        that did not hold them (the "moved tuples" of a live
        repartitioning). A new placement store and router are built over
        the new layout and node contents are synced to it — including
        nodes that are currently down (repartitioning is substrate
        maintenance, so it also clears any pending replica divergence).
        """
        self.partitioning = partitioning
        if self.router is not None:
            self.router.close()
        if self.store is not None:
            self.store.close()
        store = self.store = PlacementStore(self.source, partitioning).attach()
        for table_schema in self.schema.tables:
            store.subscribe(table_schema.name, self)
        self.router = Router(self.source, self.catalog, partitioning, store=store)
        inserted = 0
        for table_schema in self.schema.tables:
            inserted += self._sync_table(table_schema.name)[0]
        for node in self.nodes.values():
            node.divergent.clear()
        if _initial:
            metrics = self.metrics
            for table_schema in self.schema.tables:
                pids = store.pids(table_schema.name)
                if pids is None:
                    metrics.tuples_replicated += len(
                        self.source.table(table_schema.name)
                    )
                    continue
                for pid in pids.values():
                    if pid > 0:
                        metrics.tuples_placed += 1
                    elif pid == REPLICATED:
                        metrics.tuples_replicated += 1
                    else:
                        metrics.unroutable_tuples += 1
            return 0
        self.metrics.repartitions += 1
        self.metrics.tuples_migrated += inserted
        return inserted

    def _holders(self, pid: int | None) -> tuple[int, ...]:
        """Nodes holding a row of partition *pid* (none while not live)."""
        if pid is None:
            return ()
        if pid > 0:
            return (self.node_of(pid),)
        return self._all_nodes

    def _sync_table(
        self, table_name: str, targets: Iterable[Node] | None = None
    ) -> tuple[int, int, int]:
        """Sync node contents for *table_name* with the store's pid column.

        Returns ``(inserted, removed, updated)`` row counts across the
        synced nodes (*targets*, or all of them).
        """
        assert self.store is not None
        table = self.source.table(table_name)
        pids = self.store.pids(table_name)
        wanted: dict[int, dict[KeyValue, Row]]
        if pids is None:
            everything = dict(table.items())
            wanted = {node_id: everything for node_id in self.nodes}
        else:
            wanted = {node_id: {} for node_id in self.nodes}
            every = tuple(wanted.values())
            homed: dict[int, dict[KeyValue, Row]] = {}
            for key, row in table.items():
                pid = pids[key]
                if pid > 0:
                    rows = homed.get(pid)
                    if rows is None:
                        rows = homed[pid] = wanted[self.node_of(pid)]
                    rows[key] = row
                else:
                    for rows in every:
                        rows[key] = row
        inserted = removed = updated = 0
        for node in self.nodes.values() if targets is None else targets:
            rows = node.tables[table_name]
            want = wanted[node.node_id]
            for key in [key for key in rows if key not in want]:
                del rows[key]
                removed += 1
            for key, row in want.items():
                copy = rows.get(key)
                if copy is None:
                    inserted += 1
                elif copy == row:
                    continue
                else:
                    updated += 1
                rows[key] = dict(row)
        return inserted, removed, updated

    # ------------------------------------------------------------------
    # fault schedule
    # ------------------------------------------------------------------
    def _advance_faults(self) -> bool:
        """Fire every event due by the current tick; True if any fired."""
        events = self.fault_plan.events
        fired = False
        while (
            self._fault_cursor < len(events)
            and events[self._fault_cursor].tick <= self._tick
        ):
            event = events[self._fault_cursor]
            self._fault_cursor += 1
            fired = True
            if event.action == CRASH:
                node = self.nodes[event.node]
                if node.up:
                    node.crash()
                    self.metrics.crashes += 1
            elif event.action == RECOVER:
                node = self.nodes[event.node]
                if not node.up:
                    node.recover()
                    self.metrics.recoveries += 1
                    for table_name in sorted(node.divergent):
                        ins, rem, upd = self._sync_table(table_name, [node])
                        self.metrics.rows_resynced += ins + rem + upd
                    node.divergent.clear()
            elif event.action == REPARTITION:
                assert event.partitioning is not None
                self.install(event.partitioning)
        return fired

    def _snapshot(
        self, moved: Mapping[tuple[str, KeyValue], int] | None = None
    ) -> _Snapshot:
        assert self.store is not None
        return _Snapshot(self.store, self.nodes.values(), moved)

    def _replay_snapshot(self) -> _Snapshot:
        """The kept snapshot, taken again once the store, the source or
        the live set changed since it was taken."""
        stamp = (self.store, self.source.writes, self._liveness.epoch)
        if self._replay is None or stamp != self._replay_stamp:
            self._replay = self._snapshot()
            self._replay_stamp = stamp
        return self._replay

    # ------------------------------------------------------------------
    # trace replay (the accounting twin of the static evaluator)
    # ------------------------------------------------------------------
    def run_trace(self, trace: Trace | Iterable[TransactionTrace]) -> ClusterMetrics:
        """Replay every transaction's recorded accesses, with accounting.

        No data moves (the trace carries keys, not values): this mode
        resolves each access to its physical participants and charges the
        commit protocol — exactly what the acceptance tests compare
        against the static evaluator.

        The call resolves against a snapshot of the placement and the
        live nodes, which it checks at its first transaction and after each
        fault event, so the source must not be written while the call
        runs. The snapshot outlives the call: the next call keeps it unless
        the store was replaced, the source written or a node crashed or
        recovered since, so writes and crashes between two calls are seen
        by the second.
        """
        attempt, resolve = self._attempt, self._resolve_accesses
        commit = self._commit
        snapshot: _Snapshot | None = None
        for txn in trace:
            if self._advance_faults() or snapshot is None:
                snapshot = self._replay_snapshot()
            resolution = attempt(resolve, snapshot, txn.accesses, txn.txn_id)
            if resolution is not None:
                commit(resolution, txn.class_name)
            self._tick += 1
        return self.metrics

    def _attempt(
        self, once: Callable[..., _Resolution], *arguments: Any
    ) -> _Resolution | None:
        """Count one transaction and call ``once(*arguments)`` until it
        returns the transaction's resolution, or ``None`` once it has
        aborted ``max_retries + 1`` times.

        Each :class:`ClusterUnavailable` is an abort; every one but the
        last is retried at the growing backoff cost.
        """
        metrics = self.metrics
        metrics.transactions += 1
        attempts = 0
        while True:
            try:
                return once(*arguments)
            except ClusterUnavailable:
                metrics.aborts += 1
                if attempts >= self.cost.max_retries:
                    metrics.failed += 1
                    return None
                metrics.retries += 1
                metrics.retry_cost_units += self.cost.backoff_cost(attempts)
                attempts += 1

    # ------------------------------------------------------------------
    # access resolution
    # ------------------------------------------------------------------
    def _resolve_accesses(
        self,
        snapshot: _Snapshot,
        accesses: Sequence[Access],
        txn_id: int,
        coordinator_hint: int | None = None,
    ) -> _Resolution:
        """Map recorded accesses to the set of participating nodes.

        Each distinct partition id is mapped to its node once. Raises
        :class:`ClusterUnavailable` when a singly-homed row's node is down
        — the transaction cannot proceed and must abort. Dead replicas
        never abort a transaction: replicated reads fail over to a live
        copy and replicated writes skip the dead node (recorded for resync
        on recovery).
        """
        up = snapshot.up
        if not up:
            raise ClusterUnavailable("no live nodes in the cluster")
        # A transaction that moved rows reads every pid through
        # ``snapshot.pid``, which knows where the nodes still hold them.
        columns = {} if snapshot.moved else snapshot.columns
        homed: set[int] = set()
        # tables with a replicated or unroutable row written
        spread: list[str] = []
        everywhere = broadcast = replicated_read = False
        for table, key, write in accesses:
            # ``snapshot.pid``'s common case, inlined: a hot path
            pids = columns.get(table, _UNREAD)
            if pids is None:
                pid = REPLICATED
            elif pids is _UNREAD or (pid := pids.get(key)) is None:
                pid = snapshot.pid(table, key)
            if pid > 0:
                homed.add(pid)
            elif pid == REPLICATED and not write:
                replicated_read = True
            else:  # a replicated write or an unroutable access
                everywhere = True
                if pid == UNROUTABLE:
                    broadcast = True
                if write:
                    spread.append(table)
        participants: set[int] = set()
        num_nodes = self.num_nodes
        for pid in homed:
            participants.add(1 + (pid - 1) % num_nodes)  # node_of, inlined
        if not participants <= up:
            self._raise_down(snapshot, accesses)
        resolution = _Resolution(participants, broadcast)
        if everywhere:
            participants |= up
        elif not participants:
            coordinator, failed_over = self._pick_coordinator(
                txn_id, up, coordinator_hint
            )
            participants.add(coordinator)
            if failed_over and replicated_read:
                resolution.failovers += 1
        if spread and snapshot.down:
            resolution.divergent = {
                (node_id, table) for node_id in snapshot.down for table in spread
            }
            resolution.failovers += len(snapshot.down)
        return resolution

    def _raise_down(
        self, snapshot: _Snapshot, accesses: Sequence[Access]
    ) -> NoReturn:
        """Raise :class:`ClusterUnavailable` for the first access, in
        order, whose home node is down."""
        for table, key, _ in accesses:
            pid = snapshot.pid(table, key)
            if pid > 0:
                home = self.node_of(pid)
                if home not in snapshot.up:
                    raise ClusterUnavailable(
                        f"node {home} holding {table}{key} is down"
                    )
        raise AssertionError("no access has a down home node")

    def _pick_coordinator(
        self, txn_id: int, up: frozenset[int], hint: int | None
    ) -> tuple[int, bool]:
        """Deterministic coordinator for transactions with no pinned node.

        Returns ``(node_id, failed_over)``; *failed_over* is True when the
        preferred node was down and a live replica took over.
        """
        preferred = hint if hint is not None else 1 + (txn_id % self.num_nodes)
        if preferred in up:
            return preferred, False
        for offset in range(1, self.num_nodes + 1):
            candidate = 1 + (preferred - 1 + offset) % self.num_nodes
            if candidate in up:
                return candidate, True
        raise ClusterUnavailable("no live nodes in the cluster")

    # ------------------------------------------------------------------
    # commit accounting
    # ------------------------------------------------------------------
    def _commit(self, resolution: _Resolution, class_name: str) -> None:
        metrics = self.metrics
        participants = len(resolution.participants)
        metrics.record_participation(resolution.participants)
        metrics.local_cost_units += self.cost.local_unit
        if resolution.broadcast:
            metrics.broadcasts += 1
        metrics.replica_failovers += resolution.failovers
        if resolution.divergent:
            for node_id, table in resolution.divergent:
                self.nodes[node_id].divergent.add(table)
        if participants > 1:
            metrics.committed_distributed += 1
            metrics.per_class_distributed[class_name] = (
                metrics.per_class_distributed.get(class_name, 0) + 1
            )
            metrics.prepare_messages += participants
            metrics.commit_messages += participants
            metrics.coordination_cost_units += self.cost.distributed_overhead(
                participants
            )
        else:
            metrics.committed_local += 1

    # ------------------------------------------------------------------
    # live execution
    # ------------------------------------------------------------------
    def execute(self, name: str, arguments: Mapping[str, Any]) -> bool:
        """Run one stored procedure against the cluster; True on commit.

        The call is routed through the runtime router (its decision seeds
        the coordinator choice), executed against the logical source by
        the standard executor, and committed to the owning nodes. If a
        touched node is down the attempt aborts atomically (all source
        writes undone) and is retried with bounded backoff; permanent
        failure leaves no trace of the transaction anywhere.
        """
        self._advance_faults()
        procedure = self.catalog.get(name)
        assert self.router is not None
        decision = self.router.route(name, arguments)
        hint = self._coordinator_hint(decision)
        resolution = self._attempt(
            self._execute_once, procedure, arguments, hint
        )
        if resolution is not None:
            self._commit(resolution, procedure.name)
        self._tick += 1
        return resolution is not None

    def _coordinator_hint(self, decision: RoutingDecision) -> int | None:
        if decision.broadcast or not decision.partitions:
            return None
        pid = min(decision.partitions)
        if pid == REPLICATED:
            return None
        return self.node_of(pid)

    def _execute_once(
        self,
        procedure: Any,
        arguments: Mapping[str, Any],
        hint: int | None,
    ) -> _Resolution:
        """One attempt: run the procedure, then move the rows it changed
        on the nodes; returns who took part."""
        self._begin()
        try:
            procedure.execute(self._executor, dict(arguments))
            log = self._txn_log
            changes = self._net_changes(log) if log else {}
            # until commit, the nodes hold a moved row on its old partition
            moved = {
                row: change[0]
                for row, change in changes.items()
                if change[0] is not None
            }
            # a transaction that moved no rows reads what a replay would
            snapshot = (
                self._snapshot(moved) if moved else self._replay_snapshot()
            )
            resolution = self._resolve_accesses(
                snapshot, self._txn_access, self._tick, hint
            )
            if log:
                self._add_write_homes(log, resolution)
        except BaseException:
            self._rollback()
            raise
        self._txn_log = None
        self._txn_access.clear()
        assert self.store is not None
        self.store.commit()
        for (table, key), (old_pid, new_pid, row) in changes.items():
            self._apply_change(table, key, old_pid, new_pid, row)
        return resolution

    def _begin(self) -> None:
        """Start buffering a transaction's writes and store changes."""
        self._txn_log = []
        self._txn_access.clear()
        assert self.store is not None
        self.store.begin()

    @staticmethod
    def _net_changes(log: list[_Change]) -> dict[tuple[str, KeyValue], list]:
        """Per changed row, in first-change order: its pid before the
        transaction, its pid now and its content now."""
        net: dict[tuple[str, KeyValue], list] = {}
        for table, _, key, _, new, old_pid, new_pid in log:
            entry = net.get((table, key))
            if entry is None:
                net[(table, key)] = [old_pid, new_pid, new]
            else:
                entry[1] = new_pid
                entry[2] = new
        return net

    def _add_write_homes(
        self, log: list[_Change], resolution: _Resolution
    ) -> None:
        """Add the home node of every row the transaction wrote.

        Raises :class:`ClusterUnavailable` when one is down, before
        anything reaches a node, so the caller can still abort atomically.
        """
        assert self.store is not None
        for table, op, key, _, _, _, _ in log:
            if op == MOVE or op == "delete":
                continue
            pid = self.store.pid_of(table, key)
            if pid > 0:
                home = self.node_of(pid)
                if not self.nodes[home].up:
                    raise ClusterUnavailable(
                        f"node {home} owning {table}{key} is down"
                    )
                resolution.participants.add(home)

    def _rollback(self) -> None:
        """Undo every buffered source write, newest first.

        The nodes never saw the transaction, so its store changes are
        dropped, and so are the ones the undo makes: the store's
        :meth:`~repro.core.placement.PlacementStore.abort` puts every
        moved row back to its pid from before the transaction.
        """
        log = self._txn_log or []
        self._txn_log = None
        self._txn_access.clear()
        store = self.store
        assert store is not None
        self._undoing = True
        try:
            for table, op, key, old, new, _, _ in reversed(log):
                source_table = self.source.table(table)
                if op == "insert":
                    source_table.delete(key)
                    # *old* is the tombstone the insert replaced.
                    store.restore_tombstone(table, key, old)
                elif op == "delete":
                    assert old is not None
                    source_table.insert(old)
                elif op == "update":
                    assert old is not None and new is not None
                    primary = set(source_table.schema.primary_key)
                    changes = {
                        column: value
                        for column, value in old.items()
                        if column not in primary and new.get(column) != value
                    }
                    if changes:
                        source_table.update(key, changes)
            store.abort()
        finally:
            self._undoing = False

    # ------------------------------------------------------------------
    # physical write-through (the store's change feed)
    # ------------------------------------------------------------------
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
        """Buffer a store change inside a transaction, else mirror it
        (benchmark loaders and tests write to the source directly)."""
        if self._undoing:
            return
        if self._txn_log is not None:
            self._txn_log.append((table, op, key, old, new, old_pid, new_pid))
        else:
            self._apply_change(table, key, old_pid, new_pid, new)

    def placement_reset(self, table: str) -> None:
        """The store filled *table*'s column again: resync the live nodes.

        A down node is left alone and marked divergent, so its recovery
        resyncs (and counts) the table.
        """
        up = [node for node in self.nodes.values() if node.up]
        self._sync_table(table, up)
        for node in self.nodes.values():
            if node.up:
                node.divergent.discard(table)
            else:
                node.divergent.add(table)

    def _apply_change(
        self,
        table: str,
        key: KeyValue,
        old_pid: int | None,
        new_pid: int | None,
        row: Row | None,
    ) -> None:
        """Move one row (content *row*) from the nodes of *old_pid* to
        those of *new_pid*. A home node takes the row even while down;
        copies everywhere skip down nodes, which are marked divergent."""
        old_nodes = self._holders(old_pid)
        new_nodes = self._holders(new_pid)
        homed = new_pid is not None and new_pid > 0
        for node_id in new_nodes:
            node = self.nodes[node_id]
            if node.up or homed:
                assert row is not None
                rows = node.tables[table]
                if rows.get(key) != row:
                    rows[key] = dict(row)
            else:
                node.divergent.add(table)
        for node_id in old_nodes:
            if node_id in new_nodes:
                continue
            node = self.nodes[node_id]
            if node.up:
                node.tables[table].pop(key, None)
            else:
                node.divergent.add(table)
        if old_pid is None or new_pid is None:
            if new_pid == UNROUTABLE:
                self.metrics.unroutable_tuples += 1
            return
        if new_pid == UNROUTABLE and old_pid > 0:
            self.metrics.unroutable_tuples += 1
        if (old_pid > 0 and new_nodes != old_nodes) or (
            old_pid <= 0 and homed
        ):
            self.metrics.tuples_migrated += 1

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_conservation(self) -> list[str]:
        """Verify no row is lost or duplicated across the cluster.

        Every source row must live on exactly its placement's node set
        (one home node, or every node for replicated/unroutable data), no
        node may hold a row the source lacks, and placed copies must equal
        the source content. Tables marked divergent on a down node are
        exempt until recovery resyncs them. The check changes nothing: a
        store column that missed writes is reported, not refilled, and
        nodes are compared with it as it stands. Returns a list of problem
        descriptions — empty means the invariant holds.
        """
        problems: list[str] = []
        store = self.store
        assert store is not None
        for table_schema in self.schema.tables:
            name = table_schema.name
            if not store.in_step(name):
                problems.append(f"store column {name} out of step")
            source_table = self.source.table(name)
            source_rows = dict(source_table.items())
            checked = [
                node
                for node in self.nodes.values()
                if name not in node.divergent
            ]
            holders: dict[KeyValue, set[int]] = {}
            for node in checked:
                for key, row in node.tables[name].items():
                    holders.setdefault(key, set()).add(node.node_id)
                    expected_row = source_rows.get(key)
                    if expected_row is None:
                        problems.append(
                            f"{name}{key}: on node {node.node_id} "
                            "but not in the source"
                        )
                    elif row != expected_row:
                        problems.append(
                            f"{name}{key}: content on node {node.node_id} "
                            "differs from the source"
                        )
            pids = store.held(name)
            checked_ids = {node.node_id for node in checked}
            for key in source_rows:
                where = holders.get(key, set())
                pid = REPLICATED if pids is None else pids.get(key)
                if pid is None:
                    problems.append(f"{name}{key}: no placement")
                elif pid <= 0:
                    if where != checked_ids:
                        problems.append(
                            f"{name}{key}: replicated on {sorted(where)}, "
                            f"expected {sorted(checked_ids)}"
                        )
                else:
                    home = self.node_of(pid)
                    expected = {home} if home in checked_ids else set()
                    if where != expected:
                        problems.append(
                            f"{name}{key}: on {sorted(where)}, "
                            f"expected {sorted(expected)}"
                        )
        return problems

    def __repr__(self) -> str:
        up = len(self.up_node_ids())
        return (
            f"Cluster(nodes={self.num_nodes} ({up} up), "
            f"partitioning={self.partitioning.name!r}, tick={self._tick})"
        )
