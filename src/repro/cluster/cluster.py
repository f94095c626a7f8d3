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
  :class:`~repro.engine.executor.Executor` (data access), buffering
  writes, aborting atomically when a touched node is down, and applying
  committed writes to the owning nodes (write-through placement).

Fault injection (:class:`~repro.cluster.faults.FaultPlan`) crashes and
recovers nodes and installs new partitionings between transactions;
recovery resyncs replicas that diverged while down, and repartitioning
migrates rows to their new homes, counting moved tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.cluster.faults import CRASH, RECOVER, REPARTITION, FaultPlan
from repro.cluster.node import Node
from repro.cluster.placement import PlacementMap
from repro.core.mapping import REPLICATED
from repro.core.metrics import ClusterMetrics
from repro.core.path_eval import JoinPathEvaluator
from repro.core.solution import DatabasePartitioning, PathEffect, TableSolution
from repro.engine.executor import Executor
from repro.errors import ClusterError, ClusterUnavailable
from repro.procedures.procedure import ProcedureCatalog
from repro.routing.router import Router, RoutingDecision
from repro.storage.database import Database
from repro.storage.table import KeyValue, Row, Table
from repro.trace.events import Trace, TransactionTrace, TupleAccess


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
    wrote_replicated: bool = False
    broadcast: bool = False
    failovers: int = 0
    #: (node_id, table) pairs that missed a replicated write while down
    divergent: set[tuple[int, str]] = field(default_factory=set)


#: A buffered source mutation: (table, op, key, old_row, new_row).
_Op = tuple[str, str, KeyValue, "Row | None", "Row | None"]


class Cluster:
    """N nodes, a physical placement of every row, and a 2PC coordinator.

    ``database`` stays the logical source of truth (what the union of all
    partitions contains); each :class:`~repro.cluster.node.Node` holds the
    physically placed copies. Live execution runs against the source and
    mirrors committed writes to the owning nodes, which keeps the
    router's write-through lookup tables and the placement map in lockstep
    with the data nodes.

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
        metrics: ClusterMetrics | None = None,
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
        self.metrics = metrics or ClusterMetrics()
        self.metrics.nodes = self.num_nodes
        self.nodes: dict[int, Node] = {
            node_id: Node(node_id, self.schema)
            for node_id in range(1, self.num_nodes + 1)
        }
        self._evaluator = JoinPathEvaluator(database)
        self.partitioning = partitioning
        self.placement = PlacementMap()
        self.router: Router | None = None
        self._tick = 0
        self._fault_cursor = 0
        self._txn_ops: list[_Op] | None = None
        self._txn_access: list[TupleAccess] = []
        self._undoing = False
        self._dependents: dict[str, set[str]] = {}
        self._listeners: dict[str, Any] = {}
        for table_schema in self.schema.tables:
            listener = self._make_listener(table_schema.name)
            self._listeners[table_schema.name] = listener
            self.source.table(table_schema.name).add_listener(listener)
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
        """Detach the router and the cluster's mutation listeners."""
        if self.router is not None:
            self.router.close()
            self.router = None
        for table_name, listener in self._listeners.items():
            self.source.table(table_name).remove_listener(listener)
        self._listeners = {}

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def install(
        self, partitioning: DatabasePartitioning, _initial: bool = False
    ) -> int:
        """Make *partitioning* live, migrating rows to their new homes.

        Returns the number of row copies that had to be created on nodes
        that did not hold them (the "moved tuples" of a live
        repartitioning). The router is rebuilt over the new layout and
        node contents are synced to the new placement — including nodes
        that are currently down (repartitioning is substrate maintenance,
        so it also clears any pending replica divergence).
        """
        self.partitioning = partitioning
        self._dependents = self._build_dependents()
        self._evaluator.clear_cache()
        if self.router is not None:
            self.router.close()
        self.router = Router(self.source, self.catalog, partitioning)
        placement = self._compute_placement()
        inserted = self._sync_nodes(placement)
        self.placement = placement
        for node in self.nodes.values():
            node.divergent.clear()
        if _initial:
            self.metrics.tuples_placed += placement.placed_count()
            self.metrics.tuples_replicated += placement.replicated_count() + sum(
                len(self.source.table(t)) for t in placement.replicated_tables
            )
            self.metrics.unroutable_tuples += placement.unroutable_count()
            return 0
        self.metrics.repartitions += 1
        self.metrics.tuples_migrated += inserted
        return inserted

    def _compute_placement(self) -> PlacementMap:
        placement = PlacementMap()
        for table_schema in self.schema.tables:
            name = table_schema.name
            solution = self.partitioning.solution_for(name)
            if solution.replicated:
                placement.replicate_table(name)
                continue
            table = self.source.table(name)
            for key in list(table.keys()):
                pid = solution.partition_of(key, self._evaluator)
                if pid is None:
                    placement.mark_unroutable(name, key)
                elif pid == REPLICATED:
                    placement.place_everywhere(name, key)
                else:
                    placement.place(name, key, self.node_of(pid))
        return placement

    def _desired_rows(
        self, table_name: str, placement: PlacementMap
    ) -> dict[int, dict[KeyValue, Row]]:
        table = self.source.table(table_name)
        replicate_all = table_name in placement.replicated_tables
        desired: dict[int, dict[KeyValue, Row]] = {
            node_id: {} for node_id in self.nodes
        }
        for row in table.scan():
            key = table.primary_key_of(row)
            if (
                replicate_all
                or placement.is_everywhere(table_name, key)
                or placement.is_unroutable(table_name, key)
            ):
                for per_node in desired.values():
                    per_node[key] = row
            else:
                home = placement.home_of(table_name, key)
                if home is not None:
                    desired[home][key] = row
        return desired

    def _sync_nodes(self, placement: PlacementMap) -> int:
        total_inserted = 0
        for table_schema in self.schema.tables:
            inserted, _, _ = self._sync_table(table_schema.name, placement)
            total_inserted += inserted
        return total_inserted

    def _sync_table(
        self,
        table_name: str,
        placement: PlacementMap,
        only: Node | None = None,
    ) -> tuple[int, int, int]:
        """Diff node contents for *table_name* against *placement*.

        Returns ``(inserted, removed, updated)`` row counts across the
        synced nodes (all of them, or just *only*).
        """
        desired = self._desired_rows(table_name, placement)
        targets = [only] if only is not None else list(self.nodes.values())
        inserted = removed = updated = 0
        for node in targets:
            node_table = node.database.table(table_name)
            want = desired[node.node_id]
            have = set(node_table.keys())
            for key in have - want.keys():
                node_table.delete(key)
                removed += 1
            for key, row in want.items():
                existing = node_table.get(key)
                if existing is None:
                    node_table.insert(row)
                    inserted += 1
                elif existing != row:
                    changes = {
                        column: value
                        for column, value in row.items()
                        if existing.get(column) != value
                    }
                    node_table.update(key, changes)
                    updated += 1
        return inserted, removed, updated

    def _build_dependents(self) -> dict[str, set[str]]:
        """table -> partitioned tables whose join paths hop into that table.

        A self-referencing path that lands back on its source table makes
        that table its own dependent.
        """
        out: dict[str, set[str]] = {}
        for table_schema in self.schema.tables:
            name = table_schema.name
            for dep in self.partitioning.solution_for(name).hop_targets:
                out.setdefault(dep, set()).add(name)
        return out

    # ------------------------------------------------------------------
    # fault schedule
    # ------------------------------------------------------------------
    def _advance_faults(self) -> None:
        events = self.fault_plan.events
        while (
            self._fault_cursor < len(events)
            and events[self._fault_cursor].tick <= self._tick
        ):
            event = events[self._fault_cursor]
            self._fault_cursor += 1
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
                        ins, rem, upd = self._sync_table(
                            table_name, self.placement, only=node
                        )
                        self.metrics.rows_resynced += ins + rem + upd
                    node.divergent.clear()
            elif event.action == REPARTITION:
                assert event.partitioning is not None
                self.install(event.partitioning)

    # ------------------------------------------------------------------
    # trace replay (the accounting twin of the static evaluator)
    # ------------------------------------------------------------------
    def run_trace(self, trace: Trace | Iterable[TransactionTrace]) -> ClusterMetrics:
        """Replay every transaction's recorded accesses, with accounting.

        No data moves (the trace carries keys, not values): this mode
        resolves each access to its physical participants and charges the
        commit protocol — exactly what the acceptance tests compare
        against the static evaluator.
        """
        for txn in trace:
            self._advance_faults()
            self._replay_transaction(txn)
            self._tick += 1
        return self.metrics

    def _replay_transaction(self, txn: TransactionTrace) -> None:
        self.metrics.transactions += 1
        attempts = 0
        while True:
            try:
                resolution = self._resolve_accesses(txn.accesses, txn.txn_id)
            except ClusterUnavailable:
                self.metrics.aborts += 1
                if attempts >= self.cost.max_retries:
                    self.metrics.failed += 1
                    return
                self.metrics.retries += 1
                self.metrics.retry_cost_units += self.cost.backoff_cost(attempts)
                attempts += 1
                continue
            self._commit(resolution, txn.class_name)
            return

    # ------------------------------------------------------------------
    # access resolution
    # ------------------------------------------------------------------
    def _resolve_accesses(
        self,
        accesses: Iterable[TupleAccess],
        txn_id: int,
        coordinator_hint: int | None = None,
    ) -> _Resolution:
        """Map recorded accesses to the set of participating nodes.

        Raises :class:`ClusterUnavailable` when a singly-homed row's node
        is down — the transaction cannot proceed and must abort. Dead
        replicas never abort a transaction: replicated reads fail over to
        a live copy and replicated writes skip the dead node (recorded for
        resync on recovery).
        """
        up = self.up_node_ids()
        if not up:
            raise ClusterUnavailable("no live nodes in the cluster")
        resolution = _Resolution(participants=set(), divergent=set())
        replicated_read = False
        for access in accesses:
            table, key = access.table, access.key
            solution = self.partitioning.solution_for(table)
            disposition = self._dispose(solution, table, key)
            if disposition == "replicated":
                if access.write:
                    resolution.wrote_replicated = True
                    resolution.participants |= up
                    for node in self.nodes.values():
                        if not node.up:
                            resolution.divergent.add((node.node_id, table))
                else:
                    replicated_read = True
            elif disposition == "unroutable":
                resolution.broadcast = True
                resolution.participants |= up
                if access.write:
                    for node in self.nodes.values():
                        if not node.up:
                            resolution.divergent.add((node.node_id, table))
            else:  # home node id
                if not self.nodes[disposition].up:
                    raise ClusterUnavailable(
                        f"node {disposition} holding {table}{key} is down"
                    )
                resolution.participants.add(disposition)
        if not resolution.participants:
            coordinator, failed_over = self._pick_coordinator(
                txn_id, up, coordinator_hint
            )
            resolution.participants = {coordinator}
            if failed_over and replicated_read:
                resolution.failovers += 1
        if resolution.divergent:
            resolution.failovers += len({n for n, _ in resolution.divergent})
        return resolution

    def _dispose(
        self, solution: TableSolution, table: str, key: KeyValue
    ) -> "int | str":
        """Classify one access: ``"replicated"``, ``"unroutable"``, or the
        home node id."""
        if solution.replicated or self.placement.is_everywhere(table, key):
            return "replicated"
        if self.placement.is_unroutable(table, key):
            return "unroutable"
        home = self.placement.home_of(table, key)
        if home is not None:
            return home
        # Row not in the placement map (deleted before the cluster was
        # built, or never loaded): fall back to the partitioning rule —
        # tombstones make the join path still evaluable, exactly like the
        # static evaluator.
        pid = solution.partition_of(key, self._evaluator)
        if pid is None:
            return "unroutable"
        if pid == REPLICATED:
            return "replicated"
        return self.node_of(pid)

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
        self.metrics.transactions += 1
        attempts = 0
        committed = False
        while True:
            try:
                self._execute_once(procedure, arguments, hint)
                committed = True
                break
            except ClusterUnavailable:
                self.metrics.aborts += 1
                if attempts >= self.cost.max_retries:
                    self.metrics.failed += 1
                    break
                self.metrics.retries += 1
                self.metrics.retry_cost_units += self.cost.backoff_cost(attempts)
                attempts += 1
        self._tick += 1
        return committed

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
    ) -> None:
        self._txn_ops = []
        self._txn_access = []
        executor = Executor(self.source, on_access=self._record_access)
        try:
            procedure.execute(executor, dict(arguments))
            self._evaluator.clear_cache()
            resolution = self._resolve_accesses(
                self._txn_access, self._tick, coordinator_hint=hint
            )
            planned = self._plan_ops(self._txn_ops)
        except BaseException:
            self._rollback()
            raise
        ops = self._txn_ops
        self._txn_ops = None
        self._txn_access = []
        for _, _, _, _, _, disposition, home in planned:
            if disposition == "home":
                resolution.participants.add(home)
        self._apply_planned(planned, resolution)
        self._commit(resolution, procedure.name)
        self._repair_cascades(ops)

    def _record_access(self, table: str, key: KeyValue, write: bool) -> None:
        self._txn_access.append(TupleAccess(table, tuple(key), write))

    def _plan_ops(
        self, ops: list[_Op]
    ) -> list[tuple[str, str, KeyValue, Row | None, Row | None, str, int | None]]:
        """Decide where each buffered write lands, verifying liveness.

        Raises :class:`ClusterUnavailable` before anything is applied to a
        node, so the caller can still abort atomically.
        """
        planned = []
        for table, op, key, old, new in ops:
            solution = self.partitioning.solution_for(table)
            if solution.replicated:
                planned.append((table, op, key, old, new, "replicated", None))
                continue
            if op == "delete":
                planned.append((table, op, key, old, new, "delete", None))
                continue
            pid = solution.partition_of(key, self._evaluator)
            if pid is None:
                planned.append((table, op, key, old, new, "unroutable", None))
            elif pid == REPLICATED:
                planned.append((table, op, key, old, new, "everywhere", None))
            else:
                home = self.node_of(pid)
                if not self.nodes[home].up:
                    raise ClusterUnavailable(
                        f"node {home} owning {table}{key} is down"
                    )
                planned.append((table, op, key, old, new, "home", home))
        return planned

    def _apply_planned(self, planned, resolution: _Resolution) -> None:
        for table, op, key, old, new, disposition, home in planned:
            if disposition == "replicated":
                self._apply_replicated(table, op, key, new)
            elif disposition == "delete":
                self._apply_partitioned_delete(table, key)
            else:
                self._settle_row(table, key, new, disposition, home)

    def _rollback(self) -> None:
        """Undo every buffered source mutation, newest first."""
        ops = self._txn_ops or []
        self._txn_ops = None
        self._txn_access = []
        self._undoing = True
        try:
            for table, op, key, old, new in reversed(ops):
                source_table = self.source.table(table)
                if op == "insert":
                    source_table.delete(key)
                    # *old* is the tombstone the insert replaced.
                    source_table.restore_tombstone(key, old)
                elif op == "delete":
                    assert old is not None
                    source_table.insert(old)
                else:
                    assert old is not None and new is not None
                    primary = set(source_table.schema.primary_key)
                    changes = {
                        column: value
                        for column, value in old.items()
                        if column not in primary and new.get(column) != value
                    }
                    if changes:
                        source_table.update(key, changes)
        finally:
            self._undoing = False
            self._evaluator.clear_cache()

    # ------------------------------------------------------------------
    # physical write-through
    # ------------------------------------------------------------------
    def _make_listener(self, table_name: str):
        def listener(
            op: str, key: KeyValue, old: Row | None, new: Row | None
        ) -> None:
            if self._undoing:
                return
            if self._txn_ops is not None:
                self._txn_ops.append((table_name, op, key, old, new))
            else:
                self._mirror_out_of_band(table_name, op, key, old, new)

        return listener

    def _mirror_out_of_band(
        self, table: str, op: str, key: KeyValue, old: Row | None, new: Row | None
    ) -> None:
        """Mirror a source mutation made outside any cluster transaction.

        Benchmark loaders and tests mutate the source database directly;
        the cluster keeps the physical placement in lockstep the same way
        the router's lookup tables do.
        """
        self._evaluator.clear_cache()
        solution = self.partitioning.solution_for(table)
        if solution.replicated:
            self._apply_replicated(table, op, key, new)
        elif op == "delete":
            self._apply_partitioned_delete(table, key)
        else:
            pid = solution.partition_of(key, self._evaluator)
            if pid is None:
                disposition, home = "unroutable", None
            elif pid == REPLICATED:
                disposition, home = "everywhere", None
            else:
                disposition, home = "home", self.node_of(pid)
            self._settle_row(table, key, new, disposition, home)
        self._repair_cascades([(table, op, key, old, new)])

    def _apply_replicated(
        self, table: str, op: str, key: KeyValue, new: Row | None
    ) -> None:
        for node in self.nodes.values():
            if not node.up:
                node.divergent.add(table)
                continue
            node_table = node.database.table(table)
            if op == "delete":
                self._drop_row(node_table, key)
            else:
                assert new is not None
                self._put_row(node_table, key, new)

    def _apply_partitioned_delete(self, table: str, key: KeyValue) -> None:
        home = self.placement.home_of(table, key)
        if home is not None:
            holders: Iterable[Node] = (self.nodes[home],)
        else:
            holders = self.nodes.values()
        for node in holders:
            if not node.up:
                node.divergent.add(table)
                continue
            self._drop_row(node.database.table(table), key)
        self.placement.forget(table, key)

    def _settle_row(
        self,
        table: str,
        key: KeyValue,
        row: Row | None,
        disposition: str,
        home: int | None,
    ) -> None:
        """Place (or move) one row according to its new disposition."""
        assert row is not None
        previous_home = self.placement.home_of(table, key)
        was_spread = self.placement.is_everywhere(
            table, key
        ) or self.placement.is_unroutable(table, key)
        was_placed = previous_home is not None or was_spread
        if disposition == "home":
            assert home is not None
            desired = {home}
        else:
            desired = set(self.nodes)
        for node_id in sorted(desired):
            node = self.nodes[node_id]
            if node.up or disposition == "home":
                self._put_row(node.database.table(table), key, row)
            else:
                node.divergent.add(table)
        if previous_home is not None and previous_home not in desired:
            node = self.nodes[previous_home]
            if node.up:
                self._drop_row(node.database.table(table), key)
            else:
                node.divergent.add(table)
        if was_spread and disposition == "home":
            for node in self.nodes.values():
                if node.node_id in desired:
                    continue
                if node.up:
                    self._drop_row(node.database.table(table), key)
                else:
                    node.divergent.add(table)
        self.placement.forget(table, key)
        if disposition == "home":
            assert home is not None
            self.placement.place(table, key, home)
        elif disposition == "everywhere":
            self.placement.place_everywhere(table, key)
        else:
            self.placement.mark_unroutable(table, key)
        if disposition == "unroutable" and not was_spread:
            self.metrics.unroutable_tuples += 1
        if was_placed and (
            (previous_home is not None and desired != {previous_home})
            or (was_spread and disposition == "home")
        ):
            self.metrics.tuples_migrated += 1

    @staticmethod
    def _put_row(node_table: Table, key: KeyValue, row: Row) -> None:
        existing = node_table.get(key)
        if existing is None:
            node_table.insert(row)
        elif existing != row:
            changes = {
                column: value
                for column, value in row.items()
                if existing.get(column) != value
            }
            node_table.update(key, changes)

    @staticmethod
    def _drop_row(node_table: Table, key: KeyValue) -> None:
        if node_table.get(key) is not None:
            node_table.delete(key)

    def _repair_cascades(self, ops: Iterable[_Op]) -> None:
        """Re-place rows whose join paths read a just-mutated row.

        A write to a row that other rows' join paths walk through can
        change *their* partition values; the cluster must then physically
        move them (the router applies the same rule to its lookup tables).
        TPC-C's customer-rooted paths read CUSTOMER and ORDERS on the way,
        so most writes land on a dependency table — but few can move a
        row. :meth:`TableSolution.mutation_effect` decides per write and
        dependent: ``NONE`` is skipped, ``UNPLACED`` re-places only the
        dependent's unroutable rows, and ``ALL`` re-places the whole table.
        """
        effects: dict[str, PathEffect] = {}
        for table, op, _, old, new in ops:
            dependents = self._dependents.get(table)
            if not dependents:
                continue
            table_schema = self.schema.table(table)
            for dependent in dependents:
                if effects.get(dependent) is PathEffect.ALL:
                    continue
                effect = self.partitioning.solution_for(
                    dependent
                ).mutation_effect(table_schema, op, old, new)
                if effect > effects.get(dependent, PathEffect.NONE):
                    effects[dependent] = effect
        for dependent in sorted(effects):
            if effects[dependent] is PathEffect.ALL:
                self._replace_table_placement(dependent)
            else:
                unroutable = self.placement.unroutable.get(dependent, ())
                self._replace_table_placement(dependent, list(unroutable))

    def _replace_table_placement(
        self, table: str, keys: Iterable[KeyValue] | None = None
    ) -> None:
        """Move *table*'s rows (just *keys*, when given) to their homes."""
        solution = self.partitioning.solution_for(table)
        source_table = self.source.table(table)
        for key in list(source_table.keys()) if keys is None else keys:
            row = source_table.get(key)
            if row is None:
                continue
            pid = solution.partition_of(key, self._evaluator)
            if pid is None:
                disposition, home = "unroutable", None
                current = self.placement.is_unroutable(table, key)
            elif pid == REPLICATED:
                disposition, home = "everywhere", None
                current = self.placement.is_everywhere(table, key)
            else:
                disposition, home = "home", self.node_of(pid)
                current = self.placement.home_of(table, key) == home
            if not current:
                self._settle_row(table, key, dict(row), disposition, home)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_conservation(self) -> list[str]:
        """Verify no row is lost or duplicated across the cluster.

        Every source row must live on exactly its placement's node set
        (one home node, or every node for replicated/unroutable data), no
        node may hold a row the source lacks, and placed copies must equal
        the source content. Tables marked divergent on a down node are
        exempt until recovery resyncs them. Returns a list of problem
        descriptions — empty means the invariant holds.
        """
        problems: list[str] = []
        for table_schema in self.schema.tables:
            name = table_schema.name
            source_table = self.source.table(name)
            source_rows = {
                source_table.primary_key_of(row): row
                for row in source_table.scan()
            }
            checked = [
                node
                for node in self.nodes.values()
                if name not in node.divergent
            ]
            holders: dict[KeyValue, set[int]] = {}
            for node in checked:
                node_table = node.database.table(name)
                for row in node_table.scan():
                    key = node_table.primary_key_of(row)
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
            replicated = name in self.placement.replicated_tables
            checked_ids = {node.node_id for node in checked}
            for key in source_rows:
                where = holders.get(key, set())
                if (
                    replicated
                    or self.placement.is_everywhere(name, key)
                    or self.placement.is_unroutable(name, key)
                ):
                    if where != checked_ids:
                        problems.append(
                            f"{name}{key}: replicated on {sorted(where)}, "
                            f"expected {sorted(checked_ids)}"
                        )
                else:
                    home = self.placement.home_of(name, key)
                    if home is None:
                        problems.append(f"{name}{key}: no placement")
                        continue
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
