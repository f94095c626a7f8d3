"""The transaction router: procedure call -> target partitions.

The routing tier is live: the router subscribes to every table's mutation
feed, applies write-through maintenance to the lookup tables it has built
(inserts/deletes on the routed attribute's own table), absorbs writes to
the other tables on their join paths that cannot move a row (or can only
place a row that had no root value), and invalidates the rest — so a
routing decision is never served from a stale snapshot. A version check
on every lookup access backstops the hooks, and :meth:`Router.route_batch`
amortizes plan resolution and decision computation across many calls of
one batch.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.mapping import stable_hash
from repro.core.metrics import RoutingMetrics
from repro.core.path_eval import JoinPathEvaluator
from repro.core.solution import DatabasePartitioning
from repro.procedures.procedure import ProcedureCatalog
from repro.routing.lookup_table import LookupTable
from repro.schema.attribute import Attr
from repro.sql.dataflow import analyze_dataflow
from repro.storage.database import Database
from repro.storage.table import Table

#: Broadcast causes recorded in :class:`RoutingMetrics.broadcast_causes`.
NO_BINDINGS = "no_bindings"
MISSING_ARGUMENT = "missing_argument"
UNKNOWN_VALUE = "unknown_value"

_MISSING = object()


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one call.

    ``partitions`` lists target partition ids; ``broadcast`` is True when
    no routable attribute constrained the call and it must go everywhere
    (the paper's fundamental-mismatch case). ``replicated_only`` marks
    calls whose routing value only touched replicated tuples: any single
    partition can serve them, and the router spreads them deterministically
    instead of hotspotting one node.
    """

    partitions: frozenset[int]
    broadcast: bool
    routing_attribute: Attr | None = None
    replicated_only: bool = False

    @property
    def single_partition(self) -> bool:
        return not self.broadcast and len(self.partitions) == 1

    @property
    def outcome(self) -> str:
        """Label for metrics/summaries: which bucket this decision is."""
        if self.broadcast:
            return "broadcast"
        if self.replicated_only:
            return "replicated_only"
        if len(self.partitions) == 1:
            return "single_partition"
        return "multi_partition"


#: One resolved candidate of a routing plan: attribute, parameter name,
#: and the lookup table generation the plan was resolved against.
Candidate = tuple[Attr, str, LookupTable]


class Router:
    """Routes stored-procedure invocations using per-attribute lookups.

    For each procedure, candidate routing attributes are the attributes its
    WHERE clauses bind to parameters (found by the static analyzer). Each
    call tries candidates in a deterministic order and returns the first
    one that resolves to a bounded partition set.

    ``max_lookups`` bounds the lookup-table cache (LRU eviction);
    ``metrics`` collects the tier's counters and latency histograms. Call
    :meth:`close` to detach the router's mutation hooks from the database.
    """

    def __init__(
        self,
        database: Database,
        catalog: ProcedureCatalog,
        partitioning: DatabasePartitioning,
        max_lookups: int = 64,
        metrics: RoutingMetrics | None = None,
    ) -> None:
        if max_lookups < 1:
            raise ValueError("max_lookups must be at least 1")
        self.database = database
        self.catalog = catalog
        self.partitioning = partitioning
        self.max_lookups = max_lookups
        self.metrics = metrics or RoutingMetrics()
        self._evaluator = JoinPathEvaluator(database)
        self._bindings: dict[str, list[tuple[Attr, str]]] = {}
        for procedure in catalog:
            # The dataflow closure adds (attr, param) pairs proven by
            # transitive variable equality (SELECT @v = A WHERE A = @p; ...
            # WHERE B = @v), letting calls route on attributes their SQL
            # only constrains indirectly. Unknown parameter names are
            # harmless: _route_plan skips params missing from arguments.
            flow = analyze_dataflow(procedure, database.schema)
            self._bindings[procedure.name] = sorted(
                flow.param_closure, key=lambda pair: (str(pair[0]), pair[1])
            )
        self._lookups: OrderedDict[Attr, LookupTable] = OrderedDict()
        self._built_once: set[Attr] = set()
        self._hooks: list[tuple[Any, Any]] = []
        self._attach_hooks()

    # ------------------------------------------------------------------
    # mutation hooks (write-through + invalidation)
    # ------------------------------------------------------------------
    def _attach_hooks(self) -> None:
        for table in self.database:

            def hook(
                op: str,
                key: tuple,
                old: Mapping[str, Any] | None,
                new: Mapping[str, Any] | None,
                _table: Table = table,
            ) -> None:
                self._on_mutation(_table, op, old, new)

            table.add_listener(hook)
            self._hooks.append((table, hook))

    def close(self) -> None:
        """Detach the router's mutation hooks; the router keeps working,
        falling back to the per-access staleness check."""
        for table, hook in self._hooks:
            table.remove_listener(hook)
        self._hooks.clear()

    def _on_mutation(
        self,
        table: Table,
        op: str,
        old: Mapping[str, Any] | None,
        new: Mapping[str, Any] | None,
    ) -> None:
        # Path evaluations memoized before this write may now be wrong
        # (e.g. a foreign-key retarget); drop them before re-evaluating.
        self._evaluator.clear_cache()
        metrics = self.metrics
        table_name = table.schema.name
        for attribute, lookup in list(self._lookups.items()):
            if attribute.table == table_name and not self._write_through(
                lookup, op, old, new
            ):
                metrics.write_through_fallbacks += 1
                metrics.staleness_detections += 1
                del self._lookups[attribute]
            elif table_name in lookup.hop_targets and not (
                lookup.apply_dependency(table, op, old, new)
            ):
                metrics.staleness_detections += 1
                del self._lookups[attribute]

    def _write_through(
        self,
        lookup: LookupTable,
        op: str,
        old: Mapping[str, Any] | None,
        new: Mapping[str, Any] | None,
    ) -> bool:
        """Apply a write of the lookup's own table to its written row."""
        metrics = self.metrics
        if op == "insert" and new is not None:
            if lookup.apply_insert(new):
                metrics.write_through_inserts += 1
                return True
        elif op == "delete" and old is not None:
            if lookup.apply_delete(old):
                metrics.write_through_deletes += 1
                return True
        elif op == "update" and old is not None and new is not None:
            if lookup.apply_update(old, new):
                metrics.write_through_updates += 1
                return True
        return False

    # ------------------------------------------------------------------
    # lookup-table cache
    # ------------------------------------------------------------------
    def _lookup(self, attribute: Attr) -> LookupTable:
        lookups = self._lookups
        table = lookups.get(attribute)
        if table is not None:
            # Safety net under the hooks: one integer compare per
            # dependency table catches mutations applied while detached.
            if table.is_stale(self.database):
                self.metrics.staleness_detections += 1
                del lookups[attribute]
                table = None
                # The writes went past detached hooks, so walks memoized
                # before them were never dropped; rebuild from fresh ones.
                self._evaluator.clear_cache()
            else:
                lookups.move_to_end(attribute)
        if table is None:
            table = LookupTable.build(
                attribute, self.database, self.partitioning, self._evaluator
            )
            if attribute in self._built_once:
                self.metrics.lookups_rebuilt += 1
            else:
                self._built_once.add(attribute)
                self.metrics.lookups_built += 1
            lookups[attribute] = table
            while len(lookups) > self.max_lookups:
                lookups.popitem(last=False)
                self.metrics.lookups_evicted += 1
        return table

    def lookup_table(self, attribute: Attr) -> LookupTable:
        """The (fresh) lookup table for *attribute*, building on demand."""
        return self._lookup(attribute)

    def cached_lookups(self) -> dict[Attr, LookupTable]:
        """Snapshot of the live lookup-table cache.

        The metamorphic tests diff every cached table against one rebuilt
        from scratch; exposing the cache keeps them off the private
        attribute.
        """
        return dict(self._lookups)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _plan(self, procedure_name: str) -> list[Candidate]:
        """Resolve the procedure's candidates against fresh lookups."""
        return [
            (attribute, param, self._lookup(attribute))
            for attribute, param in self._bindings.get(procedure_name, [])
        ]

    def _route_plan(
        self, plan: Sequence[Candidate], arguments: Mapping[str, Any]
    ) -> tuple[RoutingDecision, str | None]:
        """Route one call against resolved candidates.

        Returns the decision plus the broadcast cause (None unless the
        decision is a broadcast).
        """
        best: RoutingDecision | None = None
        replicated: RoutingDecision | None = None
        cause = NO_BINDINGS if not plan else MISSING_ARGUMENT
        for attribute, param, lookup in plan:
            if param not in arguments:
                continue
            value = arguments[param]
            values = (
                tuple(value)
                if isinstance(value, (list, tuple, set))
                else (value,)
            )
            targets: set[int] = set()
            known = bool(values)
            for v in values:
                found = None if v is None else lookup.partitions_for(v)
                if found is None:
                    known = False
                    break
                targets |= found
            if not known:
                cause = UNKNOWN_VALUE
                continue
            if not targets:
                # Only replicated tuples: any one partition serves the
                # call. Spread deterministically by the routing value so
                # replicated-only reads do not hotspot one node — but keep
                # scanning; a candidate that locates real tuples is more
                # informative than "everywhere".
                if replicated is None:
                    pid = (
                        1
                        + stable_hash(values)
                        % self.partitioning.num_partitions
                    )
                    replicated = RoutingDecision(
                        frozenset((pid,)),
                        broadcast=False,
                        routing_attribute=attribute,
                        replicated_only=True,
                    )
                continue
            decision = RoutingDecision(
                frozenset(targets), broadcast=False, routing_attribute=attribute
            )
            if decision.single_partition:
                return decision, None
            if best is None or len(decision.partitions) < len(best.partitions):
                best = decision
        if replicated is not None:
            # Single-node service beats a constrained multi-partition fan-out.
            return replicated, None
        if best is not None:
            return best, None
        all_partitions = frozenset(
            range(1, self.partitioning.num_partitions + 1)
        )
        return RoutingDecision(all_partitions, broadcast=True), cause

    def route(
        self, procedure_name: str, arguments: Mapping[str, Any]
    ) -> RoutingDecision:
        """Route one call; broadcast when nothing constrains it."""
        started = time.perf_counter()
        decision, cause = self._route_plan(
            self._plan(procedure_name), arguments
        )
        self._observe(decision, cause, time.perf_counter() - started)
        return decision

    def route_batch(
        self, calls: Iterable[tuple[str, Mapping[str, Any]]]
    ) -> list[RoutingDecision]:
        """Route many calls against one lookup generation.

        Per-procedure candidate plans are resolved (and staleness-checked)
        once per batch instead of once per call, and decisions are memoized
        per distinct argument signature, so repeated parameter values cost
        one dict probe. Mutations landing mid-batch take effect from the
        next batch (or the next :meth:`route` call) — a batch is routed
        against a consistent snapshot of the lookup tier.
        """
        metrics = self.metrics
        plans: dict[str, list[Candidate]] = {}
        memo: dict[tuple, tuple[RoutingDecision, str | None]] = {}
        decisions: list[RoutingDecision] = []
        for procedure_name, arguments in calls:
            started = time.perf_counter()
            plan = plans.get(procedure_name)
            if plan is None:
                plan = self._plan(procedure_name)
                plans[procedure_name] = plan
            key: tuple | None
            try:
                key = (procedure_name,) + tuple(
                    _freeze(arguments[param]) if param in arguments else _MISSING
                    for _, param, _ in plan
                )
                cached = memo.get(key)
            except TypeError:  # unhashable argument value
                key = None
                cached = None
            if cached is None:
                cached = self._route_plan(plan, arguments)
                if key is not None:
                    memo[key] = cached
            else:
                metrics.batch_memo_hits += 1
            decision, cause = cached
            decisions.append(decision)
            metrics.batch_calls += 1
            self._observe(decision, cause, time.perf_counter() - started)
        return decisions

    def _observe(
        self, decision: RoutingDecision, cause: str | None, seconds: float
    ) -> None:
        self.metrics.observe(decision.outcome, seconds)
        if decision.broadcast and cause is not None:
            self.metrics.record_broadcast_cause(cause)

    def route_summary(
        self, calls: Iterable[tuple[str, Mapping[str, Any]]]
    ) -> "RouteSummary":
        """Route a batch of calls and summarize the outcomes.

        Useful for estimating how much of a live workload the chosen
        partitioning can serve single-partition at the router tier. The
        summary carries the router's :class:`RoutingMetrics`.
        """
        summary = RouteSummary(metrics=self.metrics)
        for decision in self.route_batch(calls):
            summary.record(decision)
        return summary


def _freeze(value: Any) -> Any:
    """Argument value -> hashable memo component."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    if isinstance(value, set):
        return frozenset(value)
    return value


@dataclass
class RouteSummary:
    """Outcome counts for a routed batch of calls.

    ``replicated_only`` calls are single-node too (any partition serves
    them), so :attr:`single_partition_fraction` counts both buckets.
    """

    total: int = 0
    single_partition: int = 0
    multi_partition: int = 0
    broadcast: int = 0
    replicated_only: int = 0
    metrics: RoutingMetrics | None = field(default=None, repr=False)

    def record(self, decision: RoutingDecision) -> None:
        self.total += 1
        outcome = decision.outcome
        if outcome == "broadcast":
            self.broadcast += 1
        elif outcome == "replicated_only":
            self.replicated_only += 1
        elif outcome == "single_partition":
            self.single_partition += 1
        else:
            self.multi_partition += 1

    @property
    def single_partition_fraction(self) -> float:
        if not self.total:
            return 0.0
        return (self.single_partition + self.replicated_only) / self.total

    def __str__(self) -> str:
        return (
            f"{self.total} calls: {self.single_partition} single, "
            f"{self.multi_partition} multi, {self.broadcast} broadcast, "
            f"{self.replicated_only} replicated-only"
        )
