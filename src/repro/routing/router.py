"""The transaction router: procedure call -> target partitions.

The routing tier is live. Each lookup table is a view over a
:class:`~repro.core.placement.PlacementStore` — the router's own, or the
one a cluster shares with its router — and the store hands every view the
changes to its table's rows: writes to the routed attribute's own table,
and rows a write elsewhere moved along their join paths. So a routing
decision is never served from a stale snapshot, and no write makes a view
rebuild.

The router keeps one plan per procedure: its candidate attributes, each
with a lookup resolved the first time a call consults it — once its
parameter is among the call's arguments with a non-NULL value — so a
lookup no call consults is never built. The plans are stamped with ``(Database.writes,
PlacementStore.refills)`` and kept while the stamp stands: a view goes
stale only when its store column is filled again, and that takes a write
or a refill. A moved stamp drops every plan; the next consult of each
lookup runs the per-lookup staleness check again, which catches writes
made while the store was detached. :meth:`Router.route_batch` routes from
the same plans and memoizes decisions across the calls of one batch.
Time spent resolving and building views is recorded apart from the
routing latency of the call that needed them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.mapping import stable_hash
from repro.core.metrics import LatencyHistogram, RoutingMetrics
from repro.core.placement import PlacementStore
from repro.core.solution import DatabasePartitioning
from repro.procedures.procedure import ProcedureCatalog
from repro.routing.lookup_table import LookupTable
from repro.schema.attribute import Attr
from repro.sql.dataflow import analyze_dataflow
from repro.storage.database import Database

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


class _Plan:
    """One procedure's candidates, with lookups resolved on first consult.

    ``params`` lists the candidates' parameter names in plan order (the
    batch memo keys on them); ``lookups[i]`` stays ``None`` until a call
    consults candidate ``i``.
    """

    __slots__ = ("candidates", "params", "lookups")

    def __init__(self, candidates: Sequence[tuple[Attr, str]]) -> None:
        self.candidates = candidates
        self.params = [param for _, param in candidates]
        self.lookups: list[LookupTable | None] = [None] * len(candidates)


class Router:
    """Routes stored-procedure invocations using per-attribute lookups.

    For each procedure, candidate routing attributes are the attributes its
    WHERE clauses bind to parameters (found by the static analyzer). Each
    call tries candidates in a deterministic order and returns the first
    one that resolves to a bounded partition set.

    The router keeps one lookup table per routing attribute a call has
    consulted; the catalog bounds how many. Per procedure it keeps one
    :class:`_Plan`, reused while ``(Database.writes,
    PlacementStore.refills)`` stands (see the module docstring). Its
    ``metrics`` collect the tier's counters and latency histograms.
    ``store`` is the placement store the views read; without one the
    router attaches its own, and :meth:`close` detaches it again.
    """

    def __init__(
        self,
        database: Database,
        catalog: ProcedureCatalog,
        partitioning: DatabasePartitioning,
        store: PlacementStore | None = None,
    ) -> None:
        self.database = database
        self.catalog = catalog
        self.partitioning = partitioning
        self.metrics = RoutingMetrics()
        self._owns_store = store is None
        self.store = store or PlacementStore(database, partitioning).attach()
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
        self._lookups: dict[Attr, LookupTable] = {}
        self._built_once: set[Attr] = set()
        self._plans: dict[str, _Plan] = {}
        self._stamp: tuple[int, int] | None = None
        #: wall seconds spent resolving lookups, kept out of ``latency``
        self._resolve_seconds = 0.0

    def close(self) -> None:
        """Detach the router's own placement store from the database.

        The router keeps working, falling back to the per-access staleness
        check. A store handed in by its owner (the cluster) stays attached.
        """
        if self._owns_store:
            self.store.close()

    # ------------------------------------------------------------------
    # lookup-table cache
    # ------------------------------------------------------------------
    def _lookup(self, attribute: Attr) -> LookupTable:
        lookups = self._lookups
        table = lookups.get(attribute)
        if table is not None:
            # Safety net under the store's listeners: one integer compare
            # per dependency table catches writes made while detached.
            if table.is_stale():
                self.metrics.staleness_detections += 1
                lookups.pop(attribute).close()
                table = None
        if table is None:
            started = time.perf_counter()
            table = LookupTable.build(attribute, self.store, self.metrics)
            self.metrics.lookup_build_seconds += time.perf_counter() - started
            if attribute in self._built_once:
                self.metrics.lookups_rebuilt += 1
            else:
                self._built_once.add(attribute)
                self.metrics.lookups_built += 1
            lookups[attribute] = table
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
    def _plan(self, procedure_name: str) -> _Plan:
        """The procedure's cached plan; every plan is dropped first when
        a write or a column refill moved the stamp."""
        stamp = (self.database.writes, self.store.refills)
        if stamp != self._stamp:
            self._plans.clear()
            self._stamp = stamp
        plan = self._plans.get(procedure_name)
        if plan is None:
            candidates = self._bindings.get(procedure_name)
            if candidates is None:  # not in the catalog: nothing to keep
                return _Plan(())
            plan = self._plans[procedure_name] = _Plan(candidates)
        return plan

    def _resolve(self, plan: _Plan, index: int) -> LookupTable:
        """Resolve candidate *index*'s lookup, timed apart from routing."""
        started = time.perf_counter()
        lookup = self._lookup(plan.candidates[index][0])
        plan.lookups[index] = lookup
        self._resolve_seconds += time.perf_counter() - started
        return lookup

    def _route_plan(
        self, plan: _Plan, arguments: Mapping[str, Any]
    ) -> tuple[RoutingDecision, str | None]:
        """Route one call against *plan*, resolving what it consults.

        Returns the decision plus the broadcast cause (None unless the
        decision is a broadcast).
        """
        best: RoutingDecision | None = None
        replicated: RoutingDecision | None = None
        cause = NO_BINDINGS if not plan.candidates else MISSING_ARGUMENT
        lookups = plan.lookups
        for index, (attribute, param) in enumerate(plan.candidates):
            if param not in arguments:
                continue
            value = arguments[param]
            values = (
                tuple(value)
                if isinstance(value, (list, tuple, set))
                else (value,)
            )
            if not values or values[0] is None:
                cause = UNKNOWN_VALUE
                continue
            lookup = lookups[index]
            if lookup is None:
                lookup = self._resolve(plan, index)
            targets: set[int] = set()
            known = True
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
        """Route one call; broadcast when nothing constrains it.

        The latency recorded is the decision's: resolving a lookup the
        call consults, and building it, is timed apart
        (:attr:`RoutingMetrics.lookup_build_seconds`).
        """
        plan = self._plan(procedure_name)
        resolved = self._resolve_seconds
        started = time.perf_counter()
        decision, cause = self._route_plan(plan, arguments)
        seconds = time.perf_counter() - started
        resolving = self._resolve_seconds - resolved
        self._observe(decision.outcome, cause, seconds - resolving)
        return decision

    def route_batch(
        self, calls: Iterable[tuple[str, Mapping[str, Any]]]
    ) -> list[RoutingDecision]:
        """Route many calls from the cached plans.

        Each procedure's plan is fetched (and the stamp checked) once per
        batch, and decisions are memoized per distinct argument
        signature, so repeated parameter values cost one dict probe.
        Mutations landing mid-batch take effect from the next batch (or
        the next :meth:`route` call): a memoized decision stands for the
        rest of its batch.
        """
        metrics = self.metrics
        plans: dict[str, _Plan] = {}
        memo: dict[tuple, tuple[RoutingDecision, str | None, LatencyHistogram]]
        memo = {}
        decisions: list[RoutingDecision] = []
        for procedure_name, arguments in calls:
            plan = plans.get(procedure_name)
            if plan is None:
                plan = plans[procedure_name] = self._plan(procedure_name)
            resolved = self._resolve_seconds
            started = time.perf_counter()
            key: tuple | None = (procedure_name, *[
                arguments.get(param, _MISSING) for param in plan.params
            ])
            try:
                cached = memo.get(key)
            except TypeError:  # a list or set value: freeze it
                key = tuple(map(_freeze, key))
                try:
                    cached = memo.get(key)
                except TypeError:  # unhashable after all
                    key = cached = None
            if cached is None:
                decision, cause = self._route_plan(plan, arguments)
                cached = (decision, cause, metrics.histogram(decision.outcome))
                if key is not None:
                    memo[key] = cached
            else:
                metrics.batch_memo_hits += 1
            decision, cause, histogram = cached
            decisions.append(decision)
            metrics.batch_calls += 1
            seconds = time.perf_counter() - started
            histogram.observe(seconds - (self._resolve_seconds - resolved))
            if cause is not None:
                metrics.record_broadcast_cause(cause)
        return decisions

    def _observe(self, outcome: str, cause: str | None, seconds: float) -> None:
        self.metrics.observe(outcome, seconds)
        if cause is not None:
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
