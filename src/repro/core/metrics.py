"""Search instrumentation: what the three phases did and how long they took.

The paper's pitch (Tables 1-2) is that JECB's code-based search is cheap
enough to rerun constantly; :class:`SearchMetrics` makes that claim
observable on every run. Phase 2 emits one :class:`ClassMetrics` per
transaction class (wall time, trees examined/pruned, mapping-independence
tests, evaluator cache behaviour); the partitioner folds them into one
:class:`SearchMetrics` together with per-phase wall times and Phase 3's
combination counts.

Everything here is a plain dataclass; ``merge``/``to_dict`` keep
aggregation and reporting trivial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any


@dataclass
class CacheStats:
    """Hit/miss counters of one memo cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def __str__(self) -> str:
        return f"{self.hits}/{self.lookups} hits ({self.hit_rate:.1%})"


@dataclass
class ClassMetrics:
    """What Phase 2 did for one transaction class."""

    class_name: str
    wall_seconds: float = 0.0
    trees_examined: int = 0
    trees_pruned: int = 0
    mi_tests: int = 0
    mi_refuted: int = 0
    path_evaluations: int = 0
    #: wall time spent inside mapping-independence tests
    mi_seconds: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)

    def to_dict(self) -> dict[str, Any]:
        return {
            "class_name": self.class_name,
            "wall_seconds": self.wall_seconds,
            "trees_examined": self.trees_examined,
            "trees_pruned": self.trees_pruned,
            "mi_tests": self.mi_tests,
            "mi_refuted": self.mi_refuted,
            "path_evaluations": self.path_evaluations,
            "mi_seconds": self.mi_seconds,
            "cache": self.cache.to_dict(),
        }


@dataclass
class SearchMetrics:
    """One run of the three-phase search, aggregated for reporting.

    Attached to :class:`~repro.core.partitioner.JECBResult` as
    ``result.metrics``; ``summary()`` renders the human-readable block the
    experiments CLI prints.
    """

    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    phase3_seconds: float = 0.0
    total_seconds: float = 0.0
    #: stage timers — building the columnar trace (interning included in
    #: ``intern_seconds``), mapping-independence testing summed over
    #: classes, and Phase 3's Definition-5/6 cost evaluation
    trace_build_seconds: float = 0.0
    intern_seconds: float = 0.0
    mi_seconds: float = 0.0
    cost_eval_seconds: float = 0.0
    classes_searched: int = 0
    trees_examined: int = 0
    trees_pruned: int = 0
    mi_tests: int = 0
    mi_refuted: int = 0
    path_evaluations: int = 0
    candidate_attributes: int = 0
    combinations_evaluated: int = 0
    evaluator_cache: CacheStats = field(default_factory=CacheStats)
    per_class: list[ClassMetrics] = field(default_factory=list)

    def add_class(self, metrics: ClassMetrics) -> None:
        """Fold one class's Phase-2 metrics into the run totals."""
        self.per_class.append(metrics)
        self.classes_searched += 1
        self.trees_examined += metrics.trees_examined
        self.trees_pruned += metrics.trees_pruned
        self.mi_tests += metrics.mi_tests
        self.mi_refuted += metrics.mi_refuted
        self.path_evaluations += metrics.path_evaluations
        self.mi_seconds += metrics.mi_seconds
        self.evaluator_cache.merge(metrics.cache)

    def class_metrics(self, name: str) -> ClassMetrics:
        for metrics in self.per_class:
            if metrics.class_name == name:
                return metrics
        raise KeyError(name)

    @property
    def cache_hit_rate(self) -> float:
        return self.evaluator_cache.hit_rate

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase1_seconds": self.phase1_seconds,
            "phase2_seconds": self.phase2_seconds,
            "phase3_seconds": self.phase3_seconds,
            "total_seconds": self.total_seconds,
            "trace_build_seconds": self.trace_build_seconds,
            "intern_seconds": self.intern_seconds,
            "mi_seconds": self.mi_seconds,
            "cost_eval_seconds": self.cost_eval_seconds,
            "classes_searched": self.classes_searched,
            "trees_examined": self.trees_examined,
            "trees_pruned": self.trees_pruned,
            "mi_tests": self.mi_tests,
            "mi_refuted": self.mi_refuted,
            "path_evaluations": self.path_evaluations,
            "candidate_attributes": self.candidate_attributes,
            "combinations_evaluated": self.combinations_evaluated,
            "evaluator_cache": self.evaluator_cache.to_dict(),
            "per_class": [m.to_dict() for m in self.per_class],
        }

    def summary(self) -> str:
        lines = [
            f"search: {self.total_seconds:.2f}s total "
            f"(phase1 {self.phase1_seconds:.2f}s, "
            f"phase2 {self.phase2_seconds:.2f}s, "
            f"phase3 {self.phase3_seconds:.2f}s)",
            f"stages: trace-build {self.trace_build_seconds:.3f}s "
            f"(interning {self.intern_seconds:.3f}s), "
            f"MI testing {self.mi_seconds:.3f}s, "
            f"cost eval {self.cost_eval_seconds:.3f}s",
            f"phase2: {self.classes_searched} classes, "
            f"{self.trees_examined} trees examined, "
            f"{self.trees_pruned} pruned, "
            f"{self.mi_tests} MI tests ({self.mi_refuted} refuted)",
            f"phase3: {self.candidate_attributes} candidate attributes, "
            f"{self.combinations_evaluated} combinations evaluated",
            f"evaluator cache: {self.evaluator_cache}",
        ]
        slowest = sorted(
            self.per_class, key=lambda m: m.wall_seconds, reverse=True
        )[:3]
        for metrics in slowest:
            lines.append(
                f"  {metrics.class_name}: {metrics.wall_seconds:.2f}s, "
                f"{metrics.trees_examined} trees, "
                f"cache {metrics.cache.hit_rate:.1%}"
            )
        return "\n".join(lines)


#: Upper bucket bounds of :class:`LatencyHistogram`, in microseconds. The
#: last bucket is open-ended.
LATENCY_BUCKETS_US: tuple[float, ...] = (1.0, 10.0, 100.0, 1_000.0, 10_000.0)


@dataclass
class LatencyHistogram:
    """Log-scale latency histogram (microsecond buckets) with totals.

    Small and mergeable on purpose: the router records one histogram per
    routing outcome, and batch summaries fold worker histograms together.
    """

    counts: list[int] = field(
        default_factory=lambda: [0] * (len(LATENCY_BUCKETS_US) + 1)
    )
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def mean_seconds(self) -> float:
        count = self.count
        return self.total_seconds / count if count else 0.0

    def observe(self, seconds: float) -> None:
        micros = seconds * 1e6
        slot = len(LATENCY_BUCKETS_US)
        for i, bound in enumerate(LATENCY_BUCKETS_US):
            if micros < bound:
                slot = i
                break
        self.counts[slot] += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total_seconds += other.total_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "max_seconds": self.max_seconds,
            "bucket_bounds_us": list(LATENCY_BUCKETS_US),
            "counts": list(self.counts),
        }

    def __str__(self) -> str:
        count = self.count
        if not count:
            return "0 calls"
        return (
            f"{count} calls, mean {self.mean_seconds * 1e6:.1f}us, "
            f"max {self.max_seconds * 1e6:.1f}us"
        )


@dataclass
class RoutingMetrics:
    """What the online routing tier did: lookup-table lifecycle, write-
    through maintenance, and per-outcome routing latencies.

    Attached to :class:`~repro.routing.router.RouteSummary` and printed by
    the experiments CLI alongside :class:`SearchMetrics`, so a run shows
    both how the partitioning was found *and* how it routes.
    """

    lookups_built: int = 0
    lookups_rebuilt: int = 0
    lookups_evicted: int = 0
    #: wall seconds spent building lookup views, kept out of ``latency``
    lookup_build_seconds: float = 0.0
    staleness_detections: int = 0
    write_through_inserts: int = 0
    write_through_deletes: int = 0
    write_through_updates: int = 0
    batch_calls: int = 0
    batch_memo_hits: int = 0
    broadcast_causes: dict[str, int] = field(default_factory=dict)
    latency: dict[str, LatencyHistogram] = field(default_factory=dict)

    @property
    def write_through_applied(self) -> int:
        return (
            self.write_through_inserts
            + self.write_through_deletes
            + self.write_through_updates
        )

    def record_broadcast_cause(self, cause: str) -> None:
        self.broadcast_causes[cause] = self.broadcast_causes.get(cause, 0) + 1

    def observe(self, outcome: str, seconds: float) -> None:
        """Record one routed call's latency under its outcome label."""
        histogram = self.latency.get(outcome)
        if histogram is None:
            histogram = LatencyHistogram()
            self.latency[outcome] = histogram
        histogram.observe(seconds)

    def merge(self, other: "RoutingMetrics") -> None:
        self.lookups_built += other.lookups_built
        self.lookups_rebuilt += other.lookups_rebuilt
        self.lookups_evicted += other.lookups_evicted
        self.lookup_build_seconds += other.lookup_build_seconds
        self.staleness_detections += other.staleness_detections
        self.write_through_inserts += other.write_through_inserts
        self.write_through_deletes += other.write_through_deletes
        self.write_through_updates += other.write_through_updates
        self.batch_calls += other.batch_calls
        self.batch_memo_hits += other.batch_memo_hits
        for cause, count in other.broadcast_causes.items():
            self.broadcast_causes[cause] = (
                self.broadcast_causes.get(cause, 0) + count
            )
        for outcome, histogram in other.latency.items():
            mine = self.latency.get(outcome)
            if mine is None:
                self.latency[outcome] = LatencyHistogram(
                    list(histogram.counts),
                    histogram.total_seconds,
                    histogram.max_seconds,
                )
            else:
                mine.merge(histogram)

    def to_dict(self) -> dict[str, Any]:
        return {
            "lookups_built": self.lookups_built,
            "lookups_rebuilt": self.lookups_rebuilt,
            "lookups_evicted": self.lookups_evicted,
            "lookup_build_seconds": self.lookup_build_seconds,
            "staleness_detections": self.staleness_detections,
            "write_through_inserts": self.write_through_inserts,
            "write_through_deletes": self.write_through_deletes,
            "write_through_updates": self.write_through_updates,
            "batch_calls": self.batch_calls,
            "batch_memo_hits": self.batch_memo_hits,
            "broadcast_causes": dict(self.broadcast_causes),
            "latency": {k: v.to_dict() for k, v in self.latency.items()},
        }

    def summary(self) -> str:
        lines = [
            f"lookups: {self.lookups_built} built, "
            f"{self.lookups_rebuilt} rebuilt, "
            f"{self.lookups_evicted} evicted, "
            f"{self.staleness_detections} staleness detections, "
            f"{self.lookup_build_seconds * 1e3:.1f}ms building",
            f"write-through: {self.write_through_inserts} inserts, "
            f"{self.write_through_deletes} deletes, "
            f"{self.write_through_updates} updates",
        ]
        if self.batch_calls:
            lines.append(
                f"batch: {self.batch_calls} calls, "
                f"{self.batch_memo_hits} memo hits"
            )
        if self.broadcast_causes:
            causes = ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(self.broadcast_causes.items())
            )
            lines.append(f"broadcast causes: {causes}")
        for outcome in sorted(self.latency):
            lines.append(f"  {outcome}: {self.latency[outcome]}")
        return "\n".join(lines)


@dataclass
class ClusterMetrics:
    """What the simulated cluster did: per-outcome transaction counts,
    2PC message/cost accounting, fault-injection effects, and physical
    data movement.

    The cost unit is simulated work, not wall time: a single-partition
    transaction costs ``CostConfig.local_unit``; a distributed one
    additionally pays the coordinator overhead plus prepare/commit rounds
    per participant. ``distributed_fraction`` is the execution-side twin
    of the static evaluator's Definition-6 cost — with faults disabled and
    one node per partition the two agree exactly (see tests).
    """

    nodes: int = 0
    transactions: int = 0
    committed_local: int = 0
    committed_distributed: int = 0
    broadcasts: int = 0
    aborts: int = 0
    retries: int = 0
    failed: int = 0
    replica_failovers: int = 0
    prepare_messages: int = 0
    commit_messages: int = 0
    local_cost_units: float = 0.0
    coordination_cost_units: float = 0.0
    retry_cost_units: float = 0.0
    tuples_placed: int = 0
    tuples_replicated: int = 0
    unroutable_tuples: int = 0
    tuples_migrated: int = 0
    rows_resynced: int = 0
    repartitions: int = 0
    crashes: int = 0
    recoveries: int = 0
    per_node_transactions: dict[int, int] = field(default_factory=dict)
    per_class_distributed: dict[str, int] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return self.committed_local + self.committed_distributed

    @property
    def distributed_fraction(self) -> float:
        """Fraction of finished transactions that needed >1 participant.

        Transactions that failed permanently (dead node, retries
        exhausted) count toward the denominator: they were distributed
        work the cluster could not complete.
        """
        finished = self.committed + self.failed
        if finished == 0:
            return 0.0
        return (self.committed_distributed + self.failed) / finished

    @property
    def total_cost_units(self) -> float:
        return (
            self.local_cost_units
            + self.coordination_cost_units
            + self.retry_cost_units
        )

    @property
    def cost_per_transaction(self) -> float:
        finished = self.committed + self.failed
        if finished == 0:
            return 0.0
        return self.total_cost_units / finished

    @property
    def coordination_per_transaction(self) -> float:
        """Mean simulated coordination overhead per finished transaction."""
        finished = self.committed + self.failed
        if finished == 0:
            return 0.0
        return self.coordination_cost_units / finished

    def record_participation(self, node_ids) -> None:
        for node_id in node_ids:
            self.per_node_transactions[node_id] = (
                self.per_node_transactions.get(node_id, 0) + 1
            )

    def merge(self, other: "ClusterMetrics") -> None:
        self.nodes = max(self.nodes, other.nodes)
        self.transactions += other.transactions
        self.committed_local += other.committed_local
        self.committed_distributed += other.committed_distributed
        self.broadcasts += other.broadcasts
        self.aborts += other.aborts
        self.retries += other.retries
        self.failed += other.failed
        self.replica_failovers += other.replica_failovers
        self.prepare_messages += other.prepare_messages
        self.commit_messages += other.commit_messages
        self.local_cost_units += other.local_cost_units
        self.coordination_cost_units += other.coordination_cost_units
        self.retry_cost_units += other.retry_cost_units
        self.tuples_placed += other.tuples_placed
        self.tuples_replicated += other.tuples_replicated
        self.unroutable_tuples += other.unroutable_tuples
        self.tuples_migrated += other.tuples_migrated
        self.rows_resynced += other.rows_resynced
        self.repartitions += other.repartitions
        self.crashes += other.crashes
        self.recoveries += other.recoveries
        for node_id, count in other.per_node_transactions.items():
            self.per_node_transactions[node_id] = (
                self.per_node_transactions.get(node_id, 0) + count
            )
        for name, count in other.per_class_distributed.items():
            self.per_class_distributed[name] = (
                self.per_class_distributed.get(name, 0) + count
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "nodes": self.nodes,
            "transactions": self.transactions,
            "committed_local": self.committed_local,
            "committed_distributed": self.committed_distributed,
            "distributed_fraction": self.distributed_fraction,
            "broadcasts": self.broadcasts,
            "aborts": self.aborts,
            "retries": self.retries,
            "failed": self.failed,
            "replica_failovers": self.replica_failovers,
            "prepare_messages": self.prepare_messages,
            "commit_messages": self.commit_messages,
            "local_cost_units": self.local_cost_units,
            "coordination_cost_units": self.coordination_cost_units,
            "retry_cost_units": self.retry_cost_units,
            "total_cost_units": self.total_cost_units,
            "cost_per_transaction": self.cost_per_transaction,
            "coordination_per_transaction": self.coordination_per_transaction,
            "tuples_placed": self.tuples_placed,
            "tuples_replicated": self.tuples_replicated,
            "unroutable_tuples": self.unroutable_tuples,
            "tuples_migrated": self.tuples_migrated,
            "rows_resynced": self.rows_resynced,
            "repartitions": self.repartitions,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "per_node_transactions": dict(self.per_node_transactions),
            "per_class_distributed": dict(self.per_class_distributed),
        }

    def summary(self) -> str:
        lines = [
            f"cluster: {self.nodes} nodes, {self.transactions} transactions "
            f"({self.committed_local} local, "
            f"{self.committed_distributed} distributed, "
            f"{self.failed} failed) -> "
            f"{self.distributed_fraction:.1%} distributed",
            f"cost: {self.total_cost_units:.1f} units "
            f"({self.coordination_cost_units:.1f} coordination, "
            f"{self.retry_cost_units:.1f} retry), "
            f"{self.cost_per_transaction:.2f}/txn",
            f"2pc: {self.prepare_messages} prepares, "
            f"{self.commit_messages} commits, "
            f"{self.broadcasts} broadcasts",
            f"data: {self.tuples_placed} placed, "
            f"{self.tuples_replicated} replicated, "
            f"{self.unroutable_tuples} unroutable, "
            f"{self.tuples_migrated} migrated",
        ]
        if self.crashes or self.recoveries or self.aborts:
            lines.append(
                f"faults: {self.crashes} crashes, "
                f"{self.recoveries} recoveries, "
                f"{self.aborts} aborts ({self.retries} retried), "
                f"{self.replica_failovers} replica failovers, "
                f"{self.rows_resynced} rows resynced"
            )
        if self.per_node_transactions:
            loads = ", ".join(
                f"n{node_id}={count}"
                for node_id, count in sorted(self.per_node_transactions.items())
            )
            lines.append(f"  participation: {loads}")
        return "\n".join(lines)


class Stopwatch:
    """Tiny ``perf_counter`` context manager for phase timing."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start
