"""Search instrumentation: what the three phases did and how long they took.

The paper's pitch (Tables 1-2) is that JECB's code-based search is cheap
enough to rerun constantly; :class:`SearchMetrics` makes that claim
observable on every run. Phase 2 emits one :class:`ClassMetrics` per
transaction class (wall time, trees examined/pruned, mapping-independence
tests, evaluator cache behaviour); the partitioner folds them into one
:class:`SearchMetrics` together with per-phase wall times and Phase 3's
combination counts.

Every record is a plain dataclass on :class:`MetricRecord`, which derives
the one reporting path from the fields: ``to_dict()`` for machines and
``summary()``, a view of that dict, for people.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Any

#: scalar ``key=value`` items per summary line, a fixed count so that two
#: runs break their lines at the same keys
_ITEMS_PER_LINE = 4


class MetricRecord:
    """Base of the metric records: one ``to_dict()`` and one ``summary()``.

    ``to_dict()`` holds the dataclass fields in order, then the property
    names listed in ``DERIVED``. Nested records become dicts, and so do the
    records in lists and mappings; mappings come out sorted by key.
    ``summary()`` renders that dict: scalars and plain mappings as
    ``key=value`` items, four to a line, then each collection of records
    as a section with one line per entry, sorted by its label (a mapping's
    key, or the first field of a listed record).
    """

    #: properties reported after the fields
    DERIVED: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        names = [f.name for f in fields(self)] + list(self.DERIVED)
        return {name: _plain(getattr(self, name)) for name in names}

    def summary(self) -> str:
        return "\n".join(_summary_lines(self.to_dict()))


def _plain(value: Any) -> Any:
    if isinstance(value, MetricRecord):
        return value.to_dict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _summary_lines(data: dict[str, Any]) -> list[str]:
    items: list[str] = []
    sections: list[str] = []
    for key, value in data.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            entries = [_labelled(entry) for entry in value]
        elif value and isinstance(value, dict) and all(
            isinstance(entry, dict) for entry in value.values()
        ):
            entries = [(str(label), entry) for label, entry in value.items()]
        else:
            items.append(f"{key}={_format(value)}")
            continue
        sections.append(f"{key}:")
        for label, entry in sorted(entries, key=lambda pair: pair[0]):
            rendered = " ".join(f"{k}={_format(v)}" for k, v in entry.items())
            sections.append(f"  {label}: {rendered}")
    lines = [
        " ".join(items[i : i + _ITEMS_PER_LINE])
        for i in range(0, len(items), _ITEMS_PER_LINE)
    ]
    return lines + sections


def _labelled(entry: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """A listed record's label is its first field."""
    (_, label), *rest = entry.items()
    return str(label), dict(rest)


def _format(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        pairs = (f"{k}:{_format(v)}" for k, v in value.items())
        return "{" + ",".join(pairs) + "}"
    if isinstance(value, list):
        return "[" + ",".join(_format(v) for v in value) + "]"
    return str(value)


@dataclass
class CacheStats(MetricRecord):
    """Hit/miss counters of one memo cache."""

    hits: int = 0
    misses: int = 0

    DERIVED = ("hit_rate",)

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


@dataclass
class ClassMetrics(MetricRecord):
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


@dataclass
class SearchMetrics(MetricRecord):
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


#: Upper bucket bounds of :class:`LatencyHistogram`, in microseconds. The
#: last bucket is open-ended.
LATENCY_BUCKETS_US: tuple[float, ...] = (1.0, 10.0, 100.0, 1_000.0, 10_000.0)


@dataclass
class LatencyHistogram(MetricRecord):
    """Log-scale latency histogram (microsecond buckets) with totals.

    Small on purpose: the router records one histogram per routing
    outcome on every routed call.
    """

    counts: list[int] = field(
        default_factory=lambda: [0] * (len(LATENCY_BUCKETS_US) + 1)
    )
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    DERIVED = ("count", "mean_seconds", "bucket_bounds_us")

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def mean_seconds(self) -> float:
        count = self.count
        return self.total_seconds / count if count else 0.0

    @property
    def bucket_bounds_us(self) -> tuple[float, ...]:
        return LATENCY_BUCKETS_US

    def observe(self, seconds: float) -> None:
        # the first bucket whose upper bound exceeds the latency
        self.counts[bisect_right(LATENCY_BUCKETS_US, seconds * 1e6)] += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds


@dataclass
class RoutingMetrics(MetricRecord):
    """What the online routing tier did: lookup-table lifecycle, write-
    through maintenance, and per-outcome routing latencies.

    Attached to :class:`~repro.routing.router.RouteSummary` and printed by
    the experiments CLI alongside :class:`SearchMetrics`, so a run shows
    both how the partitioning was found *and* how it routes.
    """

    lookups_built: int = 0
    lookups_rebuilt: int = 0
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
        self.histogram(outcome).observe(seconds)

    def histogram(self, outcome: str) -> LatencyHistogram:
        """The latency histogram of *outcome*, made on first use."""
        histogram = self.latency.get(outcome)
        if histogram is None:
            histogram = self.latency[outcome] = LatencyHistogram()
        return histogram


@dataclass
class ClusterMetrics(MetricRecord):
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

    DERIVED = (
        "distributed_fraction",
        "total_cost_units",
        "cost_per_transaction",
        "coordination_per_transaction",
    )

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
