"""Unit tests for search instrumentation, caching, and config plumbing.

Covers the :mod:`repro.core.metrics` dataclasses, the placement store's
per-key memo and shared :class:`SnapshotIndex`, config ``to_dict``/
``from_dict`` round-trips, and the :func:`repro.partition` facade with the
algorithm table it shares with the experiment harness.
"""

import math

import pytest

import repro
from repro.api import _PARTITIONERS
from repro.core import JECBConfig, JECBPartitioner
from repro.core.join_path import JoinPath
from repro.core.mapping import IdentityModMapping
from repro.core.metrics import (
    LATENCY_BUCKETS_US,
    CacheStats,
    ClassMetrics,
    ClusterMetrics,
    LatencyHistogram,
    RoutingMetrics,
    SearchMetrics,
)
from repro.core.path_eval import SnapshotIndex, _PathPlan
from repro.core.phase2 import Phase2Config
from repro.core.phase3 import Phase3Config
from repro.core.placement import PlacementStore
from repro.core.solution import DatabasePartitioning, TableSolution
from repro.evaluation.framework import PartitioningExperiment
from repro.trace import subsample
from repro.workloads.tatp import TatpBenchmark, TatpConfig

from tests.conftest import generate_custinfo_workload


# ----------------------------------------------------------------------
# CacheStats / SearchMetrics dataclasses
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75

    def test_merge(self):
        stats = CacheStats(hits=1, misses=2)
        stats.merge(CacheStats(hits=10, misses=20))
        assert (stats.hits, stats.misses) == (11, 22)

    def test_to_dict(self):
        data = CacheStats(hits=1, misses=1).to_dict()
        assert data["hit_rate"] == 0.5


class TestSearchMetricsAggregation:
    def test_add_class_folds_counters(self):
        metrics = SearchMetrics()
        metrics.add_class(
            ClassMetrics(
                "A", trees_examined=5, mi_tests=7, cache=CacheStats(hits=2)
            )
        )
        metrics.add_class(ClassMetrics("B", trees_examined=3, mi_refuted=1))
        assert metrics.classes_searched == 2
        assert metrics.trees_examined == 8
        assert metrics.mi_tests == 7
        assert metrics.mi_refuted == 1
        assert metrics.evaluator_cache.hits == 2

    def test_class_metrics_lookup(self):
        metrics = SearchMetrics()
        metrics.add_class(ClassMetrics("A"))
        assert metrics.class_metrics("A").class_name == "A"
        with pytest.raises(KeyError):
            metrics.class_metrics("missing")

    def test_summary_and_to_dict(self):
        metrics = SearchMetrics()
        for name in ("C", "A", "D", "B"):
            metrics.add_class(ClassMetrics(name, wall_seconds=0.5))
        text = metrics.summary()
        # every class, in name order, whatever order it was searched in
        labels = [
            line.split(":")[0].strip()
            for line in text.splitlines()
            if "wall_seconds=" in line
        ]
        assert labels == ["A", "B", "C", "D"]
        data = metrics.to_dict()
        assert data["per_class"][0]["class_name"] == "C"
        assert data["evaluator_cache"] == {
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
        }


# ----------------------------------------------------------------------
# LatencyHistogram / RoutingMetrics
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    def test_observe_buckets_log_scale(self):
        histogram = LatencyHistogram()
        for seconds in (5e-7, 5e-6, 5e-5, 5e-4, 5e-3, 5e-2):
            histogram.observe(seconds)
        assert histogram.counts == [1, 1, 1, 1, 1, 1]
        assert histogram.count == 6
        assert histogram.max_seconds == pytest.approx(5e-2)
        assert histogram.mean_seconds == pytest.approx(
            histogram.total_seconds / 6
        )

    def test_a_latency_on_a_bucket_bound_opens_the_next_bucket(self):
        """Bounds are exclusive upper bounds: the slot is the first bound
        above the latency, as a scan of the bounds finds it."""

        def scanned_slot(micros):
            for slot, bound in enumerate(LATENCY_BUCKETS_US):
                if micros < bound:
                    return slot
            return len(LATENCY_BUCKETS_US)

        latencies = [0.0, 1e9]
        for bound in LATENCY_BUCKETS_US:
            latencies += [
                math.nextafter(bound, 0.0), bound, math.nextafter(bound, 1e9)
            ]
        for micros in latencies:
            histogram = LatencyHistogram()
            histogram.observe(micros / 1e6)
            slot = scanned_slot(micros / 1e6 * 1e6)
            assert histogram.counts[slot] == 1 == histogram.count, micros
        # every bound here survives the trip through seconds
        for slot, bound in enumerate(LATENCY_BUCKETS_US):
            histogram = LatencyHistogram()
            histogram.observe(bound / 1e6)
            assert histogram.counts[slot + 1] == 1, bound

    def test_to_dict_and_summary(self):
        histogram = LatencyHistogram()
        assert histogram.mean_seconds == 0.0
        histogram.observe(3e-6)
        data = histogram.to_dict()
        assert data["count"] == 1
        assert sum(data["counts"]) == 1
        assert data["bucket_bounds_us"] == list(LATENCY_BUCKETS_US)
        assert "count=1" in histogram.summary()


class TestRoutingMetrics:
    def test_observe_and_broadcast_causes(self):
        metrics = RoutingMetrics()
        metrics.observe("single_partition", 1e-5)
        metrics.observe("broadcast", 1e-4)
        metrics.record_broadcast_cause("unknown_value")
        metrics.record_broadcast_cause("unknown_value")
        assert metrics.latency["single_partition"].count == 1
        assert metrics.latency["broadcast"].count == 1
        assert metrics.broadcast_causes == {"unknown_value": 2}

    def test_write_through_applied(self):
        metrics = RoutingMetrics(
            write_through_inserts=2,
            write_through_deletes=1,
            write_through_updates=3,
        )
        assert metrics.write_through_applied == 6

    def test_summary_and_to_dict(self):
        metrics = RoutingMetrics(lookups_built=2, batch_calls=7)
        metrics.observe("single_partition", 2e-6)
        metrics.record_broadcast_cause("missing_argument")
        text = metrics.summary()
        assert "lookups" in text
        assert "missing_argument" in text
        data = metrics.to_dict()
        assert data["lookups_built"] == 2
        assert data["batch_calls"] == 7
        assert data["latency"]["single_partition"]["count"] == 1


class TestClusterMetrics:
    def test_summary_and_to_dict(self):
        metrics = ClusterMetrics(
            nodes=2,
            transactions=4,
            committed_local=3,
            committed_distributed=1,
            local_cost_units=4.0,
        )
        metrics.record_participation([2, 1])
        metrics.record_participation([1])
        data = metrics.to_dict()
        assert data["distributed_fraction"] == 0.25
        assert data["cost_per_transaction"] == 1.0
        assert data["per_node_transactions"] == {1: 2, 2: 1}
        text = metrics.summary()
        assert "distributed_fraction=0.25" in text
        assert "per_node_transactions={1:2,2:1}" in text


# ----------------------------------------------------------------------
# Per-key placement memo and snapshot index
# ----------------------------------------------------------------------
@pytest.fixture
def trade_path(custinfo_schema):
    return JoinPath.parse(
        custinfo_schema,
        [
            "TRADE.T_ID", "TRADE.T_CA_ID",
            "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
        ],
    )


@pytest.fixture
def trade_store(figure1_db, trade_path):
    """A store placing TRADE by customer id (k=2), nothing filled yet."""
    partitioning = DatabasePartitioning(2)
    partitioning.set(TableSolution("TRADE", trade_path, IdentityModMapping(2)))
    return PlacementStore(figure1_db, partitioning)


class TestBoundedCache:
    """The placement store memoizes each per-key walk (``pid_of``)."""

    def test_repeat_lookup_hits(self, trade_store):
        first = trade_store.pid_of("TRADE", (1,))
        second = trade_store.pid_of("TRADE", (1,))
        assert first == second == 2  # customer 1
        assert trade_store.pid_computations == 1

    def test_unbounded_by_default(self, trade_store):
        for _ in range(2):
            for t_id in range(1, 9):
                trade_store.pid_of("TRADE", (t_id,))
        assert trade_store.pid_computations == 8

    def test_evaluation_counter(self, trade_store):
        # a filled column places each live row once; reads then hit it
        assert len(trade_store.pids("TRADE")) == 8
        trade_store.pid_of("TRADE", (1,))
        assert trade_store.pid_computations == 8


class TestSnapshotIndex:
    def test_shared_across_evaluators(self, figure1_db, trade_path):
        snapshots = SnapshotIndex(figure1_db)
        a = _PathPlan(trade_path, snapshots)
        b = _PathPlan(trade_path, snapshots)
        assert a.value((1,)) == b.value((1,)) == 1
        assert a.table is b.table is snapshots.table("TRADE")

    def test_rebuilds_after_mutation(self, figure1_db):
        trades = SnapshotIndex(figure1_db).table("TRADE")
        assert trades.get_snapshots([(1,)])[0]["T_QTY"] == 2
        figure1_db.update("TRADE", (1,), {"T_QTY": 99})
        assert trades.get_snapshots([(1,)])[0]["T_QTY"] == 99

    def test_sees_deleted_rows_as_tombstones(self, figure1_db):
        trades = SnapshotIndex(figure1_db).table("TRADE")
        figure1_db.delete("TRADE", (1,))
        (row,) = trades.get_snapshots([(1,)])
        assert row is not None
        assert row["T_CA_ID"] == 1


# ----------------------------------------------------------------------
# End-to-end: a run carries populated metrics
# ----------------------------------------------------------------------
class TestRunMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        database, catalog, trace = generate_custinfo_workload(
            customers=10, transactions=60
        )
        partitioner = JECBPartitioner(
            database, catalog, JECBConfig(num_partitions=2)
        )
        return partitioner.run(trace)

    def test_metrics_attached(self, result):
        metrics = result.metrics
        assert metrics is not None
        assert metrics.classes_searched == len(result.class_results)
        assert metrics.trees_examined > 0
        assert metrics.mi_tests > 0
        assert metrics.path_evaluations > 0

    def test_phase_times_cover_total(self, result):
        metrics = result.metrics
        assert metrics.total_seconds > 0
        phases = (
            metrics.phase1_seconds
            + metrics.phase2_seconds
            + metrics.phase3_seconds
        )
        assert phases <= metrics.total_seconds

    def test_phase3_counts(self, result):
        assert result.metrics.candidate_attributes > 0
        assert result.metrics.combinations_evaluated > 0

    def test_cache_observed_traffic(self, result):
        assert result.metrics.evaluator_cache.lookups > 0
        assert 0.0 <= result.metrics.cache_hit_rate <= 1.0


# ----------------------------------------------------------------------
# Config round-trips
# ----------------------------------------------------------------------
class TestConfigRoundTrip:
    def test_jecb_round_trip(self):
        config = JECBConfig(
            num_partitions=6,
            phase2=Phase2Config(max_trees_per_root=9),
            phase3=Phase3Config(max_combinations_per_attr=123),
        )
        restored = JECBConfig.from_dict(config.to_dict())
        assert restored == config

    def test_partial_dict(self):
        config = JECBConfig.from_dict({"num_partitions": 5})
        assert config.num_partitions == 5
        assert config.phase2 == Phase2Config()

    def test_nested_phase2_dict(self):
        config = JECBConfig.from_dict(
            {"phase2": {"max_trees_per_root": 4}, "num_partitions": 3}
        )
        assert config.phase2.max_trees_per_root == 4
        assert config.num_partitions == 3

    def test_unknown_key_rejected(self):
        # Removed settings must fail loudly, not be silently ignored.
        for key, value in (
            ("nope", 1),
            ("workers", 2),
            ("engine", "object"),
            ("meter_resources", True),
        ):
            with pytest.raises(ValueError, match=key):
                JECBConfig.from_dict({key: value})
        for key, value in (("typo", 1), ("evaluator_cache_size", 1)):
            with pytest.raises(ValueError, match=key):
                Phase2Config.from_dict({key: value})
        with pytest.raises(ValueError, match="typo"):
            Phase3Config.from_dict({"typo": 1})

    def test_none_and_instance_pass_through(self):
        assert JECBConfig.from_dict(None) == JECBConfig()
        config = Phase2Config(max_trees_per_root=2)
        assert Phase2Config.from_dict(config) is config


# ----------------------------------------------------------------------
# repro.partition facade + the algorithm table
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tatp_bundle():
    return TatpBenchmark(TatpConfig(subscribers=60)).generate(200, seed=5)


class TestPartitionFacade:
    def test_jecb_default(self, tatp_bundle):
        result = repro.partition(tatp_bundle, num_partitions=2)
        assert result.partitioning is not None
        assert result.metrics is not None

    def test_unknown_algorithm(self, tatp_bundle):
        with pytest.raises(KeyError, match="no-such-algo"):
            repro.partition(tatp_bundle, algorithm="no-such-algo")

    def test_unknown_config_key(self, tatp_bundle):
        with pytest.raises(ValueError, match="bogus"):
            repro.partition(tatp_bundle, bogus=True)

    def test_baseline_algorithms_available(self):
        names = repro.available_algorithms()
        assert {"jecb", "schism", "horticulture"} <= set(names)

    def test_schism_via_facade(self, tatp_bundle):
        result = repro.partition(
            tatp_bundle, algorithm="schism", num_partitions=2
        )
        assert result.partitioning is not None

    def test_register_custom_partitioner(self, tatp_bundle):
        calls = []

        def fake(bundle, trace, config):
            calls.append((bundle, trace, config))
            return "sentinel"

        repro.register_partitioner("fake-algo", fake)
        try:
            out = repro.partition(tatp_bundle, algorithm="fake-algo", k=3)
            assert out == "sentinel"
            assert calls[0][2] == {"k": 3}
        finally:
            _PARTITIONERS.pop("fake-algo", None)


class TestExperimentRegistry:
    @pytest.fixture(scope="class")
    def experiment(self, tatp_bundle):
        return PartitioningExperiment(tatp_bundle)

    def test_run_by_name(self, experiment):
        run = experiment.run("jecb", {"num_partitions": 2})
        assert run.name == "jecb"
        assert run.detail.metrics is not None

    def test_unknown_name(self, experiment):
        with pytest.raises(KeyError, match="registered"):
            experiment.run("no-such-algo")

    def test_builtins_registered(self):
        assert {"jecb", "schism", "horticulture"} <= set(
            repro.available_algorithms()
        )

    def test_register_custom_algorithm(self, experiment):
        from repro.baselines.published import build_spec_partitioning

        fixed = build_spec_partitioning(
            experiment.bundle.database.schema,
            2,
            {"SUBSCRIBER": "S_ID"},
            name="fixed-spec",
        )

        def adapter(bundle, trace, config):
            return fixed

        repro.register_partitioner("fixed-spec", adapter)
        try:
            run = experiment.run("fixed-spec")
            assert run.name == "fixed-spec"
            assert run.partitioning is fixed
        finally:
            _PARTITIONERS.pop("fixed-spec", None)

    def test_registered_partitioner_trains_on_the_experiment(
        self, experiment
    ):
        calls = []

        def adapter(bundle, trace, config):
            calls.append((bundle, trace, config))
            return repro.partition(bundle, trace=trace, num_partitions=2)

        repro.register_partitioner("fake-algo", adapter)
        try:
            run = experiment.run("fake-algo", {"k": 3}, coverage=0.5)
        finally:
            _PARTITIONERS.pop("fake-algo", None)
        ((bundle, trace, config),) = calls
        assert bundle is experiment.bundle
        assert len(trace) == len(subsample(experiment.training_trace, 0.5))
        assert config == {"k": 3}
        assert run.name == "fake-algo-50%"
        assert run.detail.metrics is not None
        assert run is experiment.runs[-1]
