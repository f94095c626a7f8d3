"""Tests for the Schism and Horticulture baselines and published specs."""

import pytest

from repro.baselines import (
    HorticultureConfig,
    HorticulturePartitioner,
    SchismConfig,
    SchismPartitioner,
)
from repro.baselines.published import build_spec_partitioning, intra_table_path
from repro.core.mapping import REPLICATED
from repro.core.placement import PlacementStore
from repro.errors import PartitioningError
from repro.evaluation import PartitioningEvaluator
from repro.evaluation.framework import PartitioningExperiment
from repro.trace import train_test_split
from repro.workloads.tatp import SUBSCRIBER_SPEC, TatpBenchmark, TatpConfig


@pytest.fixture(scope="module")
def tatp_bundle():
    return TatpBenchmark(TatpConfig(subscribers=300)).generate(
        1200, seed=13
    )


class TestSchism:
    def test_runs_and_places_seen_tuples(self, tatp_bundle):
        train, test = train_test_split(tatp_bundle.trace, 0.5)
        result = SchismPartitioner(
            tatp_bundle.database, SchismConfig(num_partitions=4)
        ).run(train)
        assert result.graph_nodes > 0
        assert result.graph_edges > 0
        solution = result.partitioning.solution_for("SUBSCRIBER")
        assert len(solution.assignments) > 0

    def test_read_only_tables_replicated(self, tatp_bundle):
        train, _ = train_test_split(tatp_bundle.trace, 0.5)
        result = SchismPartitioner(
            tatp_bundle.database, SchismConfig(num_partitions=4)
        ).run(train)
        # ACCESS_INFO is never written in TATP
        assert result.partitioning.solution_for("ACCESS_INFO").replicated

    def test_written_tables_not_replicated_by_default(self, tatp_bundle):
        train, _ = train_test_split(tatp_bundle.trace, 0.5)
        result = SchismPartitioner(
            tatp_bundle.database, SchismConfig(num_partitions=4)
        ).run(train)
        # SPECIAL_FACILITY is rarely written; Schism has no read-mostly
        # replication, so it stays partitioned
        assert not result.partitioning.solution_for(
            "SPECIAL_FACILITY"
        ).replicated

    def test_same_subscriber_tuples_colocated(self, tatp_bundle):
        """Seen tuples of one subscriber must share a partition (cut=0)."""
        train, _ = train_test_split(tatp_bundle.trace, 0.5)
        result = SchismPartitioner(
            tatp_bundle.database, SchismConfig(num_partitions=4)
        ).run(train)
        evaluator = PartitioningEvaluator(tatp_bundle.database)
        report = evaluator.evaluate(result.partitioning, train)
        # training cost should be very low: components are disconnected
        assert report.cost < 0.10

    def test_unseen_tuples_get_partition(self, tatp_bundle):
        train, _ = train_test_split(tatp_bundle.trace, 0.5)
        result = SchismPartitioner(
            tatp_bundle.database, SchismConfig(num_partitions=4)
        ).run(train)
        solution = result.partitioning.solution_for("SUBSCRIBER")
        pid = solution.partition_of((999999,))
        assert 1 <= pid <= 4

    def test_resource_metering(self, tatp_bundle):
        run = PartitioningExperiment(tatp_bundle).run(
            "schism", SchismConfig(num_partitions=4), meter=True
        )
        assert run.resources is not None
        assert run.resources.peak_memory_bytes > 0


class TestHorticulture:
    def test_finds_subscriber_partitioning(self, tatp_bundle):
        train, test = train_test_split(tatp_bundle.trace, 0.5)
        result = HorticulturePartitioner(
            tatp_bundle.database,
            tatp_bundle.catalog,
            HorticultureConfig(num_partitions=4, iterations=30, seed=5),
        ).run(train)
        # TATP is trivially partitionable by s_id; the LNS must find a
        # low-cost design
        evaluator = PartitioningEvaluator(tatp_bundle.database)
        assert evaluator.cost(result.partitioning, test) < 0.15
        assert result.design["SUBSCRIBER"] == "S_ID"

    def test_cost_history_monotone(self, tatp_bundle):
        train, _ = train_test_split(tatp_bundle.trace, 0.5)
        result = HorticulturePartitioner(
            tatp_bundle.database,
            tatp_bundle.catalog,
            HorticultureConfig(num_partitions=4, iterations=20, seed=5),
        ).run(train)
        history = result.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_design_covers_partitioned_tables(self, tatp_bundle):
        train, _ = train_test_split(tatp_bundle.trace, 0.5)
        result = HorticulturePartitioner(
            tatp_bundle.database,
            tatp_bundle.catalog,
            HorticultureConfig(num_partitions=4, iterations=5, seed=5),
        ).run(train)
        assert "SUBSCRIBER" in result.design


class TestPublishedSpecs:
    def test_intra_table_path(self, tatp_bundle):
        schema = tatp_bundle.database.schema
        p = intra_table_path(schema, "CALL_FORWARDING", "CF_S_ID")
        assert p.source_table == "CALL_FORWARDING"
        assert p.destination.column == "CF_S_ID"

    def test_intra_table_path_pk_itself(self, tatp_bundle):
        schema = tatp_bundle.database.schema
        p = intra_table_path(schema, "SUBSCRIBER", "S_ID")
        assert len(p) == 1

    def test_intra_table_path_unknown_column(self, tatp_bundle):
        with pytest.raises(PartitioningError):
            intra_table_path(
                tatp_bundle.database.schema, "SUBSCRIBER", "NOPE"
            )

    def test_spec_partitioning(self, tatp_bundle):
        schema = tatp_bundle.database.schema
        partitioning = build_spec_partitioning(
            schema, 4, {"SUBSCRIBER": "S_ID"}, name="subscriber-only"
        )
        assert not partitioning.solution_for("SUBSCRIBER").replicated
        # tables absent from the spec are replicated
        assert partitioning.solution_for("ACCESS_INFO").replicated

    def test_spec_partitioning_is_optimal_for_tatp(self, tatp_bundle):
        schema = tatp_bundle.database.schema
        partitioning = build_spec_partitioning(schema, 4, SUBSCRIBER_SPEC)
        evaluator = PartitioningEvaluator(tatp_bundle.database)
        report = evaluator.evaluate(partitioning, tatp_bundle.trace)
        # everything is keyed by subscriber -> near zero
        assert report.cost < 0.05

    def test_spec_none_means_replicate(self, tatp_bundle):
        schema = tatp_bundle.database.schema
        partitioning = build_spec_partitioning(
            schema, 4, {"SUBSCRIBER": None}
        )
        assert partitioning.solution_for("SUBSCRIBER").replicated
        store = PlacementStore(tatp_bundle.database, partitioning)
        assert store.pid_of("SUBSCRIBER", (1,)) == REPLICATED
