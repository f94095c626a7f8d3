"""End-to-end tests for the JECB partitioner facade."""

import pytest

from repro.core import JECBConfig, JECBPartitioner
from repro.evaluation import PartitioningEvaluator
from repro.evaluation.framework import PartitioningExperiment
from repro.trace.stats import TableUsage
from repro.workloads.tatp import TatpBenchmark, TatpConfig


@pytest.fixture(scope="module")
def jecb_result():
    from tests.conftest import generate_custinfo_workload

    database, catalog, trace = generate_custinfo_workload()
    partitioner = JECBPartitioner(
        database, catalog, JECBConfig(num_partitions=4)
    )
    return database, trace, partitioner.run(trace)


class TestJECBPartitioner:
    def test_perfect_cost(self, jecb_result):
        _db, _trace, result = jecb_result
        assert result.cost == 0.0

    def test_phase1_classification(self, jecb_result):
        _db, _trace, result = jecb_result
        assert result.table_usage["TRADE"] is TableUsage.PARTITIONED
        assert result.table_usage["CUSTOMER"] is TableUsage.READ_ONLY

    def test_trade_partitioned_by_customer(self, jecb_result):
        _db, _trace, result = jecb_result
        solution = result.partitioning.solution_for("TRADE")
        assert not solution.replicated
        assert str(solution.attribute) == "CUSTOMER_ACCOUNT.CA_C_ID"

    def test_cost_verified_by_evaluator(self, jecb_result):
        database, trace, result = jecb_result
        evaluator = PartitioningEvaluator(database)
        assert evaluator.cost(result.partitioning, trace) == 0.0

    def test_class_result_accessor(self, jecb_result):
        _db, _trace, result = jecb_result
        assert result.class_result("CustInfo").class_name == "CustInfo"
        with pytest.raises(KeyError):
            result.class_result("nope")

    def test_report_tables(self, jecb_result):
        _db, _trace, result = jecb_result
        assert "CustInfo" in result.solutions_table()
        assert "TRADE" in result.placements_table()

    def test_resource_metering(self):
        # metering belongs to the harness, around the partitioner's run
        bundle = TatpBenchmark(TatpConfig(subscribers=50)).generate(
            100, seed=5
        )
        run = PartitioningExperiment(bundle).run(
            "jecb", JECBConfig(num_partitions=2), meter=True
        )
        assert run.resources is not None
        assert run.resources.cpu_seconds >= 0.0
        assert run.resources.peak_memory_bytes > 0

    def test_unknown_classes_in_trace_skipped(self):
        from tests.conftest import generate_custinfo_workload
        from repro.trace.events import TransactionTrace

        database, catalog, trace = generate_custinfo_workload(
            customers=10, transactions=50
        )
        alien = TransactionTrace(9999, "UnknownClass")
        alien.record("TRADE", (1,), False)
        trace.append(alien)
        partitioner = JECBPartitioner(
            database, catalog, JECBConfig(num_partitions=2)
        )
        result = partitioner.run(trace)  # must not raise
        assert result.partitioning is not None
