"""Integration tests: full pipelines over every benchmark (small scale).

These assert the *shape* of the paper's results end to end: JECB finds
the known-good partitioning for each workload and beats (or matches) the
baselines.
"""

import pytest

from repro.baselines import SchismConfig, SchismPartitioner
from repro.baselines.published import build_spec_partitioning
from repro.core import JECBConfig, JECBPartitioner
from repro.evaluation import PartitioningEvaluator
from repro.evaluation.framework import PartitioningExperiment
from repro.trace import train_test_split
from repro.workloads.auctionmark import AuctionMarkBenchmark, AuctionMarkConfig
from repro.workloads.seats import SeatsBenchmark, SeatsConfig
from repro.workloads.synthetic import (
    SyntheticBenchmark,
    SyntheticConfig,
    group_partitioning,
)
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig, warehouse_partitioning
from repro.workloads.tpce import HORTICULTURE_SPEC, TpceBenchmark, TpceConfig

K = 8


def run_jecb(bundle, k=K):
    train, test = train_test_split(bundle.trace, 0.5)
    result = JECBPartitioner(
        bundle.database, bundle.catalog, JECBConfig(num_partitions=k)
    ).run(train)
    evaluator = PartitioningEvaluator(bundle.database)
    return result, evaluator.evaluate(result.partitioning, test), test


class TestTpccPipeline:
    @pytest.fixture(scope="class")
    def outcome(self):
        bundle = TpccBenchmark(TpccConfig(warehouses=8)).generate(
            1500, seed=51
        )
        return bundle, *run_jecb(bundle)

    def test_matches_warehouse_optimum(self, outcome):
        bundle, result, report, test = outcome
        evaluator = PartitioningEvaluator(bundle.database)
        reference = evaluator.evaluate(
            warehouse_partitioning(bundle.database.schema, K), test
        )
        # within noise of the known optimum (hash collisions can even
        # make JECB slightly cheaper)
        assert report.cost <= reference.cost + 0.03

    def test_item_replicated(self, outcome):
        _bundle, result, _report, _test = outcome
        assert result.partitioning.solution_for("ITEM").replicated

    def test_warehouse_class_attribute(self, outcome):
        _bundle, result, _report, _test = outcome
        attr = result.phase3.best_attribute
        assert attr.column.endswith("W_ID")


class TestTpcePipeline:
    @pytest.fixture(scope="class")
    def outcome(self):
        bundle = TpceBenchmark(TpceConfig()).generate(2500, seed=3)
        return bundle, *run_jecb(bundle)

    def test_cost_near_paper_21_percent(self, outcome):
        _bundle, _result, report, _test = outcome
        assert 0.12 <= report.cost <= 0.32

    def test_four_candidate_attributes(self, outcome):
        _bundle, result, _report, _test = outcome
        classes = {a.column for a in result.phase3.candidate_attributes}
        assert classes == {"B_ID", "CA_C_ID", "T_DTS", "T_S_SYMB"}

    def test_broker_replicated_in_final_solution(self, outcome):
        _bundle, result, _report, _test = outcome
        if result.phase3.best_attribute.column == "CA_C_ID":
            assert result.partitioning.solution_for("BROKER").replicated

    def test_figure8_shape(self, outcome):
        """Good classes near zero, bad classes near one (Figure 8)."""
        _bundle, _result, report, _test = outcome
        for good in (
            "Customer-Position", "Market-Watch", "Security-Detail",
            "Trade-Lookup-Frame2", "Trade-Lookup-Frame4",
            "Trade-Order", "Trade-Status", "Trade-Update-Frame2",
        ):
            assert report.class_cost(good) <= 0.10, good
        for bad in (
            "Broker-Volume", "Market-Feed", "Trade-Lookup-Frame1",
            "Trade-Result",
        ):
            assert report.class_cost(bad) >= 0.60, bad

    def test_beats_horticulture_published(self, outcome):
        bundle, _result, report, test = outcome
        evaluator = PartitioningEvaluator(bundle.database)
        hc = build_spec_partitioning(
            bundle.database.schema, K, HORTICULTURE_SPEC
        )
        hc_report = evaluator.evaluate(hc, test)
        assert report.cost < hc_report.cost - 0.15


class TestTatpPipeline:
    def test_near_zero_and_beats_schism(self):
        bundle = TatpBenchmark(TatpConfig(subscribers=800)).generate(
            2000, seed=5
        )
        result, report, test = run_jecb(bundle)
        assert report.cost < 0.08
        schism = SchismPartitioner(
            bundle.database, SchismConfig(num_partitions=K)
        ).run(train_test_split(bundle.trace, 0.5)[0])
        evaluator = PartitioningEvaluator(bundle.database)
        schism_cost = evaluator.cost(schism.partitioning, test)
        assert report.cost < schism_cost


class TestSeatsPipeline:
    def test_completely_partitionable_by_airport(self):
        bundle = SeatsBenchmark(SeatsConfig()).generate(1500, seed=9)
        result, report, _test = run_jecb(bundle)
        assert report.cost < 0.08
        assert result.phase3.best_attribute.column.endswith("AP_ID")


class TestAuctionMarkPipeline:
    def test_partial_partitionability(self):
        bundle = AuctionMarkBenchmark(AuctionMarkConfig()).generate(
            1500, seed=9
        )
        _result, report, _test = run_jecb(bundle)
        # the buyer/seller m-to-n keeps it imperfect but far below random
        assert 0.05 < report.cost < 0.5

    def test_getitem_local(self):
        bundle = AuctionMarkBenchmark(AuctionMarkConfig()).generate(
            1500, seed=9
        )
        _result, report, _test = run_jecb(bundle)
        assert report.class_cost("GetItem") < 0.05


class TestSyntheticPipeline:
    def test_crossover(self):
        """Section 7.6: JECB wins when schema-respecting transactions
        dominate; the column-based solution wins when they do not."""
        jecb_costs = {}
        column_costs = {}
        for fraction in (1.0, 0.0):
            bundle = SyntheticBenchmark(
                SyntheticConfig(schema_join_fraction=fraction, parents=200)
            ).generate(800, seed=9)
            _result, report, test = run_jecb(bundle, k=50)
            evaluator = PartitioningEvaluator(bundle.database)
            jecb_costs[fraction] = report.cost
            column_costs[fraction] = evaluator.cost(
                group_partitioning(bundle.database.schema, 50), test
            )
        assert jecb_costs[1.0] < 0.05
        assert column_costs[1.0] > 0.8
        assert column_costs[0.0] < 0.05
        assert jecb_costs[0.0] > 0.8


class TestFramework:
    def test_experiment_pipeline(self):
        bundle = TatpBenchmark(TatpConfig(subscribers=200)).generate(
            600, seed=61
        )
        experiment = PartitioningExperiment(bundle)
        jecb = experiment.run("jecb", JECBConfig(num_partitions=4))
        schism = experiment.run(
            "schism", SchismConfig(num_partitions=4), coverage=0.5
        )
        fixed = experiment.run_fixed(
            build_spec_partitioning(
                bundle.database.schema, 4, {"SUBSCRIBER": "S_ID"}
            ),
            name="fixed",
        )
        assert len(experiment.runs) == 3
        summary = experiment.summary()
        assert "jecb" in summary and "schism-50%" in summary
        assert 0.0 <= jecb.cost <= 1.0

    def test_metering_through_framework(self):
        bundle = TatpBenchmark(TatpConfig(subscribers=100)).generate(
            300, seed=67
        )
        experiment = PartitioningExperiment(bundle)
        run = experiment.run("jecb", JECBConfig(num_partitions=2), meter=True)
        assert run.resources is not None
        assert run.resources.peak_memory_bytes > 0
