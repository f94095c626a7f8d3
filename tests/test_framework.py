"""Unit tests for the Figure-4 evaluation framework."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.baselines import HorticultureConfig, SchismConfig
from repro.core import JECBConfig
from repro.evaluation.framework import ExperimentRun, PartitioningExperiment
from repro.workloads.tatp import TatpBenchmark, TatpConfig


def _metered_peaks(bundle: str, runs: int) -> list[float]:
    """Peak MB of *runs* metered JECB runs (k=2) on the bundle the
    expression *bundle* generates, in a fresh interpreter."""
    script = textwrap.dedent(
        f"""
        from repro.evaluation.framework import PartitioningExperiment
        from repro.workloads.tatp import TatpBenchmark, TatpConfig
        from repro.workloads.tpcc import TpccBenchmark, TpccConfig

        experiment = PartitioningExperiment({bundle})
        for _ in range({runs}):
            run = experiment.run("jecb", {{"num_partitions": 2}}, meter=True)
            print(run.resources.peak_memory_mb)
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return [float(peak) for peak in out.split()]


@pytest.fixture(scope="module")
def experiment():
    bundle = TatpBenchmark(TatpConfig(subscribers=150)).generate(500, seed=77)
    return PartitioningExperiment(bundle)


class TestPartitioningExperiment:
    def test_split_created(self, experiment):
        total = len(experiment.training_trace) + len(experiment.testing_trace)
        assert total == len(experiment.bundle.trace)

    def test_custom_split_fraction(self):
        bundle = TatpBenchmark(TatpConfig(subscribers=50)).generate(
            200, seed=77
        )
        experiment = PartitioningExperiment(bundle, train_fraction=0.25)
        assert len(experiment.training_trace) == 50

    def test_run_jecb(self, experiment):
        run = experiment.run("jecb", JECBConfig(num_partitions=4))
        assert isinstance(run, ExperimentRun)
        assert run.name == "jecb"
        assert 0.0 <= run.cost <= 1.0

    def test_run_schism_label(self, experiment):
        run = experiment.run(
            "schism", SchismConfig(num_partitions=4), coverage=0.25
        )
        assert run.name == "schism-25%"

    def test_run_horticulture(self, experiment):
        run = experiment.run(
            "horticulture", HorticultureConfig(num_partitions=4, iterations=5)
        )
        assert run.name == "horticulture"
        assert run.partitioning is not None

    def test_run_fixed_uses_partitioning_name(self, experiment):
        from repro.baselines.published import build_spec_partitioning

        fixed = build_spec_partitioning(
            experiment.bundle.database.schema,
            4,
            {"SUBSCRIBER": "S_ID"},
            name="manual",
        )
        run = experiment.run_fixed(fixed)
        assert run.name == "manual"

    def test_runs_accumulate_and_summarize(self, experiment):
        count_before = len(experiment.runs)
        experiment.run("jecb", JECBConfig(num_partitions=2), name="again")
        assert len(experiment.runs) == count_before + 1
        summary = experiment.summary()
        assert "again" in summary
        assert "%" in summary

    def test_metered_run_in_summary(self, experiment):
        run = experiment.run(
            "jecb", JECBConfig(num_partitions=2), name="metered", meter=True
        )
        assert run.resources is not None
        assert "MB" in experiment.summary()

    def test_routed_run_in_summary(self, experiment):
        run = experiment.run(
            "jecb", JECBConfig(num_partitions=2), name="routed", route=True
        )
        assert run.route_summary is not None
        assert run.route_summary.total == len(experiment.testing_trace)
        assert run.route_summary.metrics is not None
        assert "routed:" in experiment.summary()

    def test_first_metered_run_peak_matches_the_next(self):
        # A lazy import inside the first metered run used to add about 1 MB
        # to its peak, so Table 1's RAM cell depended on what ran before it.
        # Only a fresh interpreter shows it.
        first, second = _metered_peaks(
            "TatpBenchmark(TatpConfig(subscribers=80)).generate(300, seed=5)",
            runs=2,
        )
        assert first == pytest.approx(second, abs=0.5)

    def test_metered_peak_does_not_depend_on_the_gc_phase(self):
        # A cyclic collection falling inside a metered run freed the
        # garbage left before it and lowered that run's peak: three
        # identical runs in a fresh interpreter read 0.83, 0.69 and
        # 0.69 MB until the meter collected before resetting the peak.
        peaks = _metered_peaks(
            "TpccBenchmark(TpccConfig(warehouses=2)).generate(300, seed=5)",
            runs=3,
        )
        assert max(peaks) - min(peaks) < 0.05

    def test_route_calls_standalone(self, experiment):
        run = experiment.run("jecb", JECBConfig(num_partitions=2))
        summary = experiment.route_calls(run.partitioning)
        assert summary is not None
        assert summary.total == len(experiment.testing_trace)
