"""Partitioner shootout: JECB vs Schism vs Horticulture (Figure 7 style).

Runs all three partitioners on TPC-C, TATP, and SEATS at 8 partitions
and prints the fraction of distributed transactions each achieves on a
held-out testing trace.

Run:  python examples/partitioner_shootout.py
"""

from repro import JECBConfig
from repro.baselines import HorticultureConfig, SchismConfig
from repro.evaluation.framework import PartitioningExperiment
from repro.workloads.seats import SeatsBenchmark, SeatsConfig
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig

PARTITIONS = 8


def main() -> None:
    benchmarks = [
        TpccBenchmark(TpccConfig(warehouses=8)),
        TatpBenchmark(TatpConfig(subscribers=1000)),
        SeatsBenchmark(SeatsConfig()),
    ]
    for benchmark in benchmarks:
        bundle = benchmark.generate(num_transactions=2500, seed=17)
        experiment = PartitioningExperiment(bundle)
        experiment.run("jecb", JECBConfig(num_partitions=PARTITIONS))
        experiment.run(
            "schism", SchismConfig(num_partitions=PARTITIONS), coverage=0.5
        )
        experiment.run(
            "horticulture",
            HorticultureConfig(num_partitions=PARTITIONS, iterations=40),
        )
        print(experiment.summary())
        print()


if __name__ == "__main__":
    main()
