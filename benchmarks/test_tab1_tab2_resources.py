"""Tables 1 and 2: resource consumption for partitioning TPC-C.

Paper (128-warehouse database):
    schism 1%   692 MB   232 s
    schism 5%   4442 MB  577 s
    schism 10%  9774 MB  1870 s
    JECB        30 MB    35 s

Paper (1024-warehouse database):
    schism 0.1%  5285 MB   1250 s
    schism 0.2%  30252 MB  3870 s
    JECB         30 MB     36 s

Absolute numbers are testbed-specific; the reproduced shape is that
Schism's memory and CPU grow steeply with training coverage while JECB's
stay small and flat.
"""

from repro.baselines import SchismConfig
from repro.core import JECBConfig
from repro.evaluation.framework import PartitioningExperiment

from conftest import print_table

K = 8


def measure(bundle, coverages):
    experiment = PartitioningExperiment(bundle)
    rows = []
    usages = {}
    for coverage in coverages:
        usages[f"schism {coverage:.0%}"] = experiment.run(
            "schism",
            SchismConfig(num_partitions=K),
            coverage=coverage,
            meter=True,
        ).resources
    usages["JECB"] = experiment.run(
        "jecb", JECBConfig(num_partitions=K), meter=True
    ).resources
    for name, usage in usages.items():
        rows.append([name, f"{usage.peak_memory_mb:.1f}", f"{usage.cpu_seconds:.2f}"])
    return usages, rows


def check_shape(usages, coverages):
    schism_keys = [f"schism {c:.0%}" for c in coverages]
    # Schism memory grows with coverage
    memories = [usages[k].peak_memory_bytes for k in schism_keys]
    assert memories == sorted(memories)
    # JECB uses less memory than Schism at the highest coverage
    assert (
        usages["JECB"].peak_memory_bytes
        < usages[schism_keys[-1]].peak_memory_bytes
    )


def test_tab1_resources_small(tpcc_small, benchmark):
    coverages = (0.05, 0.2, 1.0)
    usages, rows = benchmark.pedantic(
        measure, args=(tpcc_small, coverages), rounds=1, iterations=1
    )
    print_table(
        "Table 1 (scaled): resource consumption, TPC-C 16 wh",
        ["approach", "RAM (MB)", "CPU (s)"],
        rows,
    )
    check_shape(usages, coverages)


def test_tab2_resources_large(tpcc_large, benchmark):
    coverages = (0.02, 0.05, 0.5)
    usages, rows = benchmark.pedantic(
        measure, args=(tpcc_large, coverages), rounds=1, iterations=1
    )
    print_table(
        "Table 2 (scaled): resource consumption, TPC-C 32 wh",
        ["approach", "RAM (MB)", "CPU (s)"],
        rows,
    )
    check_shape(usages, coverages)
