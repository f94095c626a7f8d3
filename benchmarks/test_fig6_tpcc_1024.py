"""Figure 6: TPC-C at the larger scale (paper: 1024 warehouses).

Paper: Schism at 0.1% / 0.2% coverage vs JECB; with so little training
data Schism cannot find good partitionings except at tiny partition
counts, while JECB is unaffected by database size.

Scaled stand-in: 32 warehouses, Schism coverage 2% / 5% of the training
trace, partitions 4..32.
"""

from repro.experiments.runner import tpcc_sweep

from conftest import pct, print_table

PARTITION_COUNTS = (4, 8, 16, 32)
COVERAGES = (0.02, 0.05)  # stand-ins for the paper's 0.1% / 0.2%


def run_figure6(bundle):
    return tpcc_sweep(bundle, COVERAGES, PARTITION_COUNTS)


def test_fig6(tpcc_large, benchmark):
    series = benchmark.pedantic(
        run_figure6, args=(tpcc_large,), rounds=1, iterations=1
    )
    rows = [
        [name] + [pct(costs[k]) for k in PARTITION_COUNTS]
        for name, costs in series.items()
    ]
    print_table(
        "Figure 6: TPC-C (scaled 32 wh) — % distributed vs #partitions",
        ["series"] + [f"k={k}" for k in PARTITION_COUNTS],
        rows,
    )
    jecb = series["jecb"]
    assert max(jecb.values()) - min(jecb.values()) < 0.10
    for label, costs in series.items():
        if label == "jecb":
            continue
        for k in PARTITION_COUNTS:
            assert jecb[k] < costs[k], (label, k)
        # at starved coverage Schism is far from optimal at high k
        assert costs[PARTITION_COUNTS[-1]] > jecb[PARTITION_COUNTS[-1]] + 0.20
