"""Figure 5: TPC-C scalability in the number of partitions.

Paper: 128-warehouse TPC-C, Schism trained at 1% / 5% / 10% coverage vs
JECB, sweeping the partition count. Expected shape: JECB stays flat at
the warehouse optimum for every partition count; Schism's cost grows with
the partition count and shrinks with coverage.

Scaled stand-in: 16 warehouses, partitions 2..16, Schism coverage as a
fraction of the training trace.
"""

from repro.experiments.runner import tpcc_sweep

from conftest import pct, print_table

PARTITION_COUNTS = (2, 4, 8, 16)
COVERAGES = (0.05, 0.2, 1.0)  # stand-ins for the paper's 1% / 5% / 10%


def run_figure5(bundle):
    return tpcc_sweep(bundle, COVERAGES, PARTITION_COUNTS)


def test_fig5(tpcc_small, benchmark):
    series = benchmark.pedantic(
        run_figure5, args=(tpcc_small,), rounds=1, iterations=1
    )
    rows = [
        [name] + [pct(costs[k]) for k in PARTITION_COUNTS]
        for name, costs in series.items()
    ]
    print_table(
        "Figure 5: TPC-C (scaled 16 wh) — % distributed vs #partitions",
        ["series"] + [f"k={k}" for k in PARTITION_COUNTS],
        rows,
    )

    jecb = series["jecb"]
    # JECB is flat: its worst partition count is close to its best.
    assert max(jecb.values()) - min(jecb.values()) < 0.10
    # JECB beats Schism at every partition count and coverage.
    for label, costs in series.items():
        if label == "jecb":
            continue
        for k in PARTITION_COUNTS:
            assert jecb[k] <= costs[k] + 0.02, (label, k)
    # Schism degrades as partitions grow (compare extremes).
    full = series["schism 100%"]
    assert full[PARTITION_COUNTS[-1]] > full[PARTITION_COUNTS[0]]
    # ... and improves with coverage at the largest partition count.
    assert (
        series["schism 100%"][16] <= series["schism 5%"][16] + 0.02
    )
