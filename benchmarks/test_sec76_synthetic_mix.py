"""Section 7.6: synthetic workloads with non-key joins.

Paper: mix two transaction classes — one respecting the schema (key-FK
joins only), one correlating tables through a non-key attribute — at 100
partitions. Join-extension wins while schema-respecting transactions
dominate; the column-based solution wins when they do not; they cross
over in the middle.
"""

from repro.core import JECBConfig
from repro.evaluation.framework import PartitioningExperiment
from repro.workloads.synthetic import (
    SyntheticBenchmark,
    SyntheticConfig,
    group_partitioning,
)

from conftest import pct, print_table

K = 100
FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.0)


def run_sweep():
    rows = []
    jecb_costs = {}
    column_costs = {}
    for fraction in FRACTIONS:
        experiment = PartitioningExperiment(
            SyntheticBenchmark(
                SyntheticConfig(schema_join_fraction=fraction)
            ).generate(1500, seed=9)
        )
        jecb_costs[fraction] = experiment.run(
            "jecb", JECBConfig(num_partitions=K)
        ).cost
        column_costs[fraction] = experiment.run_fixed(
            group_partitioning(experiment.bundle.database.schema, K)
        ).cost
        rows.append(
            [
                f"{fraction:.0%} schema-respecting",
                pct(jecb_costs[fraction]),
                pct(column_costs[fraction]),
            ]
        )
    return jecb_costs, column_costs, rows


def test_sec76(benchmark):
    jecb_costs, column_costs, rows = benchmark.pedantic(
        run_sweep, rounds=1, iterations=1
    )
    print_table(
        "Section 7.6: synthetic mix sweep (k=100)",
        ["mix", "JECB (join-extension)", "column-based (GRP)"],
        rows,
    )
    # join-extension wins when schema-respecting transactions dominate
    assert jecb_costs[1.0] < 0.05
    assert column_costs[1.0] > 0.8
    assert jecb_costs[0.75] < column_costs[0.75]
    # column-based wins when non-key-join transactions dominate
    assert column_costs[0.0] < 0.05
    assert jecb_costs[0.0] > 0.8
    assert column_costs[0.25] < jecb_costs[0.25]
    # both degrade monotonically toward their bad end
    jecb_series = [jecb_costs[f] for f in FRACTIONS]
    assert jecb_series == sorted(jecb_series)
    column_series = [column_costs[f] for f in FRACTIONS]
    assert column_series == sorted(column_series, reverse=True)
