"""Programmatic experiment runners (scaled-down, no assertions).

Each function regenerates one of the paper's results and returns rows of
plain data; the CLI in :mod:`repro.experiments.__main__` renders them.
``scale`` multiplies the default transaction counts, so ``scale=0.25``
gives a fast smoke run and ``scale=2.0`` a higher-fidelity one.

This module only chooses bundles and lays out tables. Every partitioner
run, score, route and simulation goes through
:class:`~repro.evaluation.framework.PartitioningExperiment`.

All runners accept ``jecb_config`` (a partial
:meth:`JECBConfig.from_dict` dict applied under each
experiment's own partition count), and with ``show_metrics=True`` print
every JECB run's :class:`~repro.core.metrics.SearchMetrics` summary.
``show_routing=True`` additionally routes the testing trace's call log
(``run(..., route=True)``) and prints the route summary plus its
:class:`~repro.core.metrics.RoutingMetrics` block.
``show_cluster=True`` replays the testing trace on a simulated cluster
(``run(..., execute=True)``, one node per partition) so simulated
distributed-commit overhead appears next to the static distributed
fraction, and prints the :class:`~repro.core.metrics.ClusterMetrics`
block; ``sec76`` accepts the flag for CLI uniformity but skips the
simulation (its k=100 synthetic sweep would dwarf the table). Each block
is the record's one derived view,
:meth:`~repro.core.metrics.MetricRecord.summary`: every field in order,
stage timers included, and every searched class in name order.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.baselines.published import build_spec_partitioning
from repro.evaluation.framework import ExperimentRun, PartitioningExperiment
from repro.workloads.auctionmark import AuctionMarkBenchmark, AuctionMarkConfig
from repro.workloads.base import WorkloadBundle
from repro.workloads.seats import SeatsBenchmark, SeatsConfig
from repro.workloads.synthetic import (
    SyntheticBenchmark,
    SyntheticConfig,
    group_partitioning,
)
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig
from repro.workloads.tpce import HORTICULTURE_SPEC, TpceBenchmark, TpceConfig

Row = list


def _count(base: int, scale: float) -> int:
    return max(int(base * scale), 100)


def _print_block(label: str, text: str) -> None:
    indented = "\n".join(f"    {line}" for line in text.splitlines())
    print(f"  [{label}]\n{indented}")


def _partition_jecb(
    experiment: PartitioningExperiment,
    label: str,
    k: int,
    jecb_config: dict | None,
    show_metrics: bool,
    route: bool = False,
    execute: bool = False,
) -> ExperimentRun:
    """JECB at *k* partitions under the CLI's overrides; print its blocks."""
    run = experiment.run(
        "jecb",
        {**(jecb_config or {}), "num_partitions": k},
        route=route,
        execute=execute,
    )
    if show_metrics and run.detail.metrics is not None:
        _print_block(label, run.detail.metrics.summary())
    if run.route_summary is not None:
        summary = run.route_summary
        _print_block(
            f"{label} routing", f"{summary}\n{summary.metrics.summary()}"
        )
    return run


def tpcc_sweep(
    bundle: WorkloadBundle,
    coverages: Sequence[float],
    partition_counts: Sequence[int],
    jecb_config: dict | None = None,
    show_metrics: bool = False,
    show_routing: bool = False,
    show_cluster: bool = False,
) -> dict[str, dict[int, float]]:
    """Figures 5 and 6: Schism per training coverage and JECB, per k.

    Returns series label (``"schism 5%"``, ..., ``"jecb"``) -> partition
    count -> % distributed on the testing half. Routing and the cluster
    replay, when asked for, run on JECB at the largest partition count.
    """
    experiment = PartitioningExperiment(bundle)
    series: dict[str, dict[int, float]] = {}
    for coverage in coverages:
        series[f"schism {coverage:.0%}"] = {
            k: experiment.run(
                "schism", {"num_partitions": k}, coverage=coverage
            ).cost
            for k in partition_counts
        }
    series["jecb"] = {}
    for k in partition_counts:
        last = k == partition_counts[-1]
        label = f"jecb k={k}"
        run = _partition_jecb(
            experiment,
            label,
            k,
            jecb_config,
            show_metrics,
            route=show_routing and last,
            execute=show_cluster and last,
        )
        if run.cluster_metrics is not None:
            _print_block(f"{label} cluster", run.cluster_metrics.summary())
        series["jecb"][k] = run.cost
    return series


def figure5(
    scale: float = 1.0,
    seed: int = 11,
    jecb_config: dict | None = None,
    show_metrics: bool = False,
    show_routing: bool = False,
    show_cluster: bool = False,
) -> tuple[list[str], list[Row]]:
    """TPC-C: % distributed vs partition count, Schism coverages vs JECB."""
    bundle = TpccBenchmark(TpccConfig(warehouses=16)).generate(
        _count(4000, scale), seed=seed
    )
    partition_counts = (2, 4, 8, 16)
    series = tpcc_sweep(
        bundle,
        (0.05, 0.2, 1.0),
        partition_counts,
        jecb_config,
        show_metrics,
        show_routing,
        show_cluster,
    )
    rows = [
        [label] + [f"{costs[k]:.1%}" for k in partition_counts]
        for label, costs in series.items()
    ]
    headers = ["series"] + [f"k={k}" for k in partition_counts]
    return headers, rows


def figure7(
    scale: float = 1.0,
    seed: int = 17,
    jecb_config: dict | None = None,
    show_metrics: bool = False,
    show_routing: bool = False,
    show_cluster: bool = False,
) -> tuple[list[str], list[Row]]:
    """JECB vs Schism across benchmarks at k=8 (quick variant).

    With ``show_cluster=True`` the table grows a "JECB sim" column: the
    testing trace replayed on a simulated k-node cluster, reporting the
    simulated distributed-commit fraction and 2PC cost per transaction
    next to the static distributed-transaction fraction.
    """
    k = 8
    benchmarks = [
        ("tpcc", TpccBenchmark(TpccConfig(warehouses=8)), _count(2500, scale)),
        ("tatp", TatpBenchmark(TatpConfig(subscribers=1000)), _count(2500, scale)),
        ("tpce", TpceBenchmark(TpceConfig()), _count(3000, scale)),
        ("seats", SeatsBenchmark(SeatsConfig()), _count(2000, scale)),
        (
            "auctionmark",
            AuctionMarkBenchmark(AuctionMarkConfig()),
            _count(2000, scale),
        ),
    ]
    rows: list[Row] = []
    for name, benchmark, count in benchmarks:
        experiment = PartitioningExperiment(
            benchmark.generate(count, seed=seed)
        )
        jecb = _partition_jecb(
            experiment,
            f"jecb {name}",
            k,
            jecb_config,
            show_metrics,
            route=show_routing,
            execute=show_cluster,
        )
        schism = experiment.run("schism", {"num_partitions": k}, coverage=0.5)
        row = [name, f"{jecb.cost:.1%}", f"{schism.cost:.1%}"]
        if show_cluster:
            sim = jecb.cluster_metrics
            row.append(
                f"{sim.distributed_fraction:.1%} @ "
                f"{sim.cost_per_transaction:.2f} units/txn"
            )
        rows.append(row)
    headers = ["benchmark", "JECB", "Schism 50%"]
    if show_cluster:
        headers.append("JECB sim")
    return headers, rows


def tpce_case_study(
    scale: float = 1.0,
    seed: int = 3,
    jecb_config: dict | None = None,
    show_metrics: bool = False,
    show_routing: bool = False,
    show_cluster: bool = False,
) -> tuple[list[str], list[Row]]:
    """Section 7.5: per-class costs of JECB vs Horticulture's design.

    With ``show_cluster=True`` two extra rows replay the testing trace
    on a simulated 8-node cluster for each design, putting simulated
    distributed-commit overhead (2PC cost units per transaction) next to
    the static distributed-transaction fractions above.
    """
    experiment = PartitioningExperiment(
        TpceBenchmark(TpceConfig()).generate(_count(3000, scale), seed=seed)
    )
    jecb = _partition_jecb(
        experiment,
        "jecb tpce",
        8,
        jecb_config,
        show_metrics,
        route=show_routing,
        execute=show_cluster,
    )
    hc = experiment.run_fixed(
        build_spec_partitioning(
            experiment.bundle.database.schema, 8, HORTICULTURE_SPEC
        ),
        execute=show_cluster,
    )
    rows = [
        [
            name,
            f"{jecb.report.class_cost(name):.0%}",
            f"{hc.report.class_cost(name):.0%}",
        ]
        for name in sorted(jecb.report.per_class_total)
    ]
    rows.append(["TOTAL", f"{jecb.cost:.1%}", f"{hc.cost:.1%}"])
    if show_cluster:
        jecb_sim, hc_sim = jecb.cluster_metrics, hc.cluster_metrics
        rows.append(
            [
                "SIM distributed",
                f"{jecb_sim.distributed_fraction:.1%}",
                f"{hc_sim.distributed_fraction:.1%}",
            ]
        )
        rows.append(
            [
                "SIM units/txn",
                f"{jecb_sim.cost_per_transaction:.2f}",
                f"{hc_sim.cost_per_transaction:.2f}",
            ]
        )
    return ["class", "JECB", "Horticulture"], rows


def section76(
    scale: float = 1.0,
    seed: int = 9,
    jecb_config: dict | None = None,
    show_metrics: bool = False,
    show_routing: bool = False,
    show_cluster: bool = False,
) -> tuple[list[str], list[Row]]:
    """Synthetic non-key-join mix sweep at k=100."""
    k = 100
    rows: list[Row] = []
    for fraction in (1.0, 0.75, 0.5, 0.25, 0.0):
        mix = f"{fraction:.0%} schema-respecting"
        experiment = PartitioningExperiment(
            SyntheticBenchmark(
                SyntheticConfig(schema_join_fraction=fraction)
            ).generate(_count(1500, scale), seed=seed)
        )
        jecb = _partition_jecb(
            experiment, f"jecb {mix}", k, jecb_config, show_metrics
        )
        column = experiment.run_fixed(
            group_partitioning(experiment.bundle.database.schema, k)
        )
        rows.append([mix, f"{jecb.cost:.1%}", f"{column.cost:.1%}"])
    return ["mix", "JECB", "column-based"], rows


EXPERIMENTS: dict[str, Callable[..., tuple[list[str], list[Row]]]] = {
    "fig5": figure5,
    "fig7": figure7,
    "tpce": tpce_case_study,
    "sec76": section76,
}
