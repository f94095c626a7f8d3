"""Programmatic experiment runners (scaled-down, no assertions).

Each function regenerates one of the paper's results and returns rows of
plain data; the CLI in :mod:`repro.experiments.__main__` renders them.
``scale`` multiplies the default transaction counts, so ``scale=0.25``
gives a fast smoke run and ``scale=2.0`` a higher-fidelity one.

All runners accept ``jecb_config`` (a partial
:meth:`JECBConfig.from_dict` dict applied under each
experiment's own partition count), and with ``show_metrics=True`` print
every JECB run's :class:`~repro.core.metrics.SearchMetrics` summary.
``show_routing=True`` additionally replays the testing trace's call log
through the runtime :class:`~repro.routing.Router` and prints the route
summary plus its :class:`~repro.core.metrics.RoutingMetrics` block.
``show_cluster=True`` replays the testing trace on a simulated
:class:`~repro.cluster.Cluster` (one node per partition) so simulated
distributed-commit overhead appears next to the static distributed
fraction; ``sec76`` accepts the flag for CLI uniformity but skips the
simulation (its k=100 synthetic sweep would dwarf the table).
"""

from __future__ import annotations

from typing import Callable

from repro.baselines import SchismConfig, SchismPartitioner
from repro.baselines.published import build_spec_partitioning
from repro.cluster import Cluster
from repro.core import JECBConfig, JECBPartitioner, JECBResult
from repro.core.metrics import ClusterMetrics
from repro.core.solution import DatabasePartitioning
from repro.evaluation import PartitioningEvaluator
from repro.routing import Router
from repro.trace import Trace, subsample, train_test_split
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


def _jecb_config(k: int, overrides: dict | None = None) -> JECBConfig:
    """Experiment JECB config: CLI overrides under the experiment's k."""
    data = dict(overrides or {})
    data["num_partitions"] = k
    return JECBConfig.from_dict(data)


def _report_metrics(
    label: str, result: JECBResult, show_metrics: bool
) -> None:
    if show_metrics and result.metrics is not None:
        indented = "\n".join(
            f"    {line}" for line in result.metrics.summary().splitlines()
        )
        print(f"  [{label}]\n{indented}")


def _report_routing(
    label: str,
    bundle: WorkloadBundle,
    partitioning: DatabasePartitioning,
    test_trace: Trace,
    show_routing: bool,
) -> None:
    """Replay the testing call log through the router and print outcomes."""
    if not show_routing:
        return
    calls = test_trace.calls()
    if not calls:
        return
    router = Router(bundle.database, bundle.catalog, partitioning)
    try:
        summary = router.route_summary(calls)
    finally:
        router.close()
    lines = [str(summary)] + summary.metrics.summary().splitlines()
    indented = "\n".join(f"    {line}" for line in lines)
    print(f"  [{label} routing]\n{indented}")


def _simulate_cluster(
    bundle: WorkloadBundle,
    partitioning: DatabasePartitioning,
    test_trace: Trace,
) -> ClusterMetrics:
    """Replay *test_trace* against a simulated cluster (one node/partition)."""
    cluster = Cluster(bundle.database, bundle.catalog, partitioning)
    try:
        return cluster.run_trace(test_trace)
    finally:
        cluster.close()


def _report_cluster(
    label: str,
    bundle: WorkloadBundle,
    partitioning: DatabasePartitioning,
    test_trace: Trace,
    show_cluster: bool,
) -> ClusterMetrics | None:
    """Simulate the cluster replay and print its metrics block."""
    if not show_cluster:
        return None
    metrics = _simulate_cluster(bundle, partitioning, test_trace)
    indented = "\n".join(
        f"    {line}" for line in metrics.summary().splitlines()
    )
    print(f"  [{label} cluster]\n{indented}")
    return metrics


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
    train, test = train_test_split(bundle.trace, 0.5)
    evaluator = PartitioningEvaluator(bundle.database)
    partition_counts = (2, 4, 8, 16)
    rows: list[Row] = []
    for coverage in (0.05, 0.2, 1.0):
        row: Row = [f"schism {coverage:.0%}"]
        sub = subsample(train, coverage)
        for k in partition_counts:
            result = SchismPartitioner(
                bundle.database, SchismConfig(num_partitions=k)
            ).run(sub)
            row.append(f"{evaluator.cost(result.partitioning, test):.1%}")
        rows.append(row)
    row = ["jecb"]
    for k in partition_counts:
        result = JECBPartitioner(
            bundle.database,
            bundle.catalog,
            _jecb_config(k, jecb_config),
        ).run(train)
        _report_metrics(f"jecb k={k}", result, show_metrics)
        if k == partition_counts[-1]:
            _report_routing(
                f"jecb k={k}", bundle, result.partitioning, test, show_routing
            )
            _report_cluster(
                f"jecb k={k}", bundle, result.partitioning, test, show_cluster
            )
        row.append(f"{evaluator.cost(result.partitioning, test):.1%}")
    rows.append(row)
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
        bundle = benchmark.generate(count, seed=seed)
        train, test = train_test_split(bundle.trace, 0.5)
        evaluator = PartitioningEvaluator(bundle.database)
        jecb = JECBPartitioner(
            bundle.database,
            bundle.catalog,
            _jecb_config(k, jecb_config),
        ).run(train)
        _report_metrics(f"jecb {name}", jecb, show_metrics)
        _report_routing(
            f"jecb {name}", bundle, jecb.partitioning, test, show_routing
        )
        schism = SchismPartitioner(
            bundle.database, SchismConfig(num_partitions=k)
        ).run(subsample(train, 0.5))
        row = [
            name,
            f"{evaluator.cost(jecb.partitioning, test):.1%}",
            f"{evaluator.cost(schism.partitioning, test):.1%}",
        ]
        if show_cluster:
            sim = _simulate_cluster(bundle, jecb.partitioning, test)
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
    bundle = TpceBenchmark(TpceConfig()).generate(
        _count(3000, scale), seed=seed
    )
    train, test = train_test_split(bundle.trace, 0.5)
    evaluator = PartitioningEvaluator(bundle.database)
    result = JECBPartitioner(
        bundle.database,
        bundle.catalog,
        _jecb_config(8, jecb_config),
    ).run(train)
    _report_metrics("jecb tpce", result, show_metrics)
    _report_routing(
        "jecb tpce", bundle, result.partitioning, test, show_routing
    )
    hc_partitioning = build_spec_partitioning(
        bundle.database.schema, 8, HORTICULTURE_SPEC
    )
    jecb_report = evaluator.evaluate(result.partitioning, test)
    hc_report = evaluator.evaluate(hc_partitioning, test)
    rows = [
        [
            name,
            f"{jecb_report.class_cost(name):.0%}",
            f"{hc_report.class_cost(name):.0%}",
        ]
        for name in sorted(jecb_report.per_class_total)
    ]
    rows.append(["TOTAL", f"{jecb_report.cost:.1%}", f"{hc_report.cost:.1%}"])
    if show_cluster:
        jecb_sim = _simulate_cluster(bundle, result.partitioning, test)
        hc_sim = _simulate_cluster(bundle, hc_partitioning, test)
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
        bundle = SyntheticBenchmark(
            SyntheticConfig(schema_join_fraction=fraction)
        ).generate(_count(1500, scale), seed=seed)
        train, test = train_test_split(bundle.trace, 0.5)
        evaluator = PartitioningEvaluator(bundle.database)
        result = JECBPartitioner(
            bundle.database,
            bundle.catalog,
            _jecb_config(k, jecb_config),
        ).run(train)
        _report_metrics(
            f"jecb {fraction:.0%} schema-respecting", result, show_metrics
        )
        rows.append(
            [
                f"{fraction:.0%} schema-respecting",
                f"{evaluator.cost(result.partitioning, test):.1%}",
                f"{evaluator.cost(group_partitioning(bundle.database.schema, k), test):.1%}",
            ]
        )
    return ["mix", "JECB", "column-based"], rows


EXPERIMENTS: dict[str, Callable[..., tuple[list[str], list[Row]]]] = {
    "fig5": figure5,
    "fig7": figure7,
    "tpce": tpce_case_study,
    "sec76": section76,
}
