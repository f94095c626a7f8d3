"""The data-partitioning evaluation framework of Figure 4.

One object wires the whole experiment together: generate (or accept) a
workload bundle, split its trace into training and testing halves, run any
number of partitioners on the training half, and score every resulting
partitioning on the testing half, optionally metering the partitioner's
resources, routing the testing call log and replaying the testing trace
on a simulated cluster.

Partitioners are looked up by name in :mod:`repro.api`'s algorithm table:
``experiment.run("jecb")``, ``experiment.run("schism", coverage=0.5)``,
``experiment.run("horticulture")``. An algorithm added with
:func:`repro.register_partitioner` runs here without touching this class.
This is the only code that wires train -> partition -> evaluate -> route
-> simulate; the experiments CLI and the paper-table benchmarks are loops
over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import partitioner
from repro.cluster import Cluster, CostConfig, FaultPlan
from repro.core.metrics import ClusterMetrics
from repro.core.solution import DatabasePartitioning
from repro.evaluation.evaluator import CostReport, PartitioningEvaluator
from repro.evaluation.resources import ResourceMeter, ResourceUsage
from repro.routing.router import Router, RouteSummary
from repro.trace.splitter import subsample, train_test_split
from repro.workloads.base import WorkloadBundle


@dataclass
class ExperimentRun:
    """One partitioner's outcome on one workload."""

    name: str
    partitioning: DatabasePartitioning
    report: CostReport
    resources: ResourceUsage | None = None
    #: the partitioner's full result object (e.g. JECBResult), when the
    #: algorithm adapter exposes one — carries diagnostics like metrics
    detail: Any = None
    #: router-tier outcomes on the testing trace's call log (when routed)
    route_summary: RouteSummary | None = None
    #: simulated-cluster replay of the testing trace (when executed)
    cluster_metrics: ClusterMetrics | None = None

    @property
    def cost(self) -> float:
        return self.report.cost


@dataclass
class PartitioningExperiment:
    """Figure 4: trace collector -> partitioner -> partitioning evaluator.

    Each run evaluates its partitioning on the testing half, then (when
    asked) routes the testing call log through a :class:`Router` that is
    closed again, then replays the testing trace on a :class:`Cluster`
    that is closed again. The two deployments each build their own
    placement store and never overlap. Sharing one store between them
    keeps the router's lookup views alive while the cluster fills its
    nodes; when the placement store was introduced that raised
    ``tpce-offline``'s peak RSS by about 12%, over the 10% bound the
    benchmark holds it to. Two short-lived stores cost less memory.
    """

    bundle: WorkloadBundle
    train_fraction: float = 0.5
    runs: list[ExperimentRun] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.training_trace, self.testing_trace = train_test_split(
            self.bundle.trace, self.train_fraction
        )
        self.evaluator = PartitioningEvaluator(self.bundle.database)

    def run(
        self,
        algorithm: str,
        config: Any = None,
        *,
        name: str | None = None,
        coverage: float = 1.0,
        meter: bool = False,
        route: bool = False,
        execute: bool = False,
    ) -> ExperimentRun:
        """Run the registered *algorithm* and score its partitioning.

        *config* may be the algorithm's config object, a plain dict or
        ``None``. With ``coverage`` below 1 the algorithm trains on that
        fraction of the training half (:func:`subsample`, taken before
        metering starts) and the run is labelled e.g. ``schism-50%``.
        ``meter=True`` records the partitioner's CPU time and peak memory
        on :attr:`ExperimentRun.resources`. With ``route=True`` the
        testing trace's call log is additionally routed through a
        :class:`~repro.routing.router.Router` over the produced
        partitioning, and the outcome summary lands on the run. With
        ``execute=True`` the testing trace is also replayed against a
        simulated :class:`~repro.cluster.Cluster` (one node per
        partition), putting simulated distributed-commit overhead next to
        the static distributed-transaction fraction.
        """
        adapter = partitioner(algorithm)
        trace = self.training_trace
        label = algorithm
        if coverage != 1.0:
            trace = subsample(trace, coverage)
            label = f"{algorithm}-{coverage:.0%}"
        return self._run(
            name or label,
            lambda: adapter(self.bundle, trace, config),
            meter,
            route,
            execute,
        )

    def run_fixed(
        self,
        partitioning: DatabasePartitioning,
        name: str | None = None,
        route: bool = False,
        execute: bool = False,
    ) -> ExperimentRun:
        """Score a pre-built partitioning (published solutions, optima)."""
        return self._run(
            name or partitioning.name, lambda: partitioning, False, route, execute
        )

    def route_calls(
        self, partitioning: DatabasePartitioning
    ) -> RouteSummary | None:
        """Route the testing trace's call log against *partitioning*.

        Returns ``None`` when the testing trace carries no invocation
        arguments (e.g. traces loaded from pre-argument files). The router
        is detached from the database again before returning.
        """
        calls = self.testing_trace.calls()
        if not calls:
            return None
        router = Router(
            self.bundle.database, self.bundle.catalog, partitioning
        )
        try:
            return router.route_summary(calls)
        finally:
            router.close()

    def execute_cluster(
        self,
        partitioning: DatabasePartitioning,
        num_nodes: int | None = None,
        cost: CostConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> ClusterMetrics:
        """Replay the testing trace against a simulated cluster.

        Places every row of the bundle's database on ``num_nodes`` nodes
        (default: one per partition) and replays the testing trace's
        tuple accesses through the cluster's 2PC accounting. The cluster
        is torn down (listeners detached) before returning.
        """
        cluster = Cluster(
            self.bundle.database,
            self.bundle.catalog,
            partitioning,
            num_nodes=num_nodes,
            cost=cost,
            fault_plan=fault_plan,
        )
        try:
            return cluster.run_trace(self.testing_trace)
        finally:
            cluster.close()

    def _run(
        self,
        name: str,
        produce: Callable[[], Any],
        meter: bool,
        route: bool = False,
        execute: bool = False,
    ) -> ExperimentRun:
        resources = None
        if meter:
            with ResourceMeter() as meter_ctx:
                produced = produce()
            resources = meter_ctx.usage
        else:
            produced = produce()
        partitioning, detail = _unwrap(produced)
        report = self.evaluator.evaluate(partitioning, self.testing_trace)
        run = ExperimentRun(name, partitioning, report, resources, detail)
        if route:
            run.route_summary = self.route_calls(partitioning)
        if execute:
            run.cluster_metrics = self.execute_cluster(partitioning)
        self.runs.append(run)
        return run

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        width = max((len(r.name) for r in self.runs), default=4)
        lines = [f"{self.bundle.benchmark.name}: % distributed transactions"]
        for run in self.runs:
            line = f"  {run.name:<{width}}  {run.cost:7.1%}"
            if run.resources is not None:
                line += f"  ({run.resources})"
            if run.route_summary is not None:
                line += (
                    f"  [routed: "
                    f"{run.route_summary.single_partition_fraction:.1%} "
                    f"single-partition]"
                )
            if run.cluster_metrics is not None:
                line += (
                    f"  [cluster: "
                    f"{run.cluster_metrics.distributed_fraction:.1%} "
                    f"distributed, "
                    f"{run.cluster_metrics.cost_per_transaction:.2f} "
                    f"units/txn]"
                )
            lines.append(line)
        return "\n".join(lines)


def _unwrap(produced: Any) -> tuple[DatabasePartitioning, Any]:
    """Accept either a bare partitioning or a result object carrying one."""
    if isinstance(produced, DatabasePartitioning):
        return produced, None
    partitioning = getattr(produced, "partitioning", None)
    if isinstance(partitioning, DatabasePartitioning):
        return partitioning, produced
    raise TypeError(
        f"algorithm produced {type(produced).__name__}, expected a "
        "DatabasePartitioning or a result object with a .partitioning"
    )
