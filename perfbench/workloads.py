"""The benchmark's three workloads, each run as self-contained rounds.

A round builds everything from its seed, does the measured work once and
checks its outputs. Rounds share no state, so a round's work and counts
depend on its seed alone.

* ``tpce-offline``: generate a TPC-E bundle, run the partition advisor
  (``PartitioningExperiment.run`` with routing and cluster replay), then
  replay the held-out half through a fresh cluster, one chunk of
  :data:`TPCE_CHUNK` transactions per call.
* ``tatp-serve``: partition a TATP preload and execute a fixed,
  read-heavy call stream with ``Cluster.execute``.
* ``tpcc-live``: partition a small TPC-C preload and execute a fixed,
  write-heavy call stream with ``Cluster.execute``.

Call streams are drawn before timing starts by :class:`CallRecorder`,
which stands in for the trace collector and records each
``(procedure, arguments)`` the workload's own ``run_transaction`` issues.
The recorder continues the benchmark object that produced the preload,
so generated keys continue past the preloaded ones.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from perfbench.clock import SpeedClock
from repro.cluster import Cluster
from repro.core.metrics import ClusterMetrics, RoutingMetrics, SearchMetrics
from repro.core.partitioner import JECBConfig
from repro.evaluation.framework import ExperimentRun, PartitioningExperiment
from repro.procedures.procedure import ProcedureCatalog, StoredProcedure
from repro.workloads.base import Benchmark, WorkloadBundle
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig
from repro.workloads.tpce import TpceBenchmark, TpceConfig

PARTITIONS = 8

TPCE_TRANSACTIONS = 6000
#: times the held-out half is replayed in the tpce-offline window
TPCE_REPLAYS = 10
#: held-out transactions replayed per call. TPC-E's 15 classes cost from
#: 15 to 210 us each and the median of single transactions falls between
#: two of them; a chunk's cost varies smoothly.
TPCE_CHUNK = 10

TATP_SUBSCRIBERS = 1500
TATP_PRELOAD = 2000
TATP_CALLS = 40000
#: TATP's 80% read share with its writes on CALL_FORWARDING only, for the
#: preload and the call stream alike. Those writes are applied to the
#: cached lookups write-through. The SUBSCRIBER updates of the standard mix
#: would drop the lookups of every table whose join path reads SUBSCRIBER;
#: that rebuild path is what tpcc-live measures.
TATP_MIX = {
    "GetSubscriberData": 35.0,
    "GetNewDestination": 10.0,
    "GetAccessData": 35.0,
    "InsertCallForwarding": 10.0,
    "DeleteCallForwarding": 10.0,
}

TPCC_WAREHOUSES = 2
TPCC_PRELOAD = 300
TPCC_CALLS = 120
#: 90% NewOrder, Payment and Delivery. Payments cost 40-120 ms here and
#: NewOrders 130-250 ms; in the standard 45/43 mix the median falls in the
#: gap between the two, and moves across it from seed to seed.
TPCC_MIX = {
    "NewOrder": 30.0,
    "Payment": 55.0,
    "Delivery": 5.0,
    "OrderStatus": 5.0,
    "StockLevel": 5.0,
}

Call = tuple[str, dict[str, Any]]


class CallRecorder:
    """Collector stand-in that records calls instead of executing them."""

    def __init__(self) -> None:
        self.calls: list[Call] = []

    def run(self, procedure: StoredProcedure, arguments: Mapping[str, Any]) -> None:
        self.calls.append((procedure.name, dict(arguments)))


def draw_calls(
    benchmark: Benchmark, catalog: ProcedureCatalog, seed: int, count: int
) -> list[Call]:
    """*count* calls from the workload's own ``run_transaction``, after its preload."""
    rng = random.Random(f"calls-{seed}")
    recorder = CallRecorder()
    for _ in range(count):
        procedure = benchmark.pick_procedure(catalog, rng)
        benchmark.run_transaction(recorder, procedure, rng)  # type: ignore[arg-type]
    return recorder.calls


def _mix_picker(mix: Mapping[str, float]):
    """A ``pick_procedure`` that draws from *mix* instead of the catalog."""
    names = sorted(mix)
    weights = [mix[name] for name in names]

    def pick_procedure(
        self: Benchmark, catalog: ProcedureCatalog, rng: random.Random
    ) -> StoredProcedure:
        return catalog.get(rng.choices(names, weights)[0])

    return pick_procedure


class ServedTatp(TatpBenchmark):
    """TATP whose preload and call stream both draw from :data:`TATP_MIX`."""

    pick_procedure = _mix_picker(TATP_MIX)


class ServedTpcc(TpccBenchmark):
    """TPC-C whose preload and call stream both draw from :data:`TPCC_MIX`."""

    pick_procedure = _mix_picker(TPCC_MIX)


Interval = tuple[float, float]


@dataclass
class Round:
    """What one round measured, counted and found wrong.

    Times are raw :meth:`SpeedClock.now` readings; the caller scales them
    to reference seconds once the run is over.
    """

    setup: list[Interval] = field(default_factory=list)
    pipeline: Interval = (0.0, 0.0)
    window: Interval = (0.0, 0.0)
    #: start and duration of every call in the window
    call_starts: array = field(default_factory=lambda: array("d"))
    call_seconds: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    #: single-partition transactions, out of ``transactions``
    local: int = 0
    transactions: int = 0
    #: database rows right after the workload generated its bundle, and
    #: after the window
    rows_loaded: int = 0
    rows_end: int = 0
    txns_traced: int = 0
    trace_accesses: int = 0
    problems: list[str] = field(default_factory=list)
    search: SearchMetrics | None = None
    routing: list[RoutingMetrics] = field(default_factory=list)
    cluster: ClusterMetrics | None = None

    @property
    def committed(self) -> int:
        return self.attempted - self.failed

    @property
    def counts(self) -> dict[str, Any]:
        """Counts that must repeat exactly across rounds of one seed."""
        cluster = self.cluster or ClusterMetrics()
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "local": self.local,
            "committed_distributed": cluster.committed_distributed,
            "trees_examined": self.search.trees_examined if self.search else 0,
            "lookups_rebuilt": sum(m.lookups_rebuilt for m in self.routing),
            "rows_end": self.rows_end,
        }

    def record_call(self, started: float, ended: float) -> None:
        self.call_starts.append(started)
        self.call_seconds.append(ended - started)


def _partition(
    bundle: WorkloadBundle, **run_options: Any
) -> tuple[PartitioningExperiment, ExperimentRun]:
    """The partition advisor: JECB on the bundle's training half."""
    experiment = PartitioningExperiment(bundle)
    run = experiment.run("jecb", JECBConfig(num_partitions=PARTITIONS), **run_options)
    return experiment, run


def tpce_offline(seed: int, clock: SpeedClock) -> Round:
    out = Round()
    now = clock.now
    started = now()
    bundle = TpceBenchmark(TpceConfig()).generate(TPCE_TRANSACTIONS, seed=seed)
    out.setup.append((started, now()))
    out.rows_loaded = bundle.database.row_count()

    started = now()
    experiment, run = _partition(bundle, route=True, execute=True)
    out.pipeline = (started, now())

    started = now()
    cluster = Cluster(bundle.database, bundle.catalog, run.partitioning)
    out.setup.append((started, now()))

    held_out = list(experiment.testing_trace)
    chunks = [
        held_out[i : i + TPCE_CHUNK] for i in range(0, len(held_out), TPCE_CHUNK)
    ]
    window_started = now()
    for _ in range(TPCE_REPLAYS):
        for chunk in chunks:
            failed_before = cluster.metrics.failed
            call_started = now()
            try:
                cluster.run_trace(chunk)
            except Exception as error:  # keep serving; the check reports it
                out.problems.append(f"replay of a chunk raised {error!r}")
                out.failed += len(chunk)
            else:
                out.failed += cluster.metrics.failed - failed_before
            out.record_call(call_started, now())
            out.attempted += len(chunk)
    out.window = (window_started, now())
    cluster.close()

    report, replayed = run.report, run.cluster_metrics
    assert replayed is not None
    local = report.total_transactions - report.distributed_transactions
    out.local, out.transactions = local, report.total_transactions
    if (replayed.transactions, replayed.committed_local) != (
        report.total_transactions,
        local,
    ):
        out.problems.append(
            f"static evaluator: {local}/{report.total_transactions} local, "
            f"cluster replay: {replayed.committed_local}/"
            f"{replayed.transactions} local"
        )
    served = cluster.metrics
    if served.committed_local != TPCE_REPLAYS * local:
        out.problems.append(
            f"window replay: {served.committed_local} local commits, "
            f"expected {TPCE_REPLAYS * local}"
        )
    _check_failures(out, served)
    _finish(out, bundle, run, served)
    if run.route_summary is not None and run.route_summary.metrics is not None:
        out.routing.append(run.route_summary.metrics)
    return out


def _serve(
    benchmark: Benchmark, preload: int, calls: int, seed: int, clock: SpeedClock
) -> Round:
    """Partition a preload, install it on a cluster and execute a stream."""
    out = Round()
    now = clock.now
    started = now()
    bundle = benchmark.generate(preload, seed=seed)
    out.setup.append((started, now()))
    out.rows_loaded = bundle.database.row_count()

    stream = draw_calls(benchmark, bundle.catalog, seed, calls)

    # Advise and deploy: partition, install, warm the router's lookups.
    started = now()
    _, run = _partition(bundle)
    cluster = Cluster(bundle.database, bundle.catalog, run.partitioning)
    router = cluster.router
    assert router is not None
    first_calls = {name: arguments for name, arguments in reversed(stream)}
    for name, arguments in sorted(first_calls.items()):
        router.route(name, arguments)
    out.pipeline = (started, now())
    out.setup.append(out.pipeline)

    window_started = now()
    for name, arguments in stream:
        call_started = now()
        try:
            committed = cluster.execute(name, arguments)
        except Exception as error:  # keep serving; the check reports it
            committed = False
            out.problems.append(f"{name}{arguments} raised {error!r}")
        out.record_call(call_started, now())
        if not committed:
            out.failed += 1
    out.window = (window_started, now())
    out.attempted = len(stream)

    served = cluster.metrics
    out.local, out.transactions = served.committed_local, served.transactions
    out.problems.extend(cluster.check_conservation())
    _check_failures(out, served)
    cluster.close()
    _finish(out, bundle, run, served)
    out.routing.append(router.metrics)
    return out


def _finish(
    out: Round, bundle: WorkloadBundle, run: ExperimentRun, served: ClusterMetrics
) -> None:
    """Keep the round's sizes and metrics, not its database."""
    out.rows_end = bundle.database.row_count()
    out.txns_traced = len(bundle.trace)
    out.trace_accesses = sum(len(txn) for txn in bundle.trace)
    out.search, out.cluster = run.detail.metrics, served


def _check_failures(out: Round, served: ClusterMetrics) -> None:
    if out.failed != served.failed:
        out.problems.append(
            f"{out.failed} calls failed, the cluster counted {served.failed}"
        )


def tatp_serve(seed: int, clock: SpeedClock) -> Round:
    benchmark = ServedTatp(TatpConfig(subscribers=TATP_SUBSCRIBERS))
    return _serve(benchmark, TATP_PRELOAD, TATP_CALLS, seed, clock)


def tpcc_live(seed: int, clock: SpeedClock) -> Round:
    benchmark = ServedTpcc(TpccConfig(warehouses=TPCC_WAREHOUSES))
    return _serve(benchmark, TPCC_PRELOAD, TPCC_CALLS, seed, clock)


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[int, SpeedClock], Round]
    #: the latency percentile reported as ``execute_tail_ms``: the highest
    #: of p99/p90 that keeps at least ten samples beyond it in a run
    tail_percentile: int
    #: wall seconds of one round on the 2-vCPU machine the benchmark was
    #: tuned on; sets how many rounds fit in ``--seconds``
    round_seconds: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tpce-offline", tpce_offline, 99, 10.0),
        Workload("tatp-serve", tatp_serve, 99, 5.5),
        Workload("tpcc-live", tpcc_live, 90, 11.0),
    )
}
