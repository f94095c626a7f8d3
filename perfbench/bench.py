"""Rounds, metrics and output checks behind ``perfbench/run.py``."""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from typing import Any

from perfbench.clock import NOMINAL_KERNEL_S, SpeedClock
from perfbench.tracing import SpanTotals, Tracer, instrument
from perfbench.workloads import WORKLOADS, Round, Workload

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
#: samples a latency percentile needs beyond it to be reported
MIN_TAIL_SAMPLES = 10


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Report:
    """Metrics and failed checks of one run, printed at the end."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict[str, Any]] = {}
        self.problems: list[str] = []

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"{name:34s} {value!r} {unit}{note}")

    def add_latency(self, name: str, latencies: list[float], pct: int) -> None:
        value, beyond = percentile(latencies, pct)
        self.add(
            name,
            value * 1e3,
            "ms",
            f"  (p{pct} of {len(latencies)} samples, {beyond} beyond)",
        )
        if beyond < MIN_TAIL_SAMPLES:
            self.problems.append(
                f"{name}: only {beyond} samples beyond p{pct}, "
                f"need {MIN_TAIL_SAMPLES}"
            )


def round_seed(seed: int, index: int) -> int:
    """Data seed of round *index*: every round of a run draws new inputs."""
    return seed * 1000 + index


def check_rounds(rounds: list[Round], report: Report) -> None:
    """Collect every round's failed checks."""
    for index, measured in enumerate(rounds):
        report.problems.extend(f"round {index}: {p}" for p in measured.problems)


def setup_seconds(clock: SpeedClock, measured: Round) -> float:
    return sum(clock.scale(*interval) for interval in measured.setup)


def timed_seconds(clock: SpeedClock, measured: Round) -> float:
    """The round's measured work: the pipeline call plus the window."""
    return clock.scale(*measured.pipeline) + clock.scale(*measured.window)


def wall(interval: tuple[float, float]) -> float:
    return interval[1] - interval[0]


def end_to_end(
    workload: Workload, seed: int, seconds: float
) -> tuple[Report, list[Round]]:
    count = max(MIN_ROUNDS, round(seconds / workload.round_seconds))
    rounds = []
    with SpeedClock() as clock:
        for index in range(count):
            gc.collect()
            rounds.append(workload.round(round_seed(seed, index), clock))
    report = Report()
    check_rounds(rounds, report)
    latencies = sorted(
        duration * clock.factor_at(moment)
        for measured in rounds
        for moment, duration in zip(measured.call_starts, measured.call_seconds)
    )
    attempted = sum(measured.attempted for measured in rounds)
    committed = sum(measured.committed for measured in rounds)
    median = statistics.median
    report.add(
        "setup_s",
        median(setup_seconds(clock, r) for r in rounds),
        "s",
        f"  (median of {len(rounds)} rounds; wall "
        f"{median(sum(wall(i) for i in r.setup) for r in rounds):.4f} s)",
    )
    report.add(
        "pipeline_s",
        median(clock.scale(*r.pipeline) for r in rounds),
        "s",
        f"  (wall {median(wall(r.pipeline) for r in rounds):.4f} s)",
    )
    report.add(
        "execute_tps",
        median(r.committed / clock.scale(*r.window) for r in rounds),
        "1/s",
        f"  (wall {median(r.committed / wall(r.window) for r in rounds):.1f} 1/s)",
    )
    report.add_latency("execute_p50_ms", latencies, 50)
    report.add_latency("execute_tail_ms", latencies, workload.tail_percentile)
    report.add(
        "local_pct",
        100.0 * sum(r.local for r in rounds) / sum(r.transactions for r in rounds),
        "%",
    )
    report.add("committed_pct", 100.0 * committed / attempted, "%")
    report.add(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "MB",
    )
    print(
        f"machine speed: {len(clock.kernel_seconds)} samples, reference kernel "
        f"median {median(clock.kernel_seconds) * 1e3:.3f} ms "
        f"(nominal {NOMINAL_KERNEL_S * 1e3:.3f} ms)"
    )
    return report, rounds


def per_layer(workload: Workload, seed: int) -> tuple[Report, list[Round]]:
    with SpeedClock() as clock:
        gc.collect()
        untraced = workload.round(round_seed(seed, 0), clock)
        gc.collect()
        tracer = Tracer(clock.now)
        with instrument(tracer):
            traced = workload.round(round_seed(seed, 0), clock)
    tracer.write(ROOT / ".perfbench" / f"{workload.name}-seed{seed}.spans.tsv")

    report = Report()
    rounds = [untraced, traced]
    check_rounds(rounds, report)
    if untraced.counts != traced.counts:
        report.problems.append(
            f"traced round counts {traced.counts} differ from the untraced "
            f"round's {untraced.counts}"
        )
    spans = tracer.totals(clock.scale)
    gc_starts, gc_ends = tracer.gc_intervals[0::2], tracer.gc_intervals[1::2]

    def span(name: str) -> SpanTotals:
        return spans.get(name, SpanTotals())

    search, cluster = traced.search, traced.cluster
    overhead = timed_seconds(clock, traced) / timed_seconds(clock, untraced)
    routing = traced.routing
    decisions = sum(h.count for m in routing for h in m.latency.values())
    broadcasts = sum(
        m.latency["broadcast"].count for m in routing if "broadcast" in m.latency
    )
    rows = [
        ("workloads.generate_s", span("workloads.generate").total_s, "s"),
        ("workloads.txns_traced", traced.txns_traced, "count"),
        ("workloads.rows_loaded", traced.rows_loaded, "count"),
        ("engine.statements", span("engine.execute").count, "count"),
        ("engine.execute_self_s", span("engine.execute").self_s, "s"),
        ("trace.split_s", span("trace.split").total_s, "s"),
        ("trace.intern_s", search.intern_seconds, "s"),
        ("trace.accesses", traced.trace_accesses, "count"),
        ("core.partition_s", span("core.partition").total_s, "s"),
        ("core.phase1_s", search.phase1_seconds, "s"),
        ("core.phase2_s", search.phase2_seconds, "s"),
        ("core.phase2_mi_s", search.mi_seconds, "s"),
        ("core.phase3_s", search.phase3_seconds, "s"),
        ("core.phase3_cost_s", search.cost_eval_seconds, "s"),
        ("core.trees_examined", search.trees_examined, "count"),
        ("core.mi_tests", search.mi_tests, "count"),
        ("core.mi_refuted", search.mi_refuted, "count"),
        ("core.path_evaluations", search.path_evaluations, "count"),
        ("core.combinations_evaluated", search.combinations_evaluated, "count"),
        ("core.evaluator_cache_hit_pct", 100.0 * search.cache_hit_rate, "%"),
        ("evaluation.evaluate_s", span("evaluation.evaluate").total_s, "s"),
        ("routing.route_calls", decisions, "count"),
        (
            "routing.route_self_s",
            span("routing.route").self_s + span("routing.route_batch").self_s,
            "s",
        ),
        ("routing.lookup_builds", span("routing.lookup_build").count, "count"),
        ("routing.lookup_build_s", span("routing.lookup_build").total_s, "s"),
        ("routing.lookups_rebuilt", sum(m.lookups_rebuilt for m in routing), "count"),
        (
            "routing.staleness_detections",
            sum(m.staleness_detections for m in routing),
            "count",
        ),
        (
            "routing.write_through_applied",
            sum(m.write_through_applied for m in routing),
            "count",
        ),
        ("routing.broadcast_pct", 100.0 * broadcasts / max(decisions, 1), "%"),
        ("cluster.install_s", span("cluster.install").total_s, "s"),
        ("cluster.replay_s", span("cluster.replay").total_s, "s"),
        ("cluster.execute_self_s", span("cluster.execute").self_s, "s"),
        ("cluster.tuples_placed", cluster.tuples_placed, "count"),
        ("cluster.tuples_replicated", cluster.tuples_replicated, "count"),
        ("cluster.committed_distributed", cluster.committed_distributed, "count"),
        ("cluster.prepare_messages", cluster.prepare_messages, "count"),
        ("storage.rows_end", traced.rows_end, "count"),
        ("runtime.gc_s", sum(map(clock.scale, gc_starts, gc_ends)), "s"),
        ("runtime.gc_collections", len(gc_ends), "count"),
        ("runtime.trace_overhead_pct", 100.0 * (overhead - 1.0), "%"),
    ]
    for name, value, unit in rows:
        report.add(name, value, unit)
    return report, rounds


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its metrics and result line; 0 when correct."""
    workload = WORKLOADS.get(workload_name)
    if workload is None:
        print(f"unknown workload {workload_name!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if trace:
        report, rounds = per_layer(workload, seed)
    else:
        report, rounds = end_to_end(workload, seed, seconds)
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not report.problems,
                "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "metrics": report.metrics,
            }
        )
    )
    return 1 if report.problems else 0
