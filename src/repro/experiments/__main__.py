"""CLI entry point: ``python -m repro.experiments [name] [options]``.

Options make runs reproducible from the command line::

    python -m repro.experiments fig5 --scale 0.5
    python -m repro.experiments fig7 --config jecb.json --no-metrics
    python -m repro.experiments tpce --config '{"phase2": {"max_trees_per_root": 16}}'

``--config`` accepts a path to a JSON file or an inline JSON object; it is
a partial :meth:`JECBConfig.from_dict` dict applied under each
experiment's own partition count. Every JECB run prints its SearchMetrics
block unless ``--no-metrics`` is given, and (where an experiment supports
it) replays the testing call log through the runtime router, printing the
route summary and RoutingMetrics block, unless ``--no-routing`` is given.
Experiments that support it also replay the testing trace on a simulated
cluster (one node per partition) and report the simulated
distributed-commit overhead, unless ``--no-cluster`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.experiments.runner import EXPERIMENTS


def _render(headers: list[str], rows: list[list]) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _load_config(value: str) -> dict:
    """JSON file path or inline JSON object -> partial JECBConfig dict."""
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        try:
            data = json.loads(value)
        except json.JSONDecodeError as exc:
            raise argparse.ArgumentTypeError(
                f"--config expects a JSON file path or inline JSON: {exc}"
            ) from None
    if not isinstance(data, dict):
        raise argparse.ArgumentTypeError(
            f"--config must decode to a JSON object, got {type(data).__name__}"
        )
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the JECB paper's experiments (quick variants).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all"],
        default="all",
        help="which experiment to run (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.5,
        help="transaction-count multiplier (default 0.5 for a quick run)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument(
        "--config",
        type=_load_config,
        default=None,
        metavar="JSON",
        help="partial JECBConfig as a JSON file path or inline JSON object",
    )
    parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="suppress the per-run SearchMetrics summaries",
    )
    parser.add_argument(
        "--no-routing",
        action="store_true",
        help="suppress the router-tier summaries (RoutingMetrics blocks)",
    )
    parser.add_argument(
        "--no-cluster",
        action="store_true",
        help="skip the simulated-cluster replay (ClusterMetrics output)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile each experiment: per-stage seconds from the search "
        "metrics plus the top cProfile entries by cumulative time",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="statically lint every bundled workload before running "
        "(see python -m repro.lint for the standalone tool)",
    )
    args = parser.parse_args(argv)

    if args.lint:
        from repro.lint import RULES, lint_workload, render_human
        from repro.lint.workloads import WORKLOADS

        findings = [
            finding
            for spec in WORKLOADS.values()
            for finding in lint_workload(spec).findings
        ]
        print("== lint ==")
        print(render_human(findings, RULES))

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner = EXPERIMENTS[name]
        started = time.time()
        kwargs = {
            "scale": args.scale,
            "jecb_config": args.config,
            "show_metrics": not args.no_metrics,
            "show_routing": not args.no_routing,
            "show_cluster": not args.no_cluster,
        }
        if args.seed is not None:
            kwargs["seed"] = args.seed
        print(f"\n== {name} ==")
        if args.profile:
            headers, rows = _profiled(runner, kwargs)
        else:
            headers, rows = runner(**kwargs)
        print(f"-- {time.time() - started:.1f}s --")
        print(_render(headers, rows))
    return 0


#: stage-timer keys reported by ``--profile`` (in SearchMetrics order)
_STAGE_KEYS = (
    "phase1_seconds",
    "phase2_seconds",
    "phase3_seconds",
    "trace_build_seconds",
    "intern_seconds",
    "mi_seconds",
    "cost_eval_seconds",
    "total_seconds",
)


def _profiled(runner, kwargs: dict):
    """Run one experiment under cProfile and dump stage + hotspot timings.

    Stage seconds come from the run's own :class:`SearchMetrics` stage
    timers (captured via a monkeypatched ``SearchMetrics.summary``, which
    every metrics-printing run calls); the cProfile block shows where the
    interpreter actually spent its time.
    """
    import cProfile
    import io
    import pstats

    from repro.core import metrics as metrics_module

    captured: list[dict] = []
    original_summary = metrics_module.SearchMetrics.summary

    def capturing_summary(self):
        captured.append(self.to_dict())
        return original_summary(self)

    profiler = cProfile.Profile()
    metrics_module.SearchMetrics.summary = capturing_summary
    try:
        profiler.enable()
        result = runner(**kwargs)
        profiler.disable()
    finally:
        metrics_module.SearchMetrics.summary = original_summary

    for run_index, data in enumerate(captured):
        stages = ", ".join(
            f"{key[:-8]} {data.get(key, 0.0):.3f}s" for key in _STAGE_KEYS
        )
        print(f"[profile] run {run_index}: {stages}")
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(15)
    print("[profile] top cProfile entries (cumulative):")
    for line in buffer.getvalue().splitlines():
        if line.strip():
            print(f"  {line}")
    return result


if __name__ == "__main__":
    sys.exit(main())
