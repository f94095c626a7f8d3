"""Checks of the benchmark itself: determinism and output checks.

Run from the repository root (about five minutes)::

    python3 -m pytest perfbench -q

Each case runs the benchmark command in fresh processes, as a user would.
Two runs with one seed must report identical counts, and a run with a
second seed must pass every output check of the command.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tpce-offline", "tatp-serve", "tpcc-live")
#: (trace flag, metric) pairs that must repeat exactly for one seed
REPEATED = (
    (0, "local_pct"),
    (1, "engine.statements"),
    (1, "core.trees_examined"),
    (1, "routing.lookups_rebuilt"),
    (1, "cluster.committed_distributed"),
)


def run_benchmark(workload: str, seed: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"], completed.stdout
    assert result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_repeats_counts(workload: str) -> None:
    first = {t: run_benchmark(workload, 11, t) for t in (0, 1)}
    second = {t: run_benchmark(workload, 11, t) for t in (0, 1)}
    for trace, metric in REPEATED:
        assert first[trace][metric] == second[trace][metric], metric


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_checks(workload: str) -> None:
    metrics = run_benchmark(workload, 12, 0)
    assert metrics["committed_pct"] == 100.0
