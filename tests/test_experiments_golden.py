"""Golden pins of the experiment tables the CLI prints.

Each figure function of :mod:`repro.experiments.runner` runs at
``scale=0.1`` with the simulated-cluster columns on, and its
``(headers, rows)`` must equal the recorded table cell for cell. The
rows are formatted costs, so any drift in a partitioner, the evaluator,
the cluster replay or the way the runner wires them shows up here.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_experiments_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS

GOLDEN = Path(__file__).parent / "golden" / "experiments_tables.json"
SCALE = 0.1


def table(name: str) -> dict:
    headers, rows = EXPERIMENTS[name](scale=SCALE, show_cluster=True)
    return {"headers": headers, "rows": rows}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param("fig5", marks=pytest.mark.slow),
        "fig7",
        "sec76",
        "tpce",
    ],
)
def test_experiment_table_matches_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert table(name) == expected, (
        f"the {name} table drifted from {GOLDEN}; if the change is "
        "intentional, regenerate it (see module docstring)"
    )


if __name__ == "__main__":
    document = {name: table(name) for name in sorted(EXPERIMENTS)}
    GOLDEN.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
