"""Golden-file check: the static lint output is pinned per workload.

Regenerate a golden after an intentional rule/output change with::

    PYTHONPATH=src python -m repro.lint --workload NAME --format json \
        > tests/golden/lint_NAME.json
"""

import json
from pathlib import Path

import pytest

from repro.lint import RULES, lint_workload, render_sarif
from repro.lint.workloads import WORKLOADS

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_WORKLOADS = ("tpcc", "tatp", "seats", "auctionmark", "tpce")


@pytest.mark.parametrize("name", GOLDEN_WORKLOADS)
def test_static_lint_matches_golden(name):
    run = lint_workload(WORKLOADS[name])
    produced = json.loads(render_sarif(run.findings, RULES))
    golden_path = GOLDEN_DIR / f"lint_{name}.json"
    expected = json.loads(golden_path.read_text(encoding="utf-8"))
    assert produced == expected, (
        f"static lint output for {name} drifted from {golden_path}; "
        "if the change is intentional, regenerate the golden (see module "
        "docstring)"
    )


def test_goldens_have_no_stale_rules():
    """Every ruleId in a golden must still exist in the rule registry."""
    for name in GOLDEN_WORKLOADS:
        document = json.loads(
            (GOLDEN_DIR / f"lint_{name}.json").read_text(encoding="utf-8")
        )
        for run in document["runs"]:
            for result in run["results"]:
                assert result["ruleId"] in RULES
