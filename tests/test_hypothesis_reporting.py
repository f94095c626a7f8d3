"""A failing Hypothesis test prints its falsifying example.

The suite turns every warning into an error (``filterwarnings`` in
``pyproject.toml``). The Hypothesis pytest plugin's report hook touches
``mypy_extensions.TypedDict``, which warns that it is deprecated; raised
as an error there, it ends the run in an ``INTERNALERROR`` and the
example that falsified the property is never printed. The config ignores
exactly that one message. This test runs a failing ``@given`` test in a
fresh pytest under the repository's config and reads its report.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

ROOT = Path(__file__).resolve().parent.parent

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(textwrap.dedent(FAILING), encoding="utf-8")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-c",
            str(ROOT / "pyproject.toml"),
            "--rootdir",
            str(ROOT),
            "-p",
            "no:cacheprovider",
            str(test_file),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert result.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "x=5" in output, output
