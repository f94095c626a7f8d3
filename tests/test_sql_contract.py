"""Golden contract: what the SQL front end makes of the five bundled catalogs.

For every lint workload the golden pins each procedure's merged
:class:`~repro.sql.analyzer.StatementAnalysis`, the dataflow pass's
implicit-join edges, parameter closure and dead definitions, and a sha256
of a small collected trace (class, arguments and ordered accesses of every
transaction). The static analyses and the executor all read statements
through the binder, so any drift in how a statement is understood shows
up here.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_sql_contract.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.lint.workloads import WORKLOADS
from repro.sql.analyzer import analyze_procedure
from repro.sql.dataflow import analyze_dataflow

GOLDEN = Path(__file__).parent / "golden" / "sql_contract.json"
TRACE_TRANSACTIONS = 200
TRACE_SEED = 13


def _attrs(attrs) -> list[str]:
    return sorted(str(a) for a in attrs)


def _pairs(pairs) -> list[list[str]]:
    return sorted(sorted(str(a) for a in pair) for pair in pairs)


def _bindings(bindings) -> list[list[str]]:
    return sorted([str(attr), param] for attr, param in bindings)


def _trace_sha256(trace) -> str:
    digest = hashlib.sha256()
    for txn in trace:
        arguments = sorted((txn.arguments or {}).items())
        accesses = [(table, key, write) for table, key, write in txn.accesses]
        digest.update(
            f"{txn.class_name}|{arguments!r}|{accesses!r}\n".encode("utf-8")
        )
    return digest.hexdigest()


def workload_contract(name: str) -> dict:
    """The pinned front-end outputs of one bundled workload."""
    benchmark = WORKLOADS[name].factory()
    schema = benchmark.build_schema()
    procedures = {}
    for procedure in benchmark.build_catalog():
        merged = analyze_procedure(procedure.statements, schema)
        flow = analyze_dataflow(procedure, schema)
        procedures[procedure.name] = {
            "tables": sorted(merged.tables),
            "where_attrs": _attrs(merged.where_attrs),
            "select_attrs": _attrs(merged.select_attrs),
            "explicit_joins": _pairs(merged.explicit_joins),
            "param_bindings": _bindings(merged.param_bindings),
            "writes": sorted(merged.writes),
            "implicit_edges": _pairs(flow.implicit_edges),
            "param_closure": _bindings(flow.param_closure),
            "dead_definitions": sorted(str(d) for d in flow.dead_definitions),
        }
    bundle = benchmark.generate(TRACE_TRANSACTIONS, seed=TRACE_SEED)
    return {
        "procedures": procedures,
        "trace": {
            "transactions": len(bundle.trace),
            "accesses": sum(len(txn.accesses) for txn in bundle.trace),
            "sha256": _trace_sha256(bundle.trace),
        },
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_front_end_matches_contract(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert workload_contract(name) == expected, (
        f"analyses or trace of {name} drifted from {GOLDEN}; if the change "
        "is intentional, regenerate it (see module docstring)"
    )


if __name__ == "__main__":
    document = {name: workload_contract(name) for name in sorted(WORKLOADS)}
    GOLDEN.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
