"""Golden pin of the metric records' reporting schema.

For each record type in :mod:`repro.core.metrics` (and
:class:`~repro.evaluation.resources.ResourceUsage`) the golden holds the
key paths ``to_dict()`` emits: ``evaluator_cache.hits`` for a nested
record, ``per_class[*].class_name`` for a list of records and
``latency[*].count`` for a mapping of records. Mappings of plain values
(``broadcast_causes``, ``per_node_transactions``) are leaves: their keys
are data, not schema.

The attribute names that ``perfbench/`` reads are pinned here too, so
losing one fails the test suite and not only the benchmark.

Regenerate after an intentional schema change with::

    PYTHONPATH=src python tests/test_metrics_schema.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import pytest

from repro.core.metrics import (
    CacheStats,
    ClassMetrics,
    ClusterMetrics,
    LatencyHistogram,
    RoutingMetrics,
    SearchMetrics,
)
from repro.evaluation.resources import ResourceUsage

GOLDEN = Path(__file__).parent / "golden" / "metrics_schema.json"


def _search_metrics() -> SearchMetrics:
    metrics = SearchMetrics()
    metrics.add_class(ClassMetrics("A"))
    return metrics


def _routing_metrics() -> RoutingMetrics:
    metrics = RoutingMetrics()
    metrics.observe("broadcast", 1e-6)
    metrics.record_broadcast_cause("no_bindings")
    return metrics


def _cluster_metrics() -> ClusterMetrics:
    metrics = ClusterMetrics()
    metrics.record_participation([1])
    metrics.per_class_distributed["A"] = 1
    return metrics


#: one populated instance per record type, so nested collections are seen
RECORDS = {
    "CacheStats": CacheStats,
    "ClassMetrics": lambda: ClassMetrics("A"),
    "SearchMetrics": _search_metrics,
    "LatencyHistogram": LatencyHistogram,
    "RoutingMetrics": _routing_metrics,
    "ClusterMetrics": _cluster_metrics,
    "ResourceUsage": ResourceUsage,
}

#: attributes ``perfbench/bench.py`` and ``perfbench/workloads.py`` read
#: from the metric records
PERFBENCH_READS = {
    "SearchMetrics": (
        "intern_seconds",
        "phase1_seconds",
        "phase2_seconds",
        "mi_seconds",
        "phase3_seconds",
        "cost_eval_seconds",
        "trees_examined",
        "mi_tests",
        "mi_refuted",
        "path_evaluations",
        "combinations_evaluated",
        "cache_hit_rate",
    ),
    "RoutingMetrics": (
        "latency",
        "lookups_rebuilt",
        "staleness_detections",
        "write_through_applied",
    ),
    "LatencyHistogram": ("count",),
    "ClusterMetrics": (
        "transactions",
        "committed_local",
        "committed_distributed",
        "failed",
        "tuples_placed",
        "tuples_replicated",
        "prepare_messages",
    ),
}


def key_paths(record: Any, data: dict[str, Any], prefix: str = "") -> list[str]:
    """Every key path of ``data = record.to_dict()``, nested records too.

    A key that is no attribute of the record is a leaf.
    """
    paths = []
    for key, value in data.items():
        attribute = getattr(record, key, None)
        if dataclasses.is_dataclass(attribute):
            paths += key_paths(attribute, value, f"{prefix}{key}.")
            continue
        if isinstance(attribute, dict):
            members, entries = list(attribute.values()), list(value.values())
        elif isinstance(attribute, list):
            members, entries = attribute, value
        else:
            members = entries = []
        if members and dataclasses.is_dataclass(members[0]):
            paths += key_paths(members[0], entries[0], f"{prefix}{key}[*].")
        else:
            paths.append(f"{prefix}{key}")
    return paths


def schema() -> dict[str, list[str]]:
    document = {}
    for name, build in RECORDS.items():
        record = build()
        document[name] = sorted(key_paths(record, record.to_dict()))
    return document


def test_to_dict_schema_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert schema() == expected, (
        f"a metric record's to_dict() keys drifted from {GOLDEN}; if the "
        "change is intentional, regenerate it (see module docstring)"
    )


def test_golden_file_is_canonical():
    # The golden is written by this module; byte-identical means the same
    # schema in the same layout.
    assert GOLDEN.read_text(encoding="utf-8") == _render(schema())


@pytest.mark.parametrize(
    "name, attribute",
    [
        (name, attribute)
        for name, attributes in PERFBENCH_READS.items()
        for attribute in attributes
    ],
)
def test_perfbench_reads_exist_on_a_fresh_record(name, attribute):
    record_type = type(RECORDS[name]())
    getattr(record_type(), attribute)


def _render(document: dict[str, list[str]]) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(_render(schema()), encoding="utf-8")
