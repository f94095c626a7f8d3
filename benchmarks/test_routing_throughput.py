"""Serial vs batch routing throughput, recorded into BENCH_routing.json.

Partitions a TATP bundle with JECB, then replays the testing call log
(repeated ``ROUNDS`` times, as a long-running front end would see it) two
ways: one ``route()`` call per transaction, and one ``route_batch()`` over
the same stream. Both route from each procedure's cached plan; batch
routing also memoizes decisions per argument signature, so repeated calls
cost one dict probe; it must clear the 2x throughput bar the routing
tier promises (ISSUE acceptance criterion). Both paths must produce
identical decisions — speed never changes routing.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.core import JECBConfig, JECBPartitioner
from repro.routing import Router
from repro.trace import train_test_split

from conftest import print_table

RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_routing.json"
ROUNDS = 20  # replay the call log this many times per mode


@pytest.mark.smoke
def test_batch_routing_throughput(tatp_bundle):
    train, test = train_test_split(tatp_bundle.trace, 0.5)
    result = JECBPartitioner(
        tatp_bundle.database,
        tatp_bundle.catalog,
        JECBConfig(num_partitions=8),
    ).run(train)
    calls = test.calls()
    assert calls, "TATP testing trace must carry call arguments"

    router = Router(
        tatp_bundle.database, tatp_bundle.catalog, result.partitioning
    )
    stream = calls * ROUNDS
    try:
        # Warm the lookup cache so both modes measure steady-state routing.
        serial_decisions = [router.route(n, a) for n, a in calls]
        batch_decisions = router.route_batch(calls)
        assert batch_decisions == serial_decisions

        # The batch window is short, and one full collection of the
        # session's fixture bundles can take about as long; collect first
        # so neither window absorbs a pause that earlier allocations made
        # due.
        gc.collect()
        started = time.perf_counter()
        for name, arguments in stream:
            router.route(name, arguments)
        serial_seconds = time.perf_counter() - started

        gc.collect()
        started = time.perf_counter()
        router.route_batch(stream)
        batch_seconds = time.perf_counter() - started

        metrics = router.metrics
    finally:
        router.close()

    total = len(stream)
    serial_rate = total / serial_seconds
    batch_rate = total / batch_seconds
    speedup = serial_seconds / batch_seconds

    record = {
        "workload": "tatp (1500 subscribers, 3000 transactions)",
        "calls_per_round": len(calls),
        "rounds": ROUNDS,
        "serial_calls_per_second": round(serial_rate),
        "batch_calls_per_second": round(batch_rate),
        "batch_speedup": round(speedup, 3),
        "batch_memo_hit_rate": round(
            metrics.batch_memo_hits / metrics.batch_calls, 4
        )
        if metrics.batch_calls
        else None,
        "identical_decisions": True,
        "routing_metrics": metrics.to_dict(),
    }
    RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")

    print_table(
        "Routing throughput: serial vs batch (recorded in BENCH_routing.json)",
        ["mode", "calls/s", "seconds"],
        [
            ["serial route()", f"{serial_rate:,.0f}", f"{serial_seconds:.3f}"],
            ["route_batch()", f"{batch_rate:,.0f}", f"{batch_seconds:.3f}"],
            ["speedup", f"{speedup:.2f}x", ""],
        ],
    )

    assert RESULT_FILE.exists()
    # Acceptance criterion: batch routing at least doubles throughput.
    assert speedup >= 2.0, f"batch speedup {speedup:.2f}x < 2x"
