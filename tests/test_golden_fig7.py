"""Golden pins of the paper-facing Figure-7 outputs.

JECB runs on the five bundled benchmarks at the sizes and seed of
``repro.experiments.runner.figure7`` (train/test halves, k = 8). Each run
pins the test-half distributed fraction (Definition 6, checked against
the referee scan of :mod:`tests.referee`), the search
counters that trace every Definition-7 verdict, and a hash of the chosen
partitioning and its per-class solutions table. A refactor of the search,
the path walks or the cost evaluator that drifts any of them fails here,
even when the drift keeps every other differential test green.

The same runs, and a 16-warehouse TPC-C one, hold every greedy
elimination step's blame (the per-table offender counts that pick the
table to drop) to the referee's set-based count.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.core.phase2 as phase2
from repro.core import JECBConfig, JECBPartitioner
from repro.evaluation.evaluator import PartitioningEvaluator
from repro.trace.splitter import train_test_split
from repro.workloads.auctionmark import AuctionMarkBenchmark, AuctionMarkConfig
from repro.workloads.seats import SeatsBenchmark, SeatsConfig
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig
from repro.workloads.tpce import TpceBenchmark, TpceConfig

from tests import referee

#: name -> (benchmark factory, transactions) — figure7 at scale 1.0
_BUNDLES = {
    "tpcc": (lambda: TpccBenchmark(TpccConfig(warehouses=8)), 2500),
    "tatp": (lambda: TatpBenchmark(TatpConfig(subscribers=1000)), 2500),
    "tpce": (lambda: TpceBenchmark(TpceConfig()), 3000),
    "seats": (lambda: SeatsBenchmark(SeatsConfig()), 2000),
    "auctionmark": (lambda: AuctionMarkBenchmark(AuctionMarkConfig()), 2000),
}

#: the 16-warehouse TPC-C bundle the resource benchmarks run
_TPCC_SMALL = (lambda: TpccBenchmark(TpccConfig(warehouses=16)), 4000, 11)

#: name -> (test-half cost, (trees examined, MI tests, MI refuted, path
#: evaluations, combinations evaluated), fingerprint)
_GOLDEN = {
    "tpcc": (0.0704, (21, 21, 6, 57423, 6), "67669fd8d7f4"),
    "tatp": (0.0, (9, 14, 0, 1433, 3), "eb3228465e5a"),
    "tpce": (0.20333333333333334, (39, 105, 39, 137560, 22), "130f0b5e2cc7"),
    "seats": (0.012, (11, 16, 5, 7114, 2), "86c8949bd62b"),
    "auctionmark": (0.269, (9, 28, 9, 5842, 2), "04d2b6f0377a"),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", list(_GOLDEN))
def test_figure7_outputs_are_pinned(name):
    factory, count = _BUNDLES[name]
    bundle = factory().generate(count, seed=17)
    train, test = train_test_split(bundle.trace, 0.5)
    result = JECBPartitioner(
        bundle.database, bundle.catalog, JECBConfig(num_partitions=8)
    ).run(train)
    report = PartitioningEvaluator(bundle.database).evaluate(
        result.partitioning, test
    )
    # the kernel's report, statistics-fallback mappings included, is the
    # referee scan's
    assert report == referee.cost_report(
        result.partitioning, test, bundle.database
    )
    cost = report.cost
    metrics = result.metrics
    assert metrics is not None
    counters = (
        metrics.trees_examined,
        metrics.mi_tests,
        metrics.mi_refuted,
        metrics.path_evaluations,
        metrics.combinations_evaluated,
    )
    text = result.partitioning.describe() + result.solutions_table()
    fingerprint = hashlib.sha256(text.encode()).hexdigest()[:12]
    assert (cost, counters, fingerprint) == _GOLDEN[name]


@pytest.mark.slow
def test_every_elimination_step_blames_like_the_referee(monkeypatch):
    """Equal offender counts on every step drop the same table."""
    steps = []
    blame = phase2.blame

    def recording(tree, view, engine, stats=None):
        offenders = blame(tree, view, engine, stats)
        steps.append((tree, view, offenders))
        return offenders

    monkeypatch.setattr(phase2, "blame", recording)
    bundles = [(*_BUNDLES[name], 17) for name in _BUNDLES] + [_TPCC_SMALL]
    checked = 0
    for factory, count, seed in bundles:
        bundle = factory().generate(count, seed=seed)
        train, _test = train_test_split(bundle.trace, 0.5)
        steps.clear()
        JECBPartitioner(
            bundle.database, bundle.catalog, JECBConfig(num_partitions=8)
        ).run(train)
        for tree, view, offenders in steps:
            txns = referee.named_transactions(view, train)
            assert offenders == referee.blame(tree, txns, bundle.database), (
                view.class_name,
                str(tree),
            )
            checked += 1
    assert checked > 0
