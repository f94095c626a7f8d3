"""The columnar trace engine is a pure representation change.

Everything here pins one contract: interning a trace into flat integer
columns and routing the hot paths (mapping independence, scalar path
evaluation, Definition 5/6 cost) through :class:`ColumnarEngine` must be
invisible — same transactions back out, same values, same verdicts, same
cost. The oracle is a test-only object reference: ``partition_class`` on
each per-class :class:`Trace` from ``split_by_class`` (object scans
through a :class:`JoinPathEvaluator`), then ``combine`` without an
engine, checked on the five bundled benchmarks and a generated workload.
"""

from __future__ import annotations

import pytest

from repro.core import JECBConfig, JECBPartitioner, JECBResult
from repro.core.path_eval import (
    ColumnarEngine,
    JoinPathEvaluator,
    value_luts_for,
)
from repro.core.phase2 import partition_class
from repro.core.phase3 import combine
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import Trace, TransactionTrace
from repro.trace.persistence import load_trace_file, save_trace_file
from repro.trace.splitter import split_by_class, train_test_split
from repro.trace.stats import TableUsage, classify_tables
from repro.workloads.auctionmark import AuctionMarkBenchmark, AuctionMarkConfig
from repro.workloads.seats import SeatsBenchmark, SeatsConfig
from repro.workloads.synthetic import SyntheticBenchmark, SyntheticConfig
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig
from repro.workloads.tpce import TpceBenchmark, TpceConfig

from tests.test_mi_oracle import naive_root_value

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev image
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tpcc_bundle():
    return TpccBenchmark(
        TpccConfig(warehouses=2, customers_per_district=8)
    ).generate(300, seed=11)


@pytest.fixture(scope="module")
def tatp_bundle():
    return TatpBenchmark(TatpConfig(subscribers=120)).generate(400, seed=77)


@pytest.fixture(scope="module")
def synthetic_bundle():
    return SyntheticBenchmark(
        SyntheticConfig(parents=120, children_per_parent=3, groups=30)
    ).generate(350, seed=5)


@pytest.fixture(scope="module")
def seats_bundle():
    return SeatsBenchmark(
        SeatsConfig(airports=4, customers_per_airport=10)
    ).generate(400, seed=37)


@pytest.fixture(scope="module")
def auctionmark_bundle():
    return AuctionMarkBenchmark(AuctionMarkConfig(users=50)).generate(
        400, seed=41
    )


@pytest.fixture(scope="module")
def tpce_bundle():
    return TpceBenchmark(
        TpceConfig(customers=30, brokers=8, companies=10)
    ).generate(500, seed=27)


def _run(bundle, num_partitions=4):
    partitioner = JECBPartitioner(
        bundle.database,
        bundle.catalog,
        JECBConfig(num_partitions=num_partitions),
    )
    return partitioner.run(bundle.trace)


def _reference_run(bundle, num_partitions=4) -> JECBResult:
    """The object reference for :meth:`JECBPartitioner.run`.

    Same three phases, but each class is searched on its own object
    :class:`Trace` (no engine, so every mapping-independence test is the
    object scan) and Phase 3 evaluates costs transaction by transaction.
    """
    config = JECBConfig(num_partitions=num_partitions)
    database = bundle.database
    schema = database.schema
    trace = bundle.trace
    usage = classify_tables(trace, schema, config.read_mostly_threshold)
    replicated = {t for t, u in usage.items() if u.replicated}
    partitioned = [t for t, u in usage.items() if u is TableUsage.PARTITIONED]
    streams = split_by_class(trace)
    class_results = [
        partition_class(
            schema,
            bundle.catalog.get(name),
            streams[name],
            replicated,
            database,
            num_partitions,
            config.phase2,
        )
        for name in sorted(streams)
        if name in bundle.catalog
    ]
    phase3 = combine(
        class_results,
        partitioned,
        sorted(replicated),
        schema,
        database,
        trace,
        num_partitions,
        config.phase3,
        columnar=None,
    )
    return JECBResult(
        partitioning=phase3.best,
        table_usage=usage,
        class_results=class_results,
        phase3=phase3,
    )


def _class_counters(result) -> list[tuple[str, int, int, int]]:
    return [
        (
            r.class_name,
            r.metrics.trees_examined,
            r.metrics.mi_tests,
            r.metrics.mi_refuted,
        )
        for r in result.class_results
    ]


def _txn_signature(txn: TransactionTrace):
    return (
        txn.txn_id,
        txn.class_name,
        [(a.table, a.key, a.write) for a in txn.accesses],
    )


def _decoded_signatures(view):
    """Per-transaction signatures decoded from the view's columns alone."""
    ctrace = view.parent
    for i in range(len(view)):
        start, end = int(view.offsets[i]), int(view.offsets[i + 1])
        accesses = [
            (
                ctrace.table_of(int(view.tuple_ids[j])),
                ctrace.key_of(int(view.tuple_ids[j])),
                bool(view.write_bits[j]),
            )
            for j in range(start, end)
        ]
        yield (int(view.txn_ids[i]), view.class_name, accesses)


def _decoded_tuples(view):
    """Per-transaction deduplicated ``(table, key)`` lists from the columns."""
    ctrace = view.parent
    for i in range(len(view)):
        start, end = int(view.uoffsets[i]), int(view.uoffsets[i + 1])
        yield [
            (
                ctrace.table_of(int(view.utuple_ids[j])),
                ctrace.key_of(int(view.utuple_ids[j])),
            )
            for j in range(start, end)
        ]


def _assert_view_matches(view, by_id) -> int:
    """The view yields the original transactions and its columns decode
    back to their accesses (and, deduplicated in first-access order, to
    their tuple sets); returns the number of transactions checked."""
    seen = 0
    for txn, decoded, tuples in zip(
        view, _decoded_signatures(view), _decoded_tuples(view), strict=True
    ):
        original = by_id[txn.txn_id]
        assert txn is original
        assert decoded == _txn_signature(original)
        assert len(tuples) == len(set(tuples))
        assert set(tuples) == original.tuples
        seen += 1
    return seen


# ----------------------------------------------------------------------
# round trip: Trace -> ColumnarTrace -> Trace
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    _keys = st.tuples(st.integers(0, 5), st.integers(0, 5))
    _accesses = st.lists(
        st.tuples(st.sampled_from(["T1", "T2", "T3"]), _keys, st.booleans()),
        min_size=1,
        max_size=6,
    )
    _txn_lists = st.lists(
        st.tuples(st.sampled_from(["Alpha", "Beta"]), _accesses),
        min_size=0,
        max_size=12,
    )

    @settings(max_examples=60, deadline=None)
    @given(_txn_lists)
    def test_roundtrip_random_traces(txn_specs):
        """Interning then decoding the columns restores every access."""
        trace = Trace()
        for i, (class_name, accesses) in enumerate(txn_specs):
            txn = TransactionTrace(i, class_name)
            for table, key, write in accesses:
                txn.record(table, key, write)
            trace.append(txn)
        ctrace = ColumnarTrace.from_trace(trace)
        by_id = {txn.txn_id: txn for txn in trace}
        seen = sum(
            _assert_view_matches(view, by_id) for view in ctrace.views.values()
        )
        assert seen == len(trace)


def test_roundtrip_real_workload(tatp_bundle):
    ctrace = ColumnarTrace.from_trace(tatp_bundle.trace)
    by_id = {txn.txn_id: txn for txn in tatp_bundle.trace}
    seen = sum(
        _assert_view_matches(view, by_id) for view in ctrace.views.values()
    )
    assert seen == len(tatp_bundle.trace)


def test_split_matches_object_splitter(tpcc_bundle):
    """View.split must pick the exact transactions train_test_split picks."""
    ctrace = ColumnarTrace.from_trace(tpcc_bundle.trace)
    for view in ctrace.views.values():
        object_trace = Trace(list(view))
        otrain, otest = train_test_split(object_trace, 0.5)
        ctrain, ctest = view.split(0.5)
        assert [t.txn_id for t in ctrain] == [t.txn_id for t in otrain]
        assert [t.txn_id for t in ctest] == [t.txn_id for t in otest]


# ----------------------------------------------------------------------
# differential: full runs, the object reference as oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bundle_name",
    [
        "tpcc_bundle",
        "tatp_bundle",
        "synthetic_bundle",
        "seats_bundle",
        "auctionmark_bundle",
        "tpce_bundle",
    ],
)
def test_engines_produce_identical_results(bundle_name, request):
    """Same partitioning, cost, MI verdict sequence and search counters."""
    bundle = request.getfixturevalue(bundle_name)
    ref = _reference_run(bundle)
    col = _run(bundle)
    assert col.partitioning.describe() == ref.partitioning.describe()
    assert col.cost == ref.cost
    assert col.solutions_table() == ref.solutions_table()
    assert col.table_usage == ref.table_usage
    # Equal counters pin the MI verdicts tree for tree: one early refute
    # or spare acceptance would shift every number after it.
    assert _class_counters(col) == _class_counters(ref)


def test_distributed_fraction_matches_object_path(tpcc_bundle):
    """Definition 5/6 kernel: same CostReport as the per-txn object scan."""
    from repro.evaluation.evaluator import PartitioningEvaluator

    col = _run(tpcc_bundle)
    ctrace = ColumnarTrace.from_trace(tpcc_bundle.trace)
    engine = ColumnarEngine(tpcc_bundle.database, ctrace)
    vector = PartitioningEvaluator(tpcc_bundle.database, columnar=engine)
    scalar = PartitioningEvaluator(tpcc_bundle.database)
    vreport = vector.evaluate(col.partitioning, ctrace)
    sreport = scalar.evaluate(col.partitioning, tpcc_bundle.trace)
    assert vreport.total_transactions == sreport.total_transactions
    assert vreport.distributed_transactions == sreport.distributed_transactions
    assert vreport.per_class_total == sreport.per_class_total
    assert vreport.per_class_distributed == sreport.per_class_distributed


def test_scalar_evaluation_matches_object_walk(synthetic_bundle):
    """Compiled batch walks return the naive oracle's value for every key."""
    result = _run(synthetic_bundle)
    database = synthetic_bundle.database
    ctrace = ColumnarTrace.from_trace(synthetic_bundle.trace)
    engine = ColumnarEngine(database, ctrace)
    checked = 0
    for table in result.partitioning.tables:
        solution = result.partitioning.solution_for(table)
        if solution.path is None:
            continue
        tid = ctrace.table_ids.get(solution.path.source_table)
        if tid is None:
            continue
        for key in ctrace.keys_of[tid]:
            assert engine.evaluate_one(solution.path, key) == (
                naive_root_value(database, solution.path, key)
            )
            checked += 1
    assert checked > 0


def test_class_value_luts_match_scalar_evaluation(tatp_bundle):
    result = _run(tatp_bundle)
    ctrace = ColumnarTrace.from_trace(tatp_bundle.trace)
    engine = ColumnarEngine(tatp_bundle.database, ctrace)
    paths = {
        table: result.partitioning.solution_for(table).path
        for table in result.partitioning.tables
        if result.partitioning.solution_for(table).path is not None
    }
    checked = 0
    for view in ctrace.views.values():
        luts = engine.class_value_luts(view, paths)
        for txn in view:
            for table, key in txn.tuples:
                path = paths.get(table)
                if path is None:
                    continue
                assert luts[table][key] == engine.evaluate_one(path, key)
                checked += 1
    assert checked > 0


def test_value_luts_for_requires_columnar_backing(tatp_bundle):
    evaluator = JoinPathEvaluator(tatp_bundle.database)
    assert value_luts_for(evaluator, tatp_bundle.trace, {}) is None


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_persistence_interns_table_names(tmp_path):
    trace = Trace()
    for i in range(20):
        txn = TransactionTrace(i, "".join(["Cla", "ss"]))
        # fresh, equal-but-distinct strings every iteration
        txn.record("".join(["WIDE", "_TABLE"]), (i,), bool(i % 2))
        trace.append(txn)
    path = tmp_path / "trace.jsonl"
    save_trace_file(trace, str(path))
    loaded = load_trace_file(str(path))
    names = [a.table for txn in loaded for a in txn.accesses]
    assert all(name is names[0] for name in names)
    classes = [txn.class_name for txn in loaded]
    assert all(name is classes[0] for name in classes)
    assert [
        _txn_signature(txn) for txn in loaded
    ] == [_txn_signature(txn) for txn in trace]


# ----------------------------------------------------------------------
# smoke: the CI fast job's columnar sanity check
# ----------------------------------------------------------------------
@pytest.mark.smoke
def test_columnar_smoke(tatp_bundle):
    ref = _reference_run(tatp_bundle)
    col = _run(tatp_bundle)
    assert col.partitioning.describe() == ref.partitioning.describe()
    assert col.cost == ref.cost
    assert col.solutions_table() == ref.solutions_table()
