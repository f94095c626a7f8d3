"""The columnar kernels are the one implementation of Definitions 5 and 7.

Everything here pins one contract: interning a trace into flat integer
columns and deciding mapping independence (Definition 7) and distributed
transactions (Definitions 5/6) on those columns gives exactly what the
definitions say. The oracles are the referee object scans of
:mod:`tests.referee`: every tree the search can test gets the referee's
verdict, and every partitioning Phase 3 costs gets the referee's
:class:`CostReport`, on the five bundled benchmarks and a generated
workload. The evaluator's per-transaction ``Footprints`` (the sites each
transaction coordinates, the transactions touching each partition) get
the referee's per-access scan for JECB, Horticulture and Schism layouts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.horticulture import HorticultureConfig, HorticulturePartitioner
from repro.baselines.published import build_spec_partitioning, intra_table_path
from repro.baselines.schism import SchismConfig, SchismPartitioner
from repro.core import JECBConfig, JECBPartitioner
from repro.core.join_tree import JoinTree
from repro.core.mapping import stable_hash
from repro.core.path_eval import ColumnarEngine
from repro.core.phase2 import Phase2Config, enumerate_trees
from repro.evaluation.evaluator import PartitioningEvaluator
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import Trace, TransactionTrace
from repro.trace.persistence import load_trace_file, save_trace_file
from repro.trace.splitter import train_test_split
from repro.workloads.auctionmark import AuctionMarkBenchmark, AuctionMarkConfig
from repro.workloads.seats import SeatsBenchmark, SeatsConfig
from repro.workloads.synthetic import SyntheticBenchmark, SyntheticConfig
from repro.workloads.tatp import HORTICULTURE_SPEC as TATP_HC
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import HORTICULTURE_SPEC as TPCC_HC
from repro.workloads.tpcc import TpccBenchmark, TpccConfig
from repro.workloads.tpce import HORTICULTURE_SPEC as TPCE_HC
from repro.workloads.tpce import TpceBenchmark, TpceConfig

from tests import referee
from tests.referee import naive_root_value

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


def _search_trees(class_result) -> list[JoinTree]:
    """Every tree Phase 2 can test for one class.

    Each root's enumerated trees (the split subgraphs' roots when the
    class graph has none), each followed by its sub-trees.
    """
    config = Phase2Config()
    graph = class_result.graph
    rooted = [(graph, root) for root in graph.find_roots()]
    if not rooted:
        rooted = [
            (sub, root) for sub in graph.split() for root in sub.find_roots()
        ]
    trees: list[JoinTree] = []
    for subgraph, root in rooted:
        for tree in enumerate_trees(subgraph, root, config):
            trees.append(tree)
            trees.extend(tree.subtrees())
    return trees


def _assert_mi_kernel_matches_referee(bundle) -> int:
    """Kernel and referee agree on every tree of every class; returns the
    number of trees checked."""
    result = _run(bundle)
    database = bundle.database
    engine = ColumnarEngine(database, ColumnarTrace.from_trace(bundle.trace))
    checked = 0
    for class_result in result.class_results:
        if class_result.read_only:
            continue
        view = engine.ctrace.class_view(class_result.class_name)
        for tree in _search_trees(class_result):
            assert tree.is_mapping_independent(view, engine) == (
                referee.mapping_independent(tree, view, database)
            ), (class_result.class_name, str(tree))
            checked += 1
    return checked


def _assert_cost_kernel_matches_referee(bundle) -> int:
    """Every combination Phase 3 costed carries the referee's report;
    returns the number of combinations checked."""
    result = _run(bundle)
    for combination in result.phase3.evaluated:
        assert combination.report == referee.cost_report(
            combination.partitioning, bundle.trace, bundle.database
        ), combination.partitioning.name
    return len(result.phase3.evaluated)


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
# differential: the kernels against the referee scans
# ----------------------------------------------------------------------
_ALL_BUNDLES = [
    "tpcc_bundle",
    "tatp_bundle",
    "synthetic_bundle",
    "seats_bundle",
    "auctionmark_bundle",
    "tpce_bundle",
]


@pytest.mark.parametrize("bundle_name", _ALL_BUNDLES)
def test_engines_produce_identical_results(bundle_name, request):
    """Definition 7: the kernel gives the referee's verdict on every tree
    the search enumerates and on each tree's sub-trees."""
    bundle = request.getfixturevalue(bundle_name)
    assert _assert_mi_kernel_matches_referee(bundle) > 0


@pytest.mark.parametrize("bundle_name", _ALL_BUNDLES)
def test_cost_kernel_matches_referee(bundle_name, request):
    """Definition 5/6: every combination Phase 3 evaluated gets the
    referee's CostReport."""
    bundle = request.getfixturevalue(bundle_name)
    assert _assert_cost_kernel_matches_referee(bundle) > 0


def _assert_partial_views_match_referee(bundle) -> int:
    """Every combination Phase 3 costed, scored on each class view and on
    both halves the statistics fallback splits it into, gets the referee's
    report; returns the number of reports checked."""
    result = _run(bundle)
    database = bundle.database
    engine = ColumnarEngine(database, ColumnarTrace.from_trace(bundle.trace))
    evaluator = PartitioningEvaluator(database, engine)
    views = []
    for view in engine.ctrace.views.values():
        views.extend((view, *view.split(0.5)))
    checked = 0
    for combination in result.phase3.evaluated:
        partitioning = combination.partitioning
        for view in views:
            assert evaluator.evaluate(partitioning, view) == (
                referee.cost_report(partitioning, view, database)
            ), (partitioning.name, view)
            checked += 1
    return checked


@pytest.mark.parametrize("bundle_name", ["tpcc_bundle", "tpce_bundle"])
def test_partial_views_match_referee(bundle_name, request):
    """Definition 5/6 on class views and split halves, which the kernel
    scores through its touched-tuple mask rather than whole tables."""
    bundle = request.getfixturevalue(bundle_name)
    assert _assert_partial_views_match_referee(bundle) > 0


_HORTICULTURE_SPECS = {
    "tpcc_bundle": TPCC_HC,
    "tatp_bundle": TATP_HC,
    "tpce_bundle": TPCE_HC,
}


def _assert_footprints_match_referee(bundle_name, bundle) -> int:
    """JECB's layout, Horticulture's (published where the paper used it,
    else searched) and Schism's tuple map, each trained on one half: the
    evaluator's per-transaction verdict and sites, and its per-partition
    heat, on the other half are the referee's. Returns the number of
    transactions checked."""
    database = bundle.database
    train, test = train_test_split(bundle.trace, 0.5)
    spec = _HORTICULTURE_SPECS.get(bundle_name)
    if spec is None:
        horticulture = HorticulturePartitioner(
            database,
            bundle.catalog,
            HorticultureConfig(num_partitions=4, iterations=10),
        ).run(train).partitioning
    else:
        horticulture = build_spec_partitioning(database.schema, 4, spec)
    layouts = [
        JECBPartitioner(
            database, bundle.catalog, JECBConfig(num_partitions=4)
        ).run(train).partitioning,
        horticulture,
        SchismPartitioner(database, SchismConfig(num_partitions=4))
        .run(train)
        .partitioning,
    ]
    by_id = {txn.txn_id: txn for txn in test}
    assert len(by_id) == len(test)
    checked = 0
    for partitioning in layouts:
        k = partitioning.num_partitions
        found = PartitioningEvaluator(database).footprints(partitioning, test)
        assert sorted(found.txn_ids.tolist()) == sorted(by_id)
        heat = np.zeros_like(found.heat)
        for txn_id, distributed, sites in zip(
            found.txn_ids.tolist(),
            found.distributed.tolist(),
            found.sites.tolist(),
        ):
            partitions, writes_replicated, unroutable = referee.footprint(
                by_id[txn_id], partitioning, database
            )
            bad = unroutable or writes_replicated
            assert distributed == (bad or len(partitions) > 1), txn_id
            assert sites == (k if bad else max(1, len(partitions))), txn_id
            heat[list(partitions)] += 1
            checked += 1
        assert found.heat.tolist() == heat.tolist(), partitioning.name
    return checked


@pytest.mark.parametrize(
    "bundle_name",
    ["tpcc_bundle", "seats_bundle", "auctionmark_bundle", "tpce_bundle"],
)
def test_footprints_match_referee(bundle_name, request):
    """The evaluator's footprints (Definition 5, sites, heat) against the
    referee's per-access scan; TATP runs in the smoke slice below."""
    bundle = request.getfixturevalue(bundle_name)
    assert _assert_footprints_match_referee(bundle_name, bundle) > 0


def test_distributed_fraction_matches_object_path(tpcc_bundle):
    """Definition 5/6 kernel on a test half the evaluator interns itself:
    same CostReport as the referee's per-transaction scan."""
    train, test = train_test_split(tpcc_bundle.trace, 0.5)
    result = JECBPartitioner(
        tpcc_bundle.database, tpcc_bundle.catalog, JECBConfig(num_partitions=4)
    ).run(train)
    report = PartitioningEvaluator(tpcc_bundle.database).evaluate(
        result.partitioning, test
    )
    assert report.distributed_transactions > 0
    assert report == referee.cost_report(
        result.partitioning, test, tpcc_bundle.database
    )


def test_baseline_reports_match_referee(tpcc_bundle):
    """Schism's tuple maps, Horticulture's columns and a hash baseline go
    through the one Definition-5 kernel and get the referee's report.

    Schism's solutions have no join path yet are not replicated: a kernel
    that read "no path" as "replicated" would score it too well.
    """
    database = tpcc_bundle.database
    schema = database.schema
    train, test = train_test_split(tpcc_bundle.trace, 0.5)
    schism = SchismPartitioner(database, SchismConfig(num_partitions=4)).run(
        train
    )
    horticulture = HorticulturePartitioner(
        database,
        tpcc_bundle.catalog,
        HorticultureConfig(num_partitions=4, iterations=10),
    ).run(train)
    hashed = build_spec_partitioning(
        schema,
        4,
        {name: schema.table(name).primary_key[0] for name in schema.table_names},
        name="hash-by-key",
    )
    evaluator = PartitioningEvaluator(database)
    for partitioning in (
        schism.partitioning,
        horticulture.partitioning,
        hashed,
    ):
        report = evaluator.evaluate(partitioning, test)
        assert report == referee.cost_report(partitioning, test, database), (
            partitioning.name
        )
        assert report.distributed_transactions > 0


def test_scalar_evaluation_matches_object_walk(synthetic_bundle):
    """Compiled batch walks return the naive oracle's value for every key
    each class view touches."""
    result = _run(synthetic_bundle)
    database = synthetic_bundle.database
    ctrace = ColumnarTrace.from_trace(synthetic_bundle.trace)
    engine = ColumnarEngine(database, ctrace)
    paths = {
        table: result.partitioning.solution_for(table).path
        for table in result.partitioning.tables
        if result.partitioning.solution_for(table).path is not None
    }
    checked = 0
    for view in ctrace.views.values():
        for table, lut in engine.class_value_luts(view, paths).items():
            for key, value in lut.items():
                assert value == naive_root_value(database, paths[table], key)
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
                assert luts[table][key] == naive_root_value(
                    tatp_bundle.database, path, key
                )
                checked += 1
    assert checked > 0


def test_split_views_keep_their_own_chunks(tpcc_bundle):
    """A split half is not its parent view's prefix.

    The MI kernel on a 128-transaction view walks its first 64
    transactions as one chunk; the 64-transaction train half it splits
    into has the same class name and bounds but other transactions, and
    its value lookups must cover exactly its own tuples.
    """
    new_orders = [txn for txn in tpcc_bundle.trace if txn.class_name == "NewOrder"]
    assert len(new_orders) >= 128
    result = _run(tpcc_bundle)
    tree = _search_trees(result.class_result("NewOrder"))[0]
    engine, view = referee.intern(tpcc_bundle.database, Trace(new_orders[:128]))
    engine.tree_is_mapping_independent(tree, view)
    train, _test = view.split(0.5)
    assert len(train) == 64
    luts = engine.class_value_luts(train, tree.paths)
    checked = 0
    for txn in train:
        for table, key in txn.tuples:
            path = tree.paths.get(table)
            if path is None:
                continue
            assert luts[table][key] == naive_root_value(
                tpcc_bundle.database, path, key
            )
            checked += 1
    assert checked > 0


class _CountingMapping:
    """A hash-like mapping that records every value it is called with."""

    def __init__(self) -> None:
        self.calls: list = []

    def __call__(self, value) -> int:
        self.calls.append(value)
        return 1 + stable_hash(value) % 4


def test_partition_pids_calls_the_mapping_once_per_code(tatp_bundle):
    """``mapping()`` runs once per distinct value code, in ascending code
    order, and never for code 0 or a code it has already answered; the
    code -> pid cache grows with the interned values and is shared by
    every path under the same mapping."""
    schema = tatp_bundle.database.schema
    # two paths to equal values: subscriber ids
    subscriber = intra_table_path(schema, "SUBSCRIBER", "S_ID")
    facility = intra_table_path(schema, "SPECIAL_FACILITY", "SF_S_ID")
    trace = Trace()
    for i, txn in enumerate(tatp_bundle.trace):
        copy = TransactionTrace(i, "All")
        for access in txn.accesses:
            copy.record(access.table, access.key, access.write)
        if i == 0:
            # a key of the wrong arity walks to no value: code 0
            copy.record("SUBSCRIBER", (1, 2, 3), False)
        trace.append(copy)
    engine, view = referee.intern(tatp_bundle.database, trace)
    tables = view.chunk_tables(0, len(view))
    table_ids = engine.ctrace.table_ids
    mapping = _CountingMapping()
    answered: set[int] = set()

    def check(path, local_ids) -> set[int]:
        pids = engine.partition_pids(path, mapping, local_ids)
        codes = engine.ensure_codes(path, local_ids)[local_ids].tolist()
        fresh = sorted(set(codes) - answered - {0})
        assert mapping.calls == [engine.values[code] for code in fresh]
        assert pids.tolist() == [
            -1 if code == 0 else 1 + stable_hash(engine.values[code]) % 4
            for code in codes
        ]
        mapping.calls.clear()
        answered.update(fresh)
        return set(codes)

    _gids, subscribers = tables[table_ids["SUBSCRIBER"]]
    half = subscribers[: subscribers.size // 2][::-1]
    assert 0 in check(subscriber, np.concatenate([half, half]))
    interned = len(engine.values)
    check(subscriber, subscribers)
    assert len(engine.values) > interned  # codes the cache was not sized for
    check(subscriber, subscribers)  # a repeat call maps nothing
    _gids, facilities = tables[table_ids["SPECIAL_FACILITY"]]
    before = set(answered)
    assert check(facility, facilities) & before


if HAVE_HYPOTHESIS:
    _streams = st.lists(
        st.lists(
            st.tuples(st.sampled_from(["T1", "T2", "T3", "T4"]), _keys),
            max_size=5,
        ),
        min_size=1,
        max_size=10,
    )

    @settings(max_examples=80, deadline=None)
    @given(
        _streams,
        st.lists(st.integers(0, 10), max_size=6),
        st.floats(0.1, 0.9),
    )
    def test_chunk_tables_matches_unique_reference(streams, cuts, fraction):
        """Per-table (global ids, local ids) of any chunk, empty chunks
        and chunks that miss a table included, equal a sort-based
        reference; so do those of a split half."""
        trace = Trace()
        # a class-A transaction touching every table, so a chunk of the
        # class-B view can miss tables the trace interned
        first = TransactionTrace(0, "A")
        for table in ("T1", "T2", "T3", "T4"):
            first.record(table, (9, 9), True)
        trace.append(first)
        for i, accesses in enumerate(streams, start=1):
            txn = TransactionTrace(i, "B")
            for table, key in accesses:
                txn.record(table, key, False)
            trace.append(txn)
        view = ColumnarTrace.from_trace(trace).class_view("B")
        views = [view, *view.split(fraction)]
        for sub in views:
            bounds = sorted({0, len(sub), *(c for c in cuts if c <= len(sub))})
            bounds.append(bounds[-1])  # one empty chunk at the end
            for start, stop in zip(bounds, bounds[1:]):
                got = sub.chunk_tables(start, stop)
                want = referee.chunk_tables(sub, start, stop)
                assert list(got) == list(want)
                for tid, (gids, local_ids) in want.items():
                    assert np.array_equal(got[tid][0], gids)
                    assert np.array_equal(got[tid][1], local_ids)


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
# smoke: the CI fast job's kernel-vs-referee check
# ----------------------------------------------------------------------
@pytest.mark.smoke
def test_columnar_smoke(tatp_bundle):
    """Both kernels against their referees on one small bundle."""
    assert _assert_mi_kernel_matches_referee(tatp_bundle) > 0
    assert _assert_cost_kernel_matches_referee(tatp_bundle) > 0


@pytest.mark.smoke
def test_partial_views_match_referee_smoke(tatp_bundle):
    """The Definition-5/6 kernel on class views and split halves against
    the referee, on one small bundle."""
    assert _assert_partial_views_match_referee(tatp_bundle) > 0


@pytest.mark.smoke
def test_footprints_match_referee_smoke(tatp_bundle):
    """The evaluator's footprints against the referee on TATP, for JECB,
    Horticulture's published design and Schism's tuple map."""
    assert _assert_footprints_match_referee("tatp_bundle", tatp_bundle) > 0
