"""Property-based tests (hypothesis) for core data structures and the
paper's stated properties."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compat import EQUAL, FIRST_COARSER, SECOND_COARSER, AttributeLattice
from repro.core.join_path import JoinPath
from repro.core.join_tree import JoinTree, tree_relation
from repro.core.mapping import (
    REPLICATED,
    HashMapping,
    IdentityModMapping,
    LookupMapping,
    RangeMapping,
    stable_hash,
)
from repro.graphs.mincut import Graph, partition_graph
from repro.schema import Attr
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import Trace, TransactionTrace
from repro.trace.splitter import round_robin, subsample, train_test_split
from repro.workloads.tpce import build_tpce_schema
from tests.conftest import build_custinfo_schema, load_figure1_data
from tests.referee import intern
from repro.storage import Database

_TPCE_SCHEMA = build_tpce_schema()
_TPCE_ATTRS = [
    Attr(t.name, c) for t in _TPCE_SCHEMA.tables for c in t.column_names
]
_LATTICE = AttributeLattice(_TPCE_SCHEMA)

attr_strategy = st.sampled_from(_TPCE_ATTRS)
scalar_strategy = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


class TestMappingProperties:
    @given(scalar_strategy)
    def test_stable_hash_non_negative(self, value):
        assert stable_hash(value) >= 0

    @given(scalar_strategy, st.integers(min_value=1, max_value=64))
    def test_hash_mapping_in_range(self, value, k):
        assert 1 <= HashMapping(k)(value) <= k

    @given(st.integers(), st.integers(min_value=1, max_value=64))
    def test_identity_mod_in_range(self, value, k):
        assert 1 <= IdentityModMapping(k)(value) <= k

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1),
        st.integers(min_value=2, max_value=16),
    )
    def test_range_mapping_monotone(self, values, k):
        mapping = RangeMapping.from_values(k, values)
        ordered = sorted(set(values))
        partitions = [mapping(v) for v in ordered]
        assert partitions == sorted(partitions)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=8),
            max_size=30,
        )
    )
    def test_lookup_mapping_honors_table(self, table):
        mapping = LookupMapping(8, table)
        for value, pid in table.items():
            assert mapping(value) == pid


class TestLatticeProperties:
    """Property 2 of the paper: compatibility relations are transitive
    and consistent; realized here over the whole TPC-E schema."""

    @given(attr_strategy, attr_strategy)
    @settings(max_examples=200)
    def test_antisymmetry(self, a, b):
        ab = _LATTICE.compare(a, b)
        ba = _LATTICE.compare(b, a)
        if ab is None:
            assert ba is None
        elif ab == EQUAL:
            assert ba == EQUAL
        elif ab == FIRST_COARSER:
            assert ba == SECOND_COARSER
        else:
            assert ba == FIRST_COARSER

    @given(attr_strategy, attr_strategy, attr_strategy)
    @settings(max_examples=200)
    def test_property2_transitivity(self, x, y, z):
        # X ≡ Y and Y ≡ Z -> X ≡ Z ; X > Y and Y > Z -> X > Z ; mixed too
        xy = _LATTICE.compare(x, y)
        yz = _LATTICE.compare(y, z)
        if xy == EQUAL and yz == EQUAL:
            assert _LATTICE.compare(x, z) == EQUAL
        if xy == FIRST_COARSER and yz == FIRST_COARSER:
            assert _LATTICE.compare(x, z) == FIRST_COARSER
        if xy == FIRST_COARSER and yz == EQUAL:
            assert _LATTICE.compare(x, z) == FIRST_COARSER
        if xy == EQUAL and yz == FIRST_COARSER:
            assert _LATTICE.compare(x, z) == FIRST_COARSER

    @given(attr_strategy)
    def test_reflexive(self, a):
        assert _LATTICE.compare(a, a) == EQUAL

    @given(st.lists(attr_strategy, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_coarsest_pairwise_incompatible_or_distinct(self, attrs):
        kept = _LATTICE.coarsest(attrs)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert _LATTICE.compare(a, b) is None


class TestSplitterProperties:
    traces = st.integers(min_value=0, max_value=200).map(
        lambda n: Trace([TransactionTrace(i, "c") for i in range(n)])
    )

    @given(traces, st.floats(min_value=0.05, max_value=0.95))
    def test_split_is_partition(self, trace, fraction):
        train, test = train_test_split(trace, fraction)
        assert len(train) + len(test) == len(trace)
        train_ids = {t.txn_id for t in train}
        test_ids = {t.txn_id for t in test}
        assert not (train_ids & test_ids)

    @given(traces, st.floats(min_value=0.05, max_value=1.0))
    def test_subsample_size(self, trace, fraction):
        sub = subsample(trace, fraction)
        assert abs(len(sub) - round(len(trace) * fraction)) <= 1

    @staticmethod
    def _accumulator(count, fraction):
        """The round-robin loop each selector used to carry a copy of."""
        picks, acc = [], 0.0
        for _ in range(count):
            acc += fraction
            if acc >= 1.0 - 1e-9:
                acc -= 1.0
                picks.append(True)
            else:
                picks.append(False)
        return picks

    @given(
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(deadline=None)
    def test_every_selector_picks_what_the_accumulator_picks(
        self, count, fraction
    ):
        expected = self._accumulator(count, fraction)
        assert round_robin(count, fraction) == expected
        picked = [i for i in range(count) if expected[i]]
        dropped = [i for i in range(count) if not expected[i]]
        trace = Trace()
        for i in range(count):
            txn = TransactionTrace(i, "c")
            txn.record("T", (i,), False)
            trace.append(txn)

        def ids(part):
            return [txn.txn_id for txn in part]

        train, test = train_test_split(trace, fraction)
        assert (ids(train), ids(test)) == (picked, dropped)
        assert ids(subsample(trace, fraction)) == picked
        assert ids(subsample(trace, 1.0)) == list(range(count))
        if count:
            (view,) = ColumnarTrace.from_trace(trace).views.values()
            ctrain, ctest = view.split(fraction)
            assert (ids(ctrain), ids(ctest)) == (picked, dropped)
            assert ctrain.txn_ids.tolist() == picked


class TestMincutProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_total_assignment_and_range(self, k, edges, seed):
        rng = random.Random(seed)
        graph = Graph()
        for _ in range(edges):
            graph.add_edge(rng.randint(0, 40), rng.randint(0, 40))
        assignment = partition_graph(graph, k, seed=seed % 1000)
        assert set(assignment) == set(graph.nodes)
        assert all(0 <= p < k for p in assignment.values())


class TestProperty1:
    """Property 1: coarser trees preserve mapping independence.

    Random single-customer workloads over the Figure-1 database: whenever
    the finer (CA_ID) tree is MI, the coarser (CA_C_ID) tree must be MI.
    """

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_coarser_preserves_mi(self, seed):
        schema = build_custinfo_schema()
        database = Database(schema)
        load_figure1_data(database)
        rng = random.Random(seed)
        trace = Trace()
        for i in range(5):
            txn = TransactionTrace(i, "c")
            for _ in range(rng.randint(1, 4)):
                txn.record("TRADE", (rng.randint(1, 8),), False)
            trace.append(txn)
        fine = JoinTree(
            Attr("CUSTOMER_ACCOUNT", "CA_ID"),
            {
                "TRADE": JoinPath.parse(
                    schema,
                    ["TRADE.T_ID", "TRADE.T_CA_ID", "CUSTOMER_ACCOUNT.CA_ID"],
                )
            },
        )
        coarse = JoinTree(
            Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
            {
                "TRADE": JoinPath.parse(
                    schema,
                    [
                        "TRADE.T_ID", "TRADE.T_CA_ID",
                        "CUSTOMER_ACCOUNT.CA_ID", "CUSTOMER_ACCOUNT.CA_C_ID",
                    ],
                )
            },
        )
        assert tree_relation(fine, coarse)
        engine, view = intern(database, trace)
        if fine.is_mapping_independent(view, engine):
            assert coarse.is_mapping_independent(view, engine)
