"""Tests for the Section-5.3 statistics fallback."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.join_path import JoinPath
from repro.core.join_tree import JoinTree
from repro.core.statistics import (
    build_statistics_mapping,
    evaluate_fallback,
    transaction_root_values,
)
from repro.schema import Attr, DatabaseSchema, integer_table
from repro.storage import Database
from repro.trace.events import Trace, TransactionTrace

from tests.referee import intern


@pytest.fixture
def clustered_workload():
    """Items clustered in pairs: (1,2), (3,4), ... always co-accessed.

    A lookup mapping that co-locates pairs beats both hash and range only
    if it discovers the pairing — which min-cut does.
    """
    schema = DatabaseSchema("stats")
    schema.add_table(integer_table("ITEM", ["I_ID", "I_GRP"], ["I_ID"]))
    database = Database(schema)
    for i in range(1, 41):
        database.insert("ITEM", {"I_ID": i, "I_GRP": (i + 1) // 2})
    rng = random.Random(5)
    trace = Trace()
    for t in range(200):
        txn = TransactionTrace(t, "pairs")
        # pick a pair with a "stride" so neighbors by id are NOT paired
        base = rng.randrange(20)
        first = 1 + base
        second = 21 + base
        txn.record("ITEM", (first,), t % 10 == 0)
        txn.record("ITEM", (second,), False)
        trace.append(txn)
    tree = JoinTree(
        Attr("ITEM", "I_ID"),
        {"ITEM": JoinPath.parse(schema, ["ITEM.I_ID"])},
    )
    return database, trace, tree


class TestTransactionRootValues:
    def test_groups(self, clustered_workload):
        database, trace, tree = clustered_workload
        engine, view = intern(database, trace)
        groups = transaction_root_values(tree, view, engine)
        # the root is I_ID itself: each group is its transaction's keys,
        # in the order it accessed them
        assert groups == [
            [key[0] for _table, key, _write in txn.accesses] for txn in trace
        ]

    def test_unroutable_skipped(self, clustered_workload):
        database, _trace, tree = clustered_workload
        txn = TransactionTrace(0, "pairs")
        txn.record("ITEM", (1,), False)
        engine, view = intern(database, Trace([txn]))
        groups = transaction_root_values(tree, view, engine)
        assert groups == [[1]]


class TestStatisticsMapping:
    def test_pairs_colocated(self, clustered_workload):
        database, trace, tree = clustered_workload
        engine, view = intern(database, trace)
        groups = transaction_root_values(tree, view, engine)
        mapping = build_statistics_mapping(groups, 4)
        colocated = sum(
            1 for base in range(20) if mapping(1 + base) == mapping(21 + base)
        )
        assert colocated >= 18

    def test_fallback_beats_hash_and_range(self, clustered_workload):
        database, trace, tree = clustered_workload
        engine, train, validation = intern(database, trace, trace)
        result = evaluate_fallback(tree, train, validation, 4, engine)
        assert result.lookup_cost < result.hash_cost
        assert result.lookup_cost < result.range_cost
        assert result.meaningful

    def test_random_coaccess_not_meaningful(self):
        """Unclusterable workloads must be rejected (non-partitionable)."""
        schema = DatabaseSchema("rand")
        schema.add_table(integer_table("ITEM", ["I_ID"], ["I_ID"]))
        database = Database(schema)
        for i in range(1, 101):
            database.insert("ITEM", {"I_ID": i})
        rng = random.Random(11)
        tree = JoinTree(
            Attr("ITEM", "I_ID"),
            {"ITEM": JoinPath.parse(schema, ["ITEM.I_ID"])},
        )
        train, validation = Trace(), Trace()
        for t in range(300):
            txn = TransactionTrace(t, "rand")
            for item in rng.sample(range(1, 101), 3):
                txn.record("ITEM", (item,), False)
            (train if t % 2 == 0 else validation).append(txn)
        engine, train, validation = intern(database, train, validation)
        result = evaluate_fallback(tree, train, validation, 8, engine)
        # random co-access cannot beat hashing by a meaningful margin;
        # allow tiny noise but lookup must not dramatically win
        assert result.lookup_cost > 0.5


#: Runs the Phase-2 search on a small TPC-E bundle and prints, for every
#: (class, tree) the fallback evaluates, its training groups, its lookup
#: table and its three costs.
_FALLBACK_RUN = """
import json

import repro.core.phase2 as phase2
from repro.core import JECBConfig, JECBPartitioner
from repro.core.statistics import transaction_root_values
from repro.workloads.tpce import TpceBenchmark, TpceConfig

bundle = TpceBenchmark(TpceConfig()).generate(1000, seed=1)
evaluate = phase2.evaluate_fallback
seen = []


def recording(tree, train, validation, k, engine, **kwargs):
    outcome = evaluate(tree, train, validation, k, engine, **kwargs)
    groups = transaction_root_values(tree, train, engine)
    seen.append([
        train.class_name,
        str(tree),
        [[repr(value) for value in group] for group in groups],
        sorted([repr(value), pid] for value, pid in outcome.mapping.table.items()),
        [outcome.lookup_cost, outcome.hash_cost, outcome.range_cost],
    ])
    return outcome


phase2.evaluate_fallback = recording
JECBPartitioner(
    bundle.database, bundle.catalog, JECBConfig(num_partitions=8)
).run(bundle.trace)
print(json.dumps(seen))
"""


def _fallback_run(hash_seed: str) -> list:
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _FALLBACK_RUN],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout
    return json.loads(out)


@pytest.mark.smoke
def test_fallback_is_the_same_in_every_process():
    """String hashing differs between the two processes; the groups, and
    so the co-access graph and the min-cut's lookup table, must not."""
    first, second = _fallback_run("0"), _fallback_run("2")
    assert first
    for a, b in zip(first, second, strict=True):
        assert a == b, (a[0], a[1])
