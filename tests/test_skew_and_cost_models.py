"""Unit tests for the skew extension and alternative cost models."""

import numpy as np
import pytest

from repro.baselines.schism import TupleMapSolution
from repro.core.join_path import JoinPath
from repro.core.mapping import IdentityModMapping
from repro.core.skew import (
    Placement,
    overpartition_and_pack,
    pack_partitions,
    partition_heat,
)
from repro.core.solution import DatabasePartitioning, TableSolution
from repro.errors import PartitioningError
from repro.evaluation.cost_models import (
    FractionDistributed,
    SitesTouched,
    WeightedLatency,
    evaluate_model,
)
from repro.evaluation.evaluator import Footprints, PartitioningEvaluator
from repro.trace.events import Trace, TransactionTrace


def make_txn(accesses, txn_id=0):
    txn = TransactionTrace(txn_id, "c")
    for table, key, write in accesses:
        txn.record(table, key, write)
    return txn


@pytest.fixture
def trade_partitioning(custinfo_schema):
    partitioning = DatabasePartitioning(4)
    partitioning.set(
        TableSolution(
            "TRADE",
            JoinPath.parse(custinfo_schema, ["TRADE.T_ID"]),
            IdentityModMapping(4),
        )
    )
    partitioning.set(TableSolution("CUSTOMER_ACCOUNT"))
    return partitioning


class TestPackPartitions:
    def test_balances_skewed_heat(self):
        heat = {1: 100.0, 2: 10.0, 3: 10.0, 4: 10.0, 5: 10.0, 6: 60.0}
        placement = pack_partitions(heat, 2)
        assert placement.makespan <= 110.0
        assert set(placement.assignment) == set(heat)
        assert sum(placement.node_loads) == pytest.approx(200.0)

    def test_lpt_property(self):
        # LPT puts the two heaviest on different nodes
        heat = {1: 50.0, 2: 49.0, 3: 1.0}
        placement = pack_partitions(heat, 2)
        assert placement.assignment[1] != placement.assignment[2]

    def test_imbalance_metric(self):
        placement = Placement({1: 0, 2: 1}, [10.0, 10.0])
        assert placement.imbalance == 1.0
        assert Placement({}, []).imbalance == 1.0

    def test_invalid_nodes(self):
        with pytest.raises(PartitioningError):
            pack_partitions({1: 1.0}, 0)


@pytest.fixture
def tuple_map_partitioning():
    """Schism's shape: a TRADE tuple map with no join path."""
    partitioning = DatabasePartitioning(4)
    partitioning.set(
        TupleMapSolution(
            "TRADE",
            assignments={(1,): 2, (2,): 3, (3,): 3},
            classifier=None,
            num_partitions=4,
        )
    )
    partitioning.set(TableSolution("CUSTOMER_ACCOUNT"))
    return partitioning


class TestPartitionHeat:
    def test_counts_touching_transactions(self, figure1_db, trade_partitioning):
        trace = Trace([
            make_txn([("TRADE", (1,), False)], 0),    # partition 2
            make_txn([("TRADE", (1,), False)], 1),    # partition 2
            make_txn([("TRADE", (2,), False)], 2),    # partition 3
        ])
        heat = partition_heat(trade_partitioning, trace, figure1_db)
        assert heat[2] == 2.0
        assert heat[3] == 1.0
        assert heat[1] == 0.0

    def test_tuple_map_partitioning(self, figure1_db, tuple_map_partitioning):
        trace = Trace([
            make_txn([("TRADE", (1,), False)], 0),    # partition 2
            make_txn([("TRADE", (2,), False), ("TRADE", (3,), False)], 1),
        ])
        heat = partition_heat(tuple_map_partitioning, trace, figure1_db)
        assert heat == {1: 0.0, 2: 1.0, 3: 1.0, 4: 0.0}

    def test_overpartition_requires_more_partitions(
        self, figure1_db, trade_partitioning
    ):
        with pytest.raises(PartitioningError):
            overpartition_and_pack(
                trade_partitioning, Trace(), figure1_db, 8
            )

    def test_overpartition_and_pack(self, figure1_db, trade_partitioning):
        trace = Trace([
            make_txn([("TRADE", (i,), False)], i) for i in range(1, 9)
        ])
        placement = overpartition_and_pack(
            trade_partitioning, trace, figure1_db, 2
        )
        assert len(placement.node_loads) == 2


def make_footprints(distributed, sites):
    return Footprints(
        np.arange(len(sites)),
        np.asarray(distributed, dtype=bool),
        np.asarray(sites, dtype=np.int64),
        np.zeros(5, dtype=np.int64),
    )


class TestCostModels:
    def test_footprint(self, figure1_db, trade_partitioning):
        trace = Trace([
            make_txn([
                ("TRADE", (1,), False),
                ("TRADE", (2,), False),
                ("CUSTOMER_ACCOUNT", (1,), True),
            ], 0),
            make_txn([], 1),
            make_txn([("TRADE", (2,), False), ("TRADE", (6,), True)], 2),
        ])
        footprints = PartitioningEvaluator(figure1_db).footprints(
            trade_partitioning, trace
        )
        assert footprints.txn_ids.tolist() == [0, 1, 2]
        # writes replicated CA; an empty transaction is local
        assert footprints.distributed.tolist() == [True, False, False]
        # a replicated write coordinates every site
        assert footprints.sites.tolist() == [4, 1, 1]
        # TRADE 1, 2 and 6 sit on partitions 2, 3 and 3
        assert footprints.heat.tolist() == [0, 0, 1, 2, 0]

    def test_fraction_distributed(self):
        footprints = make_footprints([False, True], [1, 2])
        assert FractionDistributed().score(footprints) == 0.5
        assert FractionDistributed().score(make_footprints([], [])) == 0.0

    def test_sites_touched(self):
        # the unroutable third transaction coordinates all 4 sites
        footprints = make_footprints([False, True, True], [1, 3, 4])
        assert SitesTouched().score(footprints) == pytest.approx(
            (1 + 3 + 4) / 3
        )

    def test_weighted_latency(self):
        footprints = make_footprints([False, True], [1, 2])
        model = WeightedLatency(remote_factor=9.0)
        assert model.score(footprints) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            WeightedLatency(remote_factor=0.5)

    def test_evaluate_model_end_to_end(self, figure1_db, trade_partitioning):
        trace = Trace([
            make_txn([("TRADE", (1,), False)], 0),
            make_txn([("TRADE", (1,), False), ("TRADE", (2,), False)], 1),
        ])
        score = evaluate_model(
            FractionDistributed(), trade_partitioning, trace, figure1_db
        )
        assert score == 0.5

    def test_evaluate_model_on_a_tuple_map(
        self, figure1_db, tuple_map_partitioning
    ):
        trace = Trace([
            make_txn([("TRADE", (2,), False), ("TRADE", (3,), False)], 0),
            make_txn([("TRADE", (1,), False), ("TRADE", (2,), False)], 1),
        ])
        score = evaluate_model(
            FractionDistributed(), tuple_map_partitioning, trace, figure1_db
        )
        assert score == 0.5

    def test_models_rank_consistently(self, figure1_db, trade_partitioning):
        """A strictly better partitioning scores better under every model."""
        local = Trace([make_txn([("TRADE", (1,), False)], i) for i in range(4)])
        spread = Trace([
            make_txn([("TRADE", (i,), False), ("TRADE", (i + 1,), False)], i)
            for i in range(1, 5)
        ])
        for model in (FractionDistributed(), SitesTouched(), WeightedLatency()):
            good = evaluate_model(model, trade_partitioning, local, figure1_db)
            bad = evaluate_model(model, trade_partitioning, spread, figure1_db)
            assert good <= bad
