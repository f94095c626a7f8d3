"""Tests for partitioning serialization round-trips."""

import json

import pytest

from repro.core import JECBConfig, JECBPartitioner
from repro.core.mapping import (
    HashMapping,
    IdentityModMapping,
    LookupMapping,
    RangeMapping,
    ReplicateMapping,
)
from repro.core.placement import PlacementStore
from repro.core.serialize import (
    dump_partitioning,
    load_partitioning,
    mapping_from_dict,
    mapping_to_dict,
    partitioning_from_dict,
    partitioning_to_dict,
)
from repro.errors import PartitioningError
from repro.evaluation import PartitioningEvaluator


class TestMappingRoundTrip:
    @pytest.mark.parametrize(
        "mapping",
        [
            HashMapping(8),
            IdentityModMapping(4),
            RangeMapping(3, [10, 20]),
            ReplicateMapping(2),
            LookupMapping(4, {1: 2, "x": 3}, fallback=HashMapping(4)),
        ],
        ids=["hash", "identity", "range", "replicate", "lookup"],
    )
    def test_round_trip_behavior(self, mapping):
        data = json.loads(json.dumps(mapping_to_dict(mapping)))
        restored = mapping_from_dict(data)
        for value in [0, 1, 5, 17, 1000, "x", "unseen"]:
            assert restored(value) == mapping(value), value

    def test_tuple_keys_survive_json(self):
        mapping = LookupMapping(4, {(1, 2): 3})
        data = json.loads(json.dumps(mapping_to_dict(mapping)))
        restored = mapping_from_dict(data)
        assert restored((1, 2)) == 3

    def test_unknown_type_rejected(self):
        with pytest.raises(PartitioningError):
            mapping_from_dict({"type": "nope", "k": 2})


class TestPartitioningRoundTrip:
    def test_jecb_output_round_trips(self, custinfo_workload):
        database, catalog, trace = custinfo_workload
        result = JECBPartitioner(
            database, catalog, JECBConfig(num_partitions=4)
        ).run(trace)
        text = dump_partitioning(result.partitioning)
        restored = load_partitioning(database.schema, text)

        assert restored.num_partitions == 4
        assert set(restored.tables) == set(result.partitioning.tables)
        evaluator = PartitioningEvaluator(database)
        original_cost = evaluator.cost(result.partitioning, trace)
        restored_cost = evaluator.cost(restored, trace)
        assert original_cost == restored_cost

    def test_per_tuple_agreement(self, custinfo_workload):
        database, catalog, trace = custinfo_workload
        result = JECBPartitioner(
            database, catalog, JECBConfig(num_partitions=4)
        ).run(trace)
        restored = load_partitioning(
            database.schema, dump_partitioning(result.partitioning)
        )
        original = PlacementStore(database, result.partitioning)
        loaded = PlacementStore(database, restored)
        for key in list(database.table("TRADE").keys())[:20]:
            assert loaded.pid_of("TRADE", key) == original.pid_of("TRADE", key)

    def test_invalid_path_rejected_on_load(self, custinfo_schema):
        data = {
            "name": "bad",
            "num_partitions": 2,
            "tables": {
                "TRADE": {
                    "replicated": False,
                    "path": [["TRADE.T_QTY"], ["TRADE.T_ID"]],
                    "mapping": {"type": "hash", "k": 2},
                }
            },
        }
        with pytest.raises(Exception):
            partitioning_from_dict(custinfo_schema, data)

    def test_classifier_solutions_not_serializable(self, custinfo_workload):
        database, _catalog, trace = custinfo_workload
        from repro.baselines import SchismConfig, SchismPartitioner

        result = SchismPartitioner(
            database, SchismConfig(num_partitions=2)
        ).run(trace)
        with pytest.raises(PartitioningError):
            partitioning_to_dict(result.partitioning)
