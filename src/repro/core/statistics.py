"""Statistics-based fallback mapping (Section 5.3).

When no join tree is mapping independent, JECB builds a Schism-style
mapping *at the granularity of root-attribute values*: each transaction's
distinct root values (read from the engine's value codes, in first-access
order) form one group of a co-access graph, min-cut partitioning assigns
each value to a partition, and the resulting lookup mapping is accepted
only if it beats both hash and range mappings on a held-out trace. This is
where JECB's scalability advantage over Schism shows: the graph has one
node per distinct root value, not per tuple. Groups are built in the
interned stream's order, never a set's, so the graph and the min-cut's
seeded result are the same in every process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.join_tree import JoinTree
from repro.core.mapping import (
    HashMapping,
    LookupMapping,
    MappingFunction,
    RangeMapping,
)
from repro.core.metrics import CacheStats
from repro.core.path_eval import ColumnarEngine
from repro.core.solution import DatabasePartitioning
from repro.evaluation.evaluator import PartitioningEvaluator
from repro.graphs.mincut import build_coaccess_graph, partition_graph
from repro.trace.columnar import ColumnarClassTrace


@dataclass
class FallbackResult:
    """Outcome of the statistics fallback for one join tree."""

    mapping: LookupMapping
    lookup_cost: float
    hash_cost: float
    range_cost: float
    #: finite-sample noise guard: the lookup mapping must beat hash and
    #: range by at least this margin, otherwise a workload with *no*
    #: exploitable co-access structure (e.g. Broker-Volume's uniformly
    #: random broker sets) would occasionally be declared partitionable.
    margin: float = 0.03

    @property
    def meaningful(self) -> bool:
        """Paper's acceptance rule: beats hash *and* range (with margin)."""
        return (
            self.lookup_cost < self.hash_cost - self.margin
            and self.lookup_cost < self.range_cost - self.margin
        )


def transaction_root_values(
    tree: JoinTree,
    trace: ColumnarClassTrace,
    engine: ColumnarEngine,
    stats: CacheStats | None = None,
) -> list[list[Any]]:
    """Each transaction's distinct root values, in first-access order.

    Tuples with no root value are skipped, and so are transactions left
    with none. The order feeds the co-access graph whose node order the
    min-cut's seeded shuffles consume; it follows the interned stream, so
    every process builds the same groups.
    """
    codes = engine.tuple_codes(trace, tree.paths, stats).tolist()
    values = engine.values
    bounds = trace.uoffsets.tolist()
    groups: list[list[Any]] = []
    for start, stop in zip(bounds, bounds[1:]):
        distinct = dict.fromkeys(codes[start:stop])
        group = [values[code] for code in distinct if code > 0]
        if group:
            groups.append(group)
    return groups


def build_statistics_mapping(
    groups: list[list[Any]], num_partitions: int, seed: int = 7
) -> LookupMapping:
    """Min-cut the co-access graph of root-value *groups* into a lookup
    mapping."""
    graph = build_coaccess_graph(groups)
    assignment = partition_graph(graph, num_partitions, seed=seed)
    table = {value: part + 1 for value, part in assignment.items()}
    return LookupMapping(
        num_partitions, table, fallback=HashMapping(num_partitions)
    )


def evaluate_fallback(
    tree: JoinTree,
    train_trace: ColumnarClassTrace,
    validation_trace: ColumnarClassTrace,
    num_partitions: int,
    engine: ColumnarEngine,
    seed: int = 7,
    stats: CacheStats | None = None,
) -> FallbackResult:
    """Build the statistics mapping and score it against hash and range.

    Both halves are views of *engine*'s interned trace; *stats* counts the
    engine's column hits and misses. The training half's root-value
    groups feed both the lookup mapping and the range mapping's sample.
    """
    groups = transaction_root_values(tree, train_trace, engine, stats)
    lookup = build_statistics_mapping(groups, num_partitions, seed)
    observed = [value for group in groups for value in group]
    candidates: list[tuple[str, MappingFunction]] = [
        ("lookup", lookup),
        ("hash", HashMapping(num_partitions)),
        ("range", RangeMapping.from_values(num_partitions, observed)),
    ]
    evaluator = PartitioningEvaluator(engine.database, engine)
    costs: dict[str, float] = {}
    for name, mapping in candidates:
        partitioning = DatabasePartitioning.from_tree(
            num_partitions, tree, mapping, name=f"fallback-{name}"
        )
        costs[name] = evaluator.cost(partitioning, validation_trace)
    return FallbackResult(
        mapping=lookup,
        lookup_cost=costs["lookup"],
        hash_cost=costs["hash"],
        range_cost=costs["range"],
    )
