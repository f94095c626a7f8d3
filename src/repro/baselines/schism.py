"""Schism baseline: tuple-graph min-cut plus classifier explanation.

Pipeline (Curino et al., VLDB'10, as summarized in the paper's Section 2):

1. model the training transactions as a graph whose nodes are *tuples*
   and whose edges connect tuples co-accessed by a transaction;
2. k-way min-cut the graph to place every seen tuple;
3. *explanation phase*: per table, train a classifier on (key -> placed
   partition) so arbitrary tuples — including ones the training trace
   never touched — can be routed.

Read-only / read-mostly tables are replicated exactly as in JECB's Phase 1
so the comparison isolates the placement strategy. Resource consumption
(the Table 1/2 experiments) is dominated by the tuple graph, which grows
with training coverage — the scalability weakness the paper demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.baselines.classifier import DecisionTree
from repro.core.mapping import REPLICATED, stable_hash
from repro.core.path_eval import ColumnarEngine
from repro.core.solution import DatabasePartitioning, TableSolution
from repro.graphs.mincut import Graph, partition_graph
from repro.schema.attribute import Attr
from repro.storage.database import Database
from repro.trace.events import Trace
from repro.trace.stats import TableUsage, classify_tables


@dataclass
class SchismConfig:
    num_partitions: int = 8
    seed: int = 7
    #: Schism replicates strictly read-only tables; the read-mostly
    #: replication heuristic is a JECB Phase-1 feature, so the baseline
    #: defaults to 0 (any written table is partitioned tuple-by-tuple).
    read_mostly_threshold: float = 0.0
    classifier_max_depth: int = 14
    classifier_min_samples: int = 2
    balance: float = 1.20


@dataclass(frozen=True)
class TupleMapSolution:
    """Per-table placement: seen tuples by lookup, unseen by classifier.

    Has no join path, so the placement store (hence the router and the
    cluster) refuses it; the evaluator reads :meth:`partition_ids` per
    interned key, so Definition 5, the cost models and the skew report
    score it. The classifier runs on
    the tuple's full attribute vector (Schism classifies on attributes,
    not just keys), fetched from the database at routing time.
    """

    table: str
    assignments: dict[tuple, int]
    classifier: DecisionTree | None
    num_partitions: int
    database: Database | None = None
    feature_columns: tuple[str, ...] = ()

    replicated = False
    path = None
    attribute: Attr | None = None

    def _features(self, key: tuple) -> tuple[float, ...] | None:
        if self.database is not None and self.feature_columns:
            row = self.database.table(self.table).get(tuple(key))
            if row is not None:
                return _row_features(row, self.feature_columns)
        return _key_features(key)

    def partition_of(self, key: tuple) -> int | None:
        pid = self.assignments.get(tuple(key))
        if pid is not None:
            return pid
        if self.classifier is not None:
            features = self._features(key)
            if features is not None and len(features) == self.classifier.num_features:
                return self.classifier.predict(features)
        return 1 + stable_hash(tuple(key)) % self.num_partitions

    def partition_ids(self, engine: ColumnarEngine, local_ids: Any) -> Any:
        """:meth:`partition_of` once per interned key (``-1`` unroutable)."""
        ctrace = engine.ctrace
        keys = ctrace.keys_of[ctrace.table_ids[self.table]]
        pids = [self.partition_of(keys[i]) for i in local_ids.tolist()]
        return np.asarray(
            [-1 if pid is None else pid for pid in pids], dtype=np.int64
        )

    def __str__(self) -> str:
        rules = self.classifier.leaf_count() if self.classifier else 0
        return (
            f"{self.table}: tuple-map ({len(self.assignments)} placed, "
            f"{rules} classifier rules)"
        )


def _key_features(key: tuple) -> tuple[float, ...] | None:
    """Numeric feature vector for a primary key (None if not numeric)."""
    features = []
    for part in key:
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            if isinstance(part, str):
                features.append(float(stable_hash(part)))
                continue
            return None
        features.append(float(part))
    return tuple(features)


def _row_features(
    row: dict[str, Any], columns: tuple[str, ...]
) -> tuple[float, ...] | None:
    """Full-attribute feature vector for one row."""
    features = []
    for column in columns:
        value = row.get(column)
        if value is None:
            features.append(-1.0)
        elif isinstance(value, bool):
            features.append(float(int(value)))
        elif isinstance(value, (int, float)):
            features.append(float(value))
        elif isinstance(value, str):
            features.append(float(stable_hash(value)))
        else:
            return None
    return tuple(features)


@dataclass
class SchismResult:
    partitioning: DatabasePartitioning
    table_usage: dict[str, TableUsage]
    graph_nodes: int = 0
    graph_edges: int = 0


class SchismPartitioner:
    """The Schism baseline partitioner."""

    def __init__(self, database: Database, config: SchismConfig | None = None) -> None:
        self.database = database
        self.config = config or SchismConfig()

    def run(self, training_trace: Trace) -> SchismResult:
        config = self.config
        usage = classify_tables(
            training_trace, self.database.schema, config.read_mostly_threshold
        )
        replicated = {t for t, u in usage.items() if u.replicated}

        graph = self._build_tuple_graph(training_trace, replicated)
        edge_count = sum(len(n) for n in graph.adj.values()) // 2
        assignment = partition_graph(
            graph,
            config.num_partitions,
            balance=config.balance,
            seed=config.seed,
        )

        per_table: dict[str, dict[tuple, int]] = {}
        for (table, key), part in assignment.items():
            per_table.setdefault(table, {})[key] = part + 1

        partitioning = DatabasePartitioning(
            config.num_partitions, name="schism"
        )
        for table in self.database.schema.table_names:
            if table in replicated:
                partitioning.set(TableSolution(table))
                continue
            assignments = per_table.get(table, {})
            feature_columns = self.database.schema.table(table).column_names
            classifier = self._explain(table, assignments, feature_columns)
            partitioning.set(
                TupleMapSolution(
                    table,
                    assignments,
                    classifier,
                    config.num_partitions,
                    self.database,
                    feature_columns,
                )  # type: ignore[arg-type]
            )
        return SchismResult(
            partitioning=partitioning,
            table_usage=usage,
            graph_nodes=len(graph),
            graph_edges=edge_count,
        )

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------
    def _build_tuple_graph(self, trace: Trace, replicated: set[str]) -> Graph:
        """Tuple co-access graph over partitioned tables' tuples."""
        graph = Graph()
        clique_limit = 10
        for txn in trace:
            members = [
                (table, key)
                for table, key in sorted(txn.tuples, key=repr)
                if table not in replicated
            ]
            for member in members:
                graph.add_node(member)
            if len(members) <= clique_limit:
                for i, u in enumerate(members):
                    for v in members[i + 1 :]:
                        graph.add_edge(u, v, 1.0)
            else:
                hub = members[0]
                for v in members[1:]:
                    graph.add_edge(hub, v, 1.0)
        return graph

    def _explain(
        self,
        table: str,
        assignments: dict[tuple, int],
        feature_columns: tuple[str, ...],
    ) -> DecisionTree | None:
        """Train the per-table explanation classifier on placed tuples."""
        if not assignments:
            return None
        storage = self.database.table(table)
        features: list[tuple[float, ...]] = []
        labels: list[int] = []
        for key, part in assignments.items():
            row = storage.get(key)
            vector = (
                _row_features(row, feature_columns)
                if row is not None
                else None
            )
            if vector is None or len(vector) != len(feature_columns):
                continue
            features.append(vector)
            labels.append(part)
        if not features:
            return None
        tree = DecisionTree(
            max_depth=self.config.classifier_max_depth,
            min_samples=self.config.classifier_min_samples,
        )
        return tree.fit(features, labels)
