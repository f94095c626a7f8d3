"""Phase 2: partitioning individual transaction classes (Section 5).

For each homogeneous workload the pipeline is:

1. build the join graph from the class's SQL code (Step 1),
2. enumerate root attributes and join trees (Step 2) — or split the
   graph when no root exists (Case 2),
3. keep the mapping-independent trees, prune coarser-compatible ones,
   mine sub-trees for partial solutions, and fall back to the
   statistics-based mapping when nothing is mapping independent (Step 3).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, fields

from repro.schema.attribute import Attr
from repro.schema.database import DatabaseSchema
from repro.sql.analyzer import StatementAnalysis, analyze_procedure
from repro.sql.dataflow import analyze_dataflow
from repro.procedures.procedure import StoredProcedure
from repro.storage.database import Database
from repro.trace.columnar import ColumnarClassTrace
from repro.trace.events import Trace
from repro.trace.splitter import train_test_split
from repro.core.join_graph import JoinGraph
from repro.core.join_tree import JoinTree, prune_compatible_trees
from repro.core.metrics import ClassMetrics
from repro.core.path_eval import (
    ColumnarEngine,
    ColumnarPathEvaluator,
    JoinPathEvaluator,
    value_luts_for,
)
from repro.core.solution import PARTIAL, TOTAL, ClassSolution
from repro.core.statistics import evaluate_fallback

#: sentinel distinguishing "key not in the batch LUT" from a ``None`` value
_MISS = object()


@dataclass
class Phase2Config:
    """Knobs for the per-class search (defaults match the paper)."""

    max_paths_per_table: int = 32
    max_trees_per_root: int = 64
    include_implicit_joins: bool = True
    #: Use def-use dataflow (:mod:`repro.sql.dataflow`) to witness implicit
    #: joins instead of the coarse SELECT×WHERE accessed-attribute pool.
    #: Witnessed edges are always a subset of the pool, so this only ever
    #: removes false-positive candidate joins.
    dataflow_joins: bool = True
    mine_partial_solutions: bool = True
    statistics_fallback: bool = True
    fallback_seed: int = 7

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict | None) -> "Phase2Config":
        return _config_from_dict(cls, data)


def _config_from_dict(cls, data):
    """Build a config dataclass from a (partial) plain dict, strictly."""
    if data is None:
        return cls()
    if isinstance(data, cls):
        return data
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {sorted(unknown)} "
            f"(known: {sorted(known)})"
        )
    return cls(**data)


@dataclass
class ClassResult:
    """Everything Phase 2 learned about one transaction class."""

    class_name: str
    analysis: StatementAnalysis
    graph: JoinGraph
    total_solutions: list[ClassSolution] = field(default_factory=list)
    partial_solutions: list[ClassSolution] = field(default_factory=list)
    read_only: bool = False
    trees_examined: int = 0
    metrics: ClassMetrics | None = None

    @property
    def non_partitionable(self) -> bool:
        return (
            not self.read_only
            and not self.total_solutions
            and not self.partial_solutions
        )

    @property
    def total_roots(self) -> list[Attr]:
        return [s.root for s in self.total_solutions]

    @property
    def partial_roots(self) -> list[Attr]:
        return [s.root for s in self.partial_solutions]

    def summary(self) -> str:
        """Table-3-style row: total / partial solution roots (deduped)."""
        if self.read_only:
            return f"{self.class_name}: Read-only"

        def fmt(roots: list[Attr]) -> str:
            names = list(dict.fromkeys(str(r) for r in roots))
            return " or ".join(names) or "No"

        return (
            f"{self.class_name}: total={fmt(self.total_roots)}, "
            f"partial={fmt(self.partial_roots)}"
        )


def class_join_graph(
    schema: DatabaseSchema,
    procedure: StoredProcedure,
    replicated: set[str],
    config: Phase2Config,
) -> tuple[StatementAnalysis, JoinGraph]:
    """Step 1: the class's analysis and join graph, deterministically.

    With ``config.dataflow_joins`` the implicit-join pool is the
    witnessed def-use edge set of :func:`repro.sql.dataflow.analyze_dataflow`
    rather than the accessed-attribute cross product.
    """
    if config.dataflow_joins:
        flow = analyze_dataflow(procedure, schema)
        # ``flow.merged`` is bit-identical to ``analyze_procedure``'s merge
        # of the same statements — everything downstream is unchanged.
        return flow.merged, JoinGraph.from_analysis(
            schema,
            flow.merged,
            replicated,
            include_implicit=config.include_implicit_joins,
            implicit_edges=flow.implicit_edges,
        )
    analysis = analyze_procedure(procedure.statements, schema)
    return analysis, JoinGraph.from_analysis(
        schema,
        analysis,
        replicated,
        include_implicit=config.include_implicit_joins,
    )


def enumerate_trees(
    graph: JoinGraph, root: Attr, config: Phase2Config
) -> list[JoinTree]:
    """All join trees for *root*: one path choice per partitioned table."""
    per_table = graph.paths_to(root, max_paths=config.max_paths_per_table)
    tables = sorted(per_table)
    if any(not per_table[t] for t in tables):
        return []
    choices = [
        sorted(per_table[t], key=lambda p: (len(p), str(p))) for t in tables
    ]
    trees: list[JoinTree] = []
    for combo in itertools.product(*choices):
        trees.append(JoinTree(root, dict(zip(tables, combo))))
        if len(trees) >= config.max_trees_per_root:
            break
    return trees


def eliminate_until_mi(
    tree: JoinTree,
    trace: Trace,
    evaluator: JoinPathEvaluator,
) -> JoinTree | None:
    """Greedy table elimination (partial solutions, Section 5).

    A partial solution is "obtained by eliminating one or more tables from
    a homogeneous workload": when a tree is not mapping independent, some
    tables' accesses (e.g. TPC-C Payment's 15% remote customers) are the
    culprits. Repeatedly drop the table whose removal fixes the most
    violating transactions until the restricted tree is mapping
    independent; returns None when nothing non-trivial survives.
    """
    tables = set(tree.paths)
    while len(tables) >= 1:
        candidate = tree.restrict(tables)
        if not candidate.paths:
            return None
        if candidate.is_mapping_independent(trace, evaluator):
            return candidate if len(candidate.paths) < len(tree.paths) else None
        if len(tables) == 1:
            return None
        # Blame: in each violating transaction, the offenders are the
        # tables holding values different from the transaction's modal
        # root value (remote accesses deviate; the home tables agree).
        # The loop keeps the object path's iteration order (txn.tuples is
        # a set, and downstream set iteration is order-sensitive); only
        # the per-access value lookup is batched when columnar-backed.
        luts = value_luts_for(evaluator, trace, candidate.paths)
        offenders: dict[str, int] = {t: 0 for t in tables}
        for txn in trace:
            per_table: dict[str, set] = {}
            broken: set[str] = set()
            for table, key in txn.tuples:
                path = candidate.paths.get(table)
                if path is None:
                    continue
                if luts is None:
                    value = evaluator.evaluate(path, key)
                else:
                    value = luts[table].get(key, _MISS)
                    if value is _MISS:
                        value = evaluator.evaluate(path, key)
                if value is None:
                    broken.add(table)
                else:
                    per_table.setdefault(table, set()).add(value)
            all_values = set().union(*per_table.values()) if per_table else set()
            if not broken and len(all_values) <= 1:
                continue
            for table in broken:
                offenders[table] += 1
            if len(all_values) > 1:
                counts: dict = {}
                for values in per_table.values():
                    for value in values:
                        counts[value] = counts.get(value, 0) + 1
                modal = max(sorted(counts, key=repr), key=lambda v: counts[v])
                for table, values in per_table.items():
                    if values != {modal}:
                        offenders[table] += 1
        worst = max(sorted(offenders), key=lambda t: offenders[t])
        if offenders[worst] == 0:
            # Violations without a culprit table (should not happen).
            return None
        tables.discard(worst)
    return None


def _solve_remainder(
    graph: JoinGraph,
    tables: frozenset[str] | set[str],
    class_trace: Trace,
    evaluator: JoinPathEvaluator,
    config: Phase2Config,
    depth: int = 0,
) -> list[JoinTree]:
    """Mapping-independent trees over the tables elimination dropped."""
    if not tables or depth > 2:
        return []
    sub = graph.restrict(tables)
    found: list[JoinTree] = []
    for root in sub.find_roots():
        trees = enumerate_trees(sub, root, config)
        for tree in trees:
            if tree.is_mapping_independent(class_trace, evaluator):
                found.append(tree)
                break  # one MI tree per root is enough for a partial
        else:
            if trees:
                reduced = eliminate_until_mi(trees[0], class_trace, evaluator)
                if reduced is not None:
                    found.append(reduced)
                    found.extend(
                        _solve_remainder(
                            sub,
                            sub.partitioned_tables - reduced.tables,
                            class_trace,
                            evaluator,
                            config,
                            depth + 1,
                        )
                    )
    return found


def _mine_partials(
    totals: list[JoinTree],
    trace: Trace,
    evaluator: JoinPathEvaluator,
) -> list[JoinTree]:
    """Recursively harvest mapping-independent sub-trees (Section 5.3)."""
    found: list[JoinTree] = []
    seen: set[JoinTree] = set(totals)
    frontier = list(totals)
    while frontier:
        tree = frontier.pop()
        for subtree in tree.subtrees():
            if subtree in seen or not subtree.paths:
                continue
            seen.add(subtree)
            if subtree.is_mapping_independent(trace, evaluator):
                found.append(subtree)
                frontier.append(subtree)
    return found


def partition_class(
    schema: DatabaseSchema,
    procedure: StoredProcedure,
    class_trace: Trace,
    replicated: set[str],
    database: Database,
    num_partitions: int,
    config: Phase2Config | None = None,
    engine: ColumnarEngine | None = None,
) -> ClassResult:
    """Find total and partial solutions for one transaction class.

    When *engine* is given and *class_trace* is a columnar view of the
    engine's trace, path evaluation runs on the interned columns (the
    partitioner's path). Otherwise *class_trace* is scanned object by
    object through a :class:`JoinPathEvaluator` — the reference the
    columnar differentials compare against.
    """
    started = time.perf_counter()
    config = config or Phase2Config()
    metrics = ClassMetrics(procedure.name)
    analysis, graph = class_join_graph(schema, procedure, replicated, config)
    result = ClassResult(procedure.name, analysis, graph, metrics=metrics)
    if not graph.partitioned_tables:
        result.read_only = True
        metrics.wall_seconds = time.perf_counter() - started
        return result

    evaluator = _class_evaluator(class_trace, database, engine)
    try:
        return _search_class(
            schema, procedure, class_trace, database,
            num_partitions, config, result, evaluator,
        )
    finally:
        metrics.wall_seconds = time.perf_counter() - started
        metrics.trees_examined = result.trees_examined
        metrics.mi_tests = evaluator.mi_tests
        metrics.mi_refuted = evaluator.mi_refuted
        metrics.path_evaluations = evaluator.evaluations
        metrics.mi_seconds = evaluator.mi_seconds
        metrics.cache = evaluator.cache_stats


def _class_evaluator(
    class_trace: Trace,
    database: Database,
    engine: ColumnarEngine | None,
):
    """Columnar adapter when the trace is a view of the engine's columns."""
    if (
        engine is not None
        and isinstance(class_trace, ColumnarClassTrace)
        and class_trace.parent is engine.ctrace
    ):
        return ColumnarPathEvaluator(engine)
    return JoinPathEvaluator(database)


def _pruned(metrics: ClassMetrics, trees: list[JoinTree]) -> list[JoinTree]:
    """prune_compatible_trees with the drop count folded into metrics."""
    kept = prune_compatible_trees(trees)
    metrics.trees_pruned += len(trees) - len(kept)
    return kept


def _search_class(
    schema: DatabaseSchema,
    procedure: StoredProcedure,
    class_trace: Trace,
    database: Database,
    num_partitions: int,
    config: Phase2Config,
    result: ClassResult,
    evaluator: JoinPathEvaluator,
) -> ClassResult:
    graph = result.graph
    metrics = result.metrics
    assert metrics is not None
    roots = graph.find_roots()

    if roots:
        mi_trees: list[JoinTree] = []
        examined: list[JoinTree] = []
        first_per_root: list[JoinTree] = []
        for root in roots:
            trees = enumerate_trees(graph, root, config)
            if trees:
                first_per_root.append(trees[0])
            for tree in trees:
                examined.append(tree)
                if tree.is_mapping_independent(class_trace, evaluator):
                    mi_trees.append(tree)
        result.trees_examined = len(examined)
        mi_trees = list(dict.fromkeys(mi_trees))  # drop exact duplicates
        mi_trees = _pruned(metrics, mi_trees)
        result.total_solutions = [
            ClassSolution(procedure.name, tree, TOTAL, None, True)
            for tree in mi_trees
        ]
        if result.total_solutions and config.mine_partial_solutions:
            partial_trees = _mine_partials(mi_trees, class_trace, evaluator)
            partial_trees = _pruned(metrics, partial_trees)
            result.partial_solutions = [
                ClassSolution(procedure.name, tree, PARTIAL, None, True)
                for tree in partial_trees
            ]
        if not result.total_solutions:
            if config.statistics_fallback:
                result.total_solutions = _statistics_solutions(
                    procedure.name,
                    first_per_root,
                    class_trace,
                    database,
                    num_partitions,
                    config,
                    evaluator,
                )
            if config.mine_partial_solutions:
                # Partial solutions by table elimination: drop the tables
                # whose (e.g. remote) accesses break mapping independence,
                # then give the eliminated remainder its own chance — the
                # offending edge was effectively a false join, so the two
                # sides may each be mapping independent on their own.
                partial_trees = []
                for tree in first_per_root:
                    reduced = eliminate_until_mi(tree, class_trace, evaluator)
                    if reduced is None:
                        continue
                    partial_trees.append(reduced)
                    removed = graph.partitioned_tables - reduced.tables
                    partial_trees.extend(
                        _solve_remainder(
                            graph, removed, class_trace, evaluator, config
                        )
                    )
                partial_trees = list(dict.fromkeys(partial_trees))
                partial_trees = _pruned(metrics, partial_trees)
                result.partial_solutions = [
                    ClassSolution(procedure.name, tree, PARTIAL, None, True)
                    for tree in partial_trees
                ]
        return result

    # Case 2: no root attribute — split the graph and harvest partials.
    partial_trees: list[JoinTree] = []
    for subgraph in graph.split():
        if subgraph.tables == graph.tables:
            continue  # splitting made no progress
        for root in subgraph.find_roots():
            for tree in enumerate_trees(subgraph, root, config):
                result.trees_examined += 1
                if tree.is_mapping_independent(class_trace, evaluator):
                    partial_trees.append(tree)
    partial_trees = _pruned(metrics, partial_trees)
    result.partial_solutions = [
        ClassSolution(procedure.name, tree, PARTIAL, None, True)
        for tree in partial_trees
    ]
    return result


def _statistics_solutions(
    class_name: str,
    trees: list[JoinTree],
    class_trace: Trace,
    database: Database,
    num_partitions: int,
    config: Phase2Config,
    path_evaluator: JoinPathEvaluator | None = None,
) -> list[ClassSolution]:
    """Section 5.3 fallback: accept a lookup mapping only if meaningful."""
    if len(class_trace) < 4:
        return []
    if isinstance(class_trace, ColumnarClassTrace):
        # Columnar views split into sub-views (same accumulator walk as
        # train_test_split, so the object reference picks the same
        # transactions).
        train, validation = class_trace.split(0.5)
    else:
        train, validation = train_test_split(class_trace, 0.5)
    best: ClassSolution | None = None
    best_cost = float("inf")
    for tree in trees:
        outcome = evaluate_fallback(
            tree,
            train,
            validation,
            num_partitions,
            database,
            seed=config.fallback_seed,
            path_evaluator=path_evaluator,
        )
        if outcome.meaningful and outcome.lookup_cost < best_cost:
            best_cost = outcome.lookup_cost
            best = ClassSolution(
                class_name, tree, TOTAL, outcome.mapping, False
            )
    return [best] if best is not None else []
