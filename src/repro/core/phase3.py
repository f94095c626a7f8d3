"""Phase 3: combining per-class solutions into a global partitioning.

The search space of all per-table solution combinations is huge (Example
10: ~2.6M for TPC-E); two compatibility-based reductions shrink it to a
handful of candidates:

1. **Merging compatible solutions** per table (Definitions 13/14) — the
   coarser join path subsumes the finer one without quality loss
   (Property 4);
2. **Searching only around compatible attributes** — candidate global
   partitioning attributes are the pairwise-incompatible coarsest roots;
   for each, every table contributes its reduced (compatible, extended)
   solution set, and only those combinations are costed on the global
   trace.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, fields

from repro.schema.attribute import Attr
from repro.schema.database import DatabaseSchema
from repro.trace.events import Trace
from repro.core.compat import (
    EQUAL,
    FIRST_COARSER,
    SECOND_COARSER,
    AttributeLattice,
)
from repro.core.join_path import JoinPath, paths_compatible
from repro.core.mapping import HashMapping, MappingFunction
from repro.core.path_eval import ColumnarEngine
from repro.core.pathfinder import shortest_path
from repro.core.phase2 import ClassResult, config_from_dict
from repro.core.solution import DatabasePartitioning, TableSolution
from repro.evaluation.evaluator import CostReport, PartitioningEvaluator


@dataclass
class CandidateEntry:
    """One per-table solution candidate harvested from a class solution."""

    table: str
    path: JoinPath
    mapping: MappingFunction | None
    mapping_independent: bool
    source_class: str

    @property
    def attribute(self) -> Attr:
        return self.path.destination


@dataclass
class Phase3Config:
    max_combinations_per_attr: int = 64

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict | None) -> "Phase3Config":
        return config_from_dict(cls, data)


@dataclass
class EvaluatedCombination:
    attribute: Attr
    partitioning: DatabasePartitioning
    report: CostReport

    @property
    def cost(self) -> float:
        return self.report.cost


@dataclass
class Phase3Result:
    """The global solution plus search-space diagnostics (Example 10)."""

    best: DatabasePartitioning
    best_report: CostReport
    best_attribute: Attr
    candidate_attributes: list[Attr]
    evaluated: list[EvaluatedCombination]
    naive_search_space: int
    reduced_search_space: int
    #: wall-clock seconds of the whole combine step (instrumentation)
    wall_seconds: float = 0.0
    #: seconds spent in Definition-5/6 cost evaluation (stage timer)
    cost_eval_seconds: float = 0.0

    def summary(self) -> str:
        lines = [
            f"best attribute: {self.best_attribute} "
            f"(cost {self.best_report.cost:.1%})",
            f"candidates: {[str(a) for a in self.candidate_attributes]}",
            f"search space: {self.naive_search_space} naive -> "
            f"{self.reduced_search_space} evaluated",
        ]
        return "\n".join(lines)


def harvest_entries(class_results: list[ClassResult]) -> dict[str, list[CandidateEntry]]:
    """Per-table candidate solutions from all classes' total+partial trees."""
    per_table: dict[str, list[CandidateEntry]] = {}
    for result in class_results:
        for solution in result.total_solutions + result.partial_solutions:
            for table, path in solution.tree.paths.items():
                entry = CandidateEntry(
                    table,
                    path,
                    solution.mapping,
                    solution.mapping_independent,
                    result.class_name,
                )
                bucket = per_table.setdefault(table, [])
                if not any(e.path == path for e in bucket):
                    bucket.append(entry)
    return per_table


def _attr_compat(lattice: AttributeLattice):
    def compare(first: Attr, second: Attr) -> str | None:
        return lattice.compare(first, second)

    return compare


def merge_entries(
    entries: list[CandidateEntry], lattice: AttributeLattice
) -> list[CandidateEntry]:
    """Definition-14 merging: compatible pairs collapse to the coarser one.

    Compatibility additionally requires the finer (or one of two equal)
    solutions to be mapping independent; Property 4 then guarantees the
    merge loses nothing.
    """
    compare = _attr_compat(lattice)
    merged: list[CandidateEntry] = []
    for entry in entries:
        absorbed = False
        for i, existing in enumerate(merged):
            relation = paths_compatible(existing.path, entry.path, compare)
            if relation is None:
                continue
            if relation == EQUAL:
                if existing.mapping_independent and not entry.mapping_independent:
                    merged[i] = entry  # keep the mapping-carrying one
                absorbed = True
                break
            finer, coarser = (
                (entry, existing)
                if relation == FIRST_COARSER
                else (existing, entry)
            )
            if not finer.mapping_independent:
                continue  # Definition 14's second condition fails
            merged[i] = coarser
            absorbed = True
            break
        if not absorbed:
            merged.append(entry)
    return merged


def _extend_entry(
    entry: CandidateEntry,
    target: Attr,
    schema: DatabaseSchema,
    lattice: AttributeLattice,
) -> CandidateEntry | None:
    """Extend a finer entry's join path up to the *target* attribute."""
    relation = lattice.compare(entry.attribute, target)
    if relation == EQUAL:
        return entry
    if relation != SECOND_COARSER:
        return None
    if not entry.mapping_independent:
        return None  # a value-level mapping cannot be pushed up the path
    target_class = lattice.class_of(target)

    def reaches_target_class(node) -> bool:
        return len(node) == 1 and lattice.class_of(node) == target_class

    extension = shortest_path(
        schema,
        frozenset({entry.attribute}),
        target,
        goal_test=reaches_target_class,
    )
    if extension is None:
        return None
    return CandidateEntry(
        entry.table,
        entry.path.concat(extension),
        None,
        True,
        entry.source_class,
    )


def reduced_solution_set(
    table: str,
    entries: list[CandidateEntry],
    target: Attr,
    schema: DatabaseSchema,
    lattice: AttributeLattice,
) -> list[CandidateEntry]:
    """Step 2: compatible entries for *table*, merged and extended to X."""
    compatible = [
        e
        for e in entries
        if lattice.compare(e.attribute, target) in (EQUAL, SECOND_COARSER)
    ]
    compatible = merge_entries(compatible, lattice)
    extended = []
    for entry in compatible:
        out = _extend_entry(entry, target, schema, lattice)
        if out is not None:
            extended.append(out)
    return extended


def combine(
    class_results: list[ClassResult],
    partitioned_tables: list[str],
    replicated_tables: list[str],
    schema: DatabaseSchema,
    engine: ColumnarEngine,
    global_trace: Trace,
    num_partitions: int,
    config: Phase3Config | None = None,
) -> Phase3Result:
    """Run the full Phase-3 search and return the best global solution.

    Every combination is costed by a :class:`PartitioningEvaluator` over
    the run's *engine*, which reads *global_trace* from the engine's
    columns when it is the trace the engine was built from.
    """
    started = time.perf_counter()
    config = config or Phase3Config()
    lattice = AttributeLattice(schema)
    per_table = harvest_entries(class_results)

    # Example-10 style diagnostics: the naive space multiplies every
    # table's (solutions + replication) count.
    naive_space = 1
    for table in partitioned_tables:
        naive_space *= len(per_table.get(table, [])) + 1

    # Step 1: pairwise-incompatible candidate attributes (coarser wins).
    all_attrs: list[Attr] = []
    for entries in per_table.values():
        for entry in entries:
            if entry.attribute not in all_attrs:
                all_attrs.append(entry.attribute)
    candidates = lattice.coarsest(sorted(all_attrs))

    evaluator = PartitioningEvaluator(engine.database, engine)
    evaluated: list[EvaluatedCombination] = []
    for attribute in candidates:
        shared_mapping: MappingFunction | None = None
        table_choices: list[list[TableSolution]] = []
        for table in partitioned_tables:
            entries = reduced_solution_set(
                table, per_table.get(table, []), attribute, schema, lattice
            )
            if not entries:
                table_choices.append([TableSolution(table)])  # replicate
                continue
            options: list[TableSolution] = []
            for entry in entries:
                if entry.mapping is not None and shared_mapping is None:
                    shared_mapping = entry.mapping
                options.append(entry)  # placeholder; mapping filled below
            table_choices.append(options)  # type: ignore[arg-type]
        mapping = shared_mapping or HashMapping(num_partitions)

        combos = itertools.islice(
            itertools.product(*table_choices),
            config.max_combinations_per_attr,
        )
        for combo in combos:
            solutions: list[TableSolution] = []
            for choice in combo:
                if isinstance(choice, TableSolution):
                    solutions.append(choice)
                else:
                    solutions.append(
                        TableSolution(
                            choice.table,
                            choice.path,
                            choice.mapping or mapping,
                        )
                    )
            for table in replicated_tables:
                solutions.append(TableSolution(table))
            partitioning = DatabasePartitioning(
                num_partitions,
                solutions,
                name=f"jecb-{attribute}",
            )
            report = evaluator.evaluate(partitioning, global_trace)
            evaluated.append(
                EvaluatedCombination(attribute, partitioning, report)
            )

    if not evaluated:
        # No class produced any solution: replicate everything.
        partitioning = DatabasePartitioning(
            num_partitions,
            [TableSolution(t) for t in partitioned_tables + replicated_tables],
            name="jecb-replicate-all",
        )
        report = evaluator.evaluate(partitioning, global_trace)
        evaluated.append(
            EvaluatedCombination(Attr("", ""), partitioning, report)
        )

    best = min(evaluated, key=lambda e: e.cost)
    return Phase3Result(
        best=best.partitioning,
        best_report=best.report,
        best_attribute=best.attribute,
        candidate_attributes=candidates,
        evaluated=evaluated,
        naive_search_space=naive_space,
        reduced_search_space=len(evaluated),
        wall_seconds=time.perf_counter() - started,
        cost_eval_seconds=evaluator.eval_seconds,
    )
