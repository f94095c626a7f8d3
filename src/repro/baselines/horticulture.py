"""Horticulture baseline: LNS over per-table attribute choices.

Horticulture (Pavlo et al., SIGMOD'12) generates candidate designs from
the schema — each table is either hash-partitioned on one of its own
columns or replicated — and searches with large-neighborhood search
guided by a skew-aware cost model (distributed-transaction count, the
number of partitions they touch, and load skew).

This is a faithful simplification: no stored-procedure routing parameters
and no workload compression, but the same design space (intra-table
attributes only — crucially, *no join extension*) and the same search
style. For the TPC-E comparison the paper applied Horticulture's published
solution instead of running the search; see
:mod:`repro.baselines.published`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.baselines.published import intra_table_path
from repro.core.mapping import HashMapping
from repro.core.placement import PlacementStore
from repro.core.solution import DatabasePartitioning, TableSolution
from repro.evaluation.cost_models import footprint
from repro.procedures.procedure import ProcedureCatalog
from repro.sql.analyzer import analyze_procedure
from repro.storage.database import Database
from repro.trace.events import Trace
from repro.trace.stats import TableUsage, classify_tables

REPLICATE = None  # design choice sentinel


@dataclass
class HorticultureConfig:
    num_partitions: int = 8
    seed: int = 7
    read_mostly_threshold: float = 0.02
    iterations: int = 120
    relax_size: int = 2
    sample_transactions: int = 800
    skew_weight: float = 0.25
    sites_weight: float = 0.05


@dataclass
class HorticultureResult:
    partitioning: DatabasePartitioning
    table_usage: dict[str, TableUsage]
    design: dict[str, str | None] = field(default_factory=dict)
    cost_history: list[float] = field(default_factory=list)


class HorticulturePartitioner:
    """Skew-aware large-neighborhood design search."""

    def __init__(
        self,
        database: Database,
        catalog: ProcedureCatalog,
        config: HorticultureConfig | None = None,
    ) -> None:
        self.database = database
        self.catalog = catalog
        self.config = config or HorticultureConfig()

    def run(self, training_trace: Trace) -> HorticultureResult:
        config = self.config
        rng = random.Random(config.seed)
        schema = self.database.schema
        usage = classify_tables(
            training_trace, schema, config.read_mostly_threshold
        )
        partitioned = sorted(
            t for t, u in usage.items() if u is TableUsage.PARTITIONED
        )
        replicated = sorted(t for t, u in usage.items() if u.replicated)
        candidates = self._candidate_columns(partitioned)
        sample = self._sample(training_trace, config.sample_transactions)

        # Initial design: most frequently WHERE-bound column per table.
        design: dict[str, str | None] = {
            t: (candidates[t][0] if candidates[t] else REPLICATE)
            for t in partitioned
        }
        best_cost = self._design_cost(design, replicated, sample)
        history = [best_cost]

        for _ in range(config.iterations):
            relaxed = rng.sample(
                partitioned, min(config.relax_size, len(partitioned))
            )
            trial = dict(design)
            improved = False
            # Greedy re-optimization of each relaxed table in turn.
            for table in relaxed:
                options: list[str | None] = list(candidates[table]) + [REPLICATE]
                best_option = trial[table]
                option_best = self._design_cost(trial, replicated, sample)
                for option in options:
                    if option == trial[table]:
                        continue
                    trial[table] = option
                    cost = self._design_cost(trial, replicated, sample)
                    if cost < option_best:
                        option_best = cost
                        best_option = option
                trial[table] = best_option
            trial_cost = self._design_cost(trial, replicated, sample)
            if trial_cost < best_cost:
                best_cost = trial_cost
                design = trial
                improved = True
            if improved:
                history.append(best_cost)

        partitioning = self._materialize(design, replicated)
        return HorticultureResult(
            partitioning=partitioning,
            table_usage=usage,
            design=design,
            cost_history=history,
        )

    # ------------------------------------------------------------------
    # design space
    # ------------------------------------------------------------------
    def _candidate_columns(
        self, partitioned: list[str]
    ) -> dict[str, list[str]]:
        """Per-table candidate attributes: WHERE-bound columns, then keys.

        Horticulture builds its candidates from the schema plus how the
        workload accesses each table; attributes appearing in predicates
        come first, weighted by how many procedures use them.
        """
        counts: dict[str, dict[str, int]] = {t: {} for t in partitioned}
        for procedure in self.catalog:
            analysis = analyze_procedure(
                procedure.statements, self.database.schema
            )
            for attr in analysis.where_attrs:
                if attr.table in counts:
                    bucket = counts[attr.table]
                    bucket[attr.column] = bucket.get(attr.column, 0) + 1
        out: dict[str, list[str]] = {}
        for table in partitioned:
            ranked = sorted(
                counts[table], key=lambda c: (-counts[table][c], c)
            )
            for pk_col in self.database.schema.table(table).primary_key:
                if pk_col not in ranked:
                    ranked.append(pk_col)
            out[table] = ranked
        return out

    def _materialize(
        self, design: dict[str, str | None], replicated: list[str]
    ) -> DatabasePartitioning:
        schema = self.database.schema
        mapping = HashMapping(self.config.num_partitions)
        partitioning = DatabasePartitioning(
            self.config.num_partitions, name="horticulture"
        )
        for table, column in design.items():
            if column is REPLICATE:
                partitioning.set(TableSolution(table))
            else:
                partitioning.set(
                    TableSolution(
                        table, intra_table_path(schema, table, column), mapping
                    )
                )
        for table in replicated:
            partitioning.set(TableSolution(table))
        return partitioning

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    @staticmethod
    def _sample(trace: Trace, limit: int) -> Trace:
        if len(trace) <= limit:
            return trace
        stride = len(trace) / limit
        picked, acc = [], 0.0
        for i, txn in enumerate(trace):
            if i >= acc:
                picked.append(txn)
                acc += stride
        return Trace(picked)

    def _design_cost(
        self,
        design: dict[str, str | None],
        replicated: list[str],
        sample: Trace,
    ) -> float:
        """Skew-aware cost: distributed fraction + skew + sites terms."""
        config = self.config
        partitioning = self._materialize(design, replicated)
        pid_of = PlacementStore(self.database, partitioning).pid_of
        k = config.num_partitions
        distributed = 0
        sites_total = 0
        heat = [0.0] * (k + 1)
        n = max(len(sample), 1)
        for txn in sample:
            print_footprint = footprint(txn, pid_of)
            if print_footprint.distributed:
                distributed += 1
            sites = (
                k
                if print_footprint.sites < 0 or print_footprint.writes_replicated
                else print_footprint.sites
            )
            sites_total += sites
            for pid in print_footprint.partitions:
                heat[pid] += 1.0
        frac = distributed / n
        avg_heat = sum(heat[1:]) / k if k else 0.0
        skew = (max(heat[1:]) / avg_heat - 1.0) if avg_heat > 0 else 0.0
        sites_term = (sites_total / n - 1.0) / max(k - 1, 1)
        return (
            frac
            + config.skew_weight * min(skew, 1.0)
            + config.sites_weight * sites_term
        )
