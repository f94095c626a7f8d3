"""The JECB partitioner facade: Phase 1 -> Phase 2 -> Phase 3.

Inputs (Section 3): a workload trace, the database schema, the SQL code of
the transaction classes, and the desired number of partitions. Output: a
:class:`~repro.core.solution.DatabasePartitioning` plus full diagnostics
(per-class solutions for Table 3, the final per-table placements for
Table 4, search-space statistics for Example 10, and a
:class:`~repro.core.metrics.SearchMetrics` block for the run itself).

Between Phase 1 and Phase 2 the trace is interned once into a
:class:`~repro.trace.columnar.ColumnarTrace`. Phase 2 then searches each
transaction class in turn on its
:class:`~repro.trace.columnar.ColumnarClassTrace` view, and one shared
:class:`~repro.core.path_eval.ColumnarEngine` serves both the
mapping-independence tests and Phase 3's cost evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.procedures.procedure import ProcedureCatalog
from repro.storage.database import Database
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import Trace
from repro.trace.stats import TableUsage, classify_tables
from repro.core.metrics import SearchMetrics, Stopwatch
from repro.core.path_eval import ColumnarEngine
from repro.core.phase2 import (
    ClassResult,
    Phase2Config,
    _config_from_dict,
    partition_class,
)
from repro.core.phase3 import Phase3Config, Phase3Result, combine
from repro.core.solution import DatabasePartitioning
from repro.evaluation.resources import ResourceMeter, ResourceUsage


@dataclass
class JECBConfig:
    """End-to-end configuration."""

    num_partitions: int = 8
    read_mostly_threshold: float = 0.02
    phase2: Phase2Config = field(default_factory=Phase2Config)
    phase3: Phase3Config = field(default_factory=Phase3Config)
    meter_resources: bool = False

    def to_dict(self) -> dict:
        """Plain-JSON form (nested phase configs become dicts)."""
        return {
            "num_partitions": self.num_partitions,
            "read_mostly_threshold": self.read_mostly_threshold,
            "phase2": self.phase2.to_dict(),
            "phase3": self.phase3.to_dict(),
            "meter_resources": self.meter_resources,
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "JECBConfig":
        """Inverse of :meth:`to_dict`; accepts partial dicts.

        ``phase2``/``phase3`` values may be dicts or config instances.
        Unknown keys raise ``ValueError`` so CLI typos fail loudly.
        """
        if data is None:
            return cls()
        if isinstance(data, cls):
            return data
        data = dict(data)
        phase2 = Phase2Config.from_dict(data.pop("phase2", None))
        phase3 = Phase3Config.from_dict(data.pop("phase3", None))
        config = _config_from_dict(cls, data)
        config.phase2 = phase2
        config.phase3 = phase3
        return config


@dataclass
class JECBResult:
    """Everything JECB produced for one workload."""

    partitioning: DatabasePartitioning
    table_usage: dict[str, TableUsage]
    class_results: list[ClassResult]
    phase3: Phase3Result
    resources: ResourceUsage | None = None
    metrics: SearchMetrics | None = None

    @property
    def cost(self) -> float:
        """Cost on the training trace (Phase 3's selection criterion)."""
        return self.phase3.best_report.cost

    def class_result(self, name: str) -> ClassResult:
        for result in self.class_results:
            if result.class_name == name:
                return result
        raise KeyError(name)

    def solutions_table(self) -> str:
        """Table-3-style listing of per-class total/partial solutions."""
        return "\n".join(r.summary() for r in self.class_results)

    def placements_table(self) -> str:
        """Table-4-style listing of the final per-table placements."""
        return self.partitioning.describe()


class JECBPartitioner:
    """Join-Extension, Code-Based automatic OLTP partitioner."""

    def __init__(
        self,
        database: Database,
        catalog: ProcedureCatalog,
        config: JECBConfig | None = None,
    ) -> None:
        self.database = database
        self.schema = database.schema
        self.catalog = catalog
        self.config = config or JECBConfig()

    def run(self, training_trace: Trace) -> JECBResult:
        """Execute the three phases over *training_trace*."""
        if self.config.meter_resources:
            with ResourceMeter() as meter:
                result = self._run(training_trace)
            result.resources = meter.usage
            return result
        return self._run(training_trace)

    def _run(self, training_trace: Trace) -> JECBResult:
        config = self.config
        metrics = SearchMetrics()
        with Stopwatch() as total_clock:
            # Phase 1: classify tables.
            with Stopwatch() as clock:
                usage = classify_tables(
                    training_trace, self.schema, config.read_mostly_threshold
                )
                replicated = {t for t, u in usage.items() if u.replicated}
                partitioned = [
                    t for t, u in usage.items() if u is TableUsage.PARTITIONED
                ]
            metrics.phase1_seconds = clock.seconds

            # Intern the trace once; the per-class streams are views over
            # its columns and one engine serves Phases 2 and 3.
            ctrace = ColumnarTrace.from_trace(training_trace)
            engine = ColumnarEngine(self.database, ctrace)
            metrics.trace_build_seconds = ctrace.build_seconds
            metrics.intern_seconds = ctrace.intern_seconds

            # Phase 2: per-class total and partial solutions.
            with Stopwatch() as clock:
                class_results = [
                    partition_class(
                        self.schema,
                        self.catalog.get(name),
                        ctrace.class_view(name),
                        replicated,
                        self.database,
                        config.num_partitions,
                        config.phase2,
                        engine=engine,
                    )
                    for name in sorted(ctrace.views)
                    if name in self.catalog
                ]
            metrics.phase2_seconds = clock.seconds
            for result in class_results:
                if result.metrics is not None:
                    metrics.add_class(result.metrics)

            # Phase 3: combine into the global solution.
            with Stopwatch() as clock:
                phase3 = combine(
                    class_results,
                    partitioned,
                    sorted(replicated),
                    self.schema,
                    self.database,
                    training_trace,
                    config.num_partitions,
                    config.phase3,
                    columnar=engine,
                )
            metrics.phase3_seconds = clock.seconds
            metrics.cost_eval_seconds = phase3.cost_eval_seconds
            metrics.candidate_attributes = len(phase3.candidate_attributes)
            metrics.combinations_evaluated = phase3.reduced_search_space
        metrics.total_seconds = total_clock.seconds
        return JECBResult(
            partitioning=phase3.best,
            table_usage=usage,
            class_results=class_results,
            phase3=phase3,
            metrics=metrics,
        )
