"""Shared benchmark machinery.

A :class:`Benchmark` bundles everything a partitioning experiment needs:
the schema, a deterministic data loader, the stored-procedure catalog
(the SQL text JECB analyzes), and a driver that issues transactions with
the benchmark's mix percentages and parameter distributions.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.procedures.procedure import ProcedureCatalog, StoredProcedure
from repro.schema.database import DatabaseSchema
from repro.storage.database import Database
from repro.trace.collector import TraceCollector
from repro.trace.events import Trace


@dataclass
class WorkloadBundle:
    """A loaded database plus its catalog and a collected trace."""

    benchmark: "Benchmark"
    database: Database
    catalog: ProcedureCatalog
    trace: Trace


class Benchmark(ABC):
    """Base class for all benchmark workloads.

    Subclasses set ``name`` and implement the four hooks; ``generate``
    runs the standard pipeline: build schema -> load data -> collect a
    trace of ``num_transactions`` transactions drawn from the mix.
    """

    name: str = "benchmark"

    @abstractmethod
    def build_schema(self) -> DatabaseSchema:
        """Tables, keys and foreign keys."""

    @abstractmethod
    def load(self, database: Database, rng: random.Random) -> None:
        """Populate the database deterministically."""

    @abstractmethod
    def build_catalog(self) -> ProcedureCatalog:
        """The stored procedures (SQL text included)."""

    @abstractmethod
    def run_transaction(
        self,
        collector: TraceCollector,
        procedure: StoredProcedure,
        rng: random.Random,
    ) -> None:
        """Generate arguments for *procedure* and execute it traced."""

    # ------------------------------------------------------------------
    # standard pipeline
    # ------------------------------------------------------------------
    def pick_procedure(
        self, catalog: ProcedureCatalog, rng: random.Random
    ) -> StoredProcedure:
        """Draw a procedure according to the catalog's mix weights."""
        procedures = list(catalog)
        total = sum(p.weight for p in procedures)
        if total <= 0:
            raise WorkloadError(f"{self.name}: procedure weights sum to zero")
        point = rng.random() * total
        acc = 0.0
        for procedure in procedures:
            acc += procedure.weight
            if point < acc:
                return procedure
        return procedures[-1]

    def generate(
        self, num_transactions: int, seed: int = 7, check_integrity: bool = False
    ) -> WorkloadBundle:
        """Build, load, and drive the benchmark end to end."""
        rng = random.Random(seed)
        schema = self.build_schema()
        database = Database(schema)
        self.load(database, rng)
        if check_integrity:
            database.check_integrity()
        catalog = self.build_catalog()
        collector = TraceCollector(database)
        for _ in range(num_transactions):
            procedure = self.pick_procedure(catalog, rng)
            self.run_transaction(collector, procedure, rng)
        return WorkloadBundle(self, database, catalog, collector.trace)


def nurand(rng: random.Random, a: int, x: int, y: int, c: int = 123) -> int:
    """TPC-C's NURand non-uniform distribution over [x, y]."""
    return (((rng.randint(0, a) | rng.randint(x, y)) + c) % (y - x + 1)) + x
