"""Alternative cost models (Section 8 future work).

The paper's cost model is deliberately the simplest possible: the fraction
of distributed transactions. Section 8 suggests richer models; this module
provides a small spectrum so the ablation benches can compare them:

* :class:`FractionDistributed` — the paper's Definition 6.
* :class:`SitesTouched` — Horticulture-flavored: average number of
  partitions a transaction touches (distributed coordination cost grows
  with participant count).
* :class:`WeightedLatency` — models a local transaction costing 1 unit and
  a distributed one costing ``remote_factor`` units (two-phase commit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.mapping import REPLICATED
from repro.core.placement import UNROUTABLE, PlacementStore
from repro.core.solution import DatabasePartitioning
from repro.storage.database import Database
from repro.trace.events import Trace, TransactionTrace


@dataclass
class TransactionFootprint:
    """Partition-level footprint of one transaction."""

    partitions: frozenset[int]
    writes_replicated: bool
    unroutable: bool

    @property
    def distributed(self) -> bool:
        return (
            self.unroutable
            or self.writes_replicated
            or len(self.partitions) > 1
        )

    @property
    def sites(self) -> int:
        if self.unroutable:
            return -1  # sentinel: all sites
        return max(1, len(self.partitions))


def footprint(
    txn: TransactionTrace, pid_of: Callable[[str, tuple], int]
) -> TransactionFootprint:
    """The partitions *txn* touches; *pid_of* places each access the way
    :meth:`~repro.core.placement.PlacementStore.pid_of` does."""
    partitions: set[int] = set()
    writes_replicated = False
    unroutable = False
    for access in txn.accesses:
        pid = pid_of(access.table, access.key)
        if pid == UNROUTABLE:
            unroutable = True
        elif pid == REPLICATED:
            if access.write:
                writes_replicated = True
        else:
            partitions.add(pid)
    return TransactionFootprint(
        frozenset(partitions), writes_replicated, unroutable
    )


class CostModel:
    """Maps a workload's footprints to a single scalar (lower is better)."""

    name = "cost"

    def score(
        self, footprints: list[TransactionFootprint], num_partitions: int
    ) -> float:
        raise NotImplementedError


class FractionDistributed(CostModel):
    """Definition 6: share of distributed transactions."""

    name = "fraction-distributed"

    def score(
        self, footprints: list[TransactionFootprint], num_partitions: int
    ) -> float:
        if not footprints:
            return 0.0
        return sum(1 for f in footprints if f.distributed) / len(footprints)


class SitesTouched(CostModel):
    """Average number of partitions each transaction coordinates."""

    name = "sites-touched"

    def score(
        self, footprints: list[TransactionFootprint], num_partitions: int
    ) -> float:
        if not footprints:
            return 0.0
        total = 0
        for f in footprints:
            if f.sites < 0 or f.writes_replicated:
                total += num_partitions
            else:
                total += f.sites
        return total / len(footprints)


class WeightedLatency(CostModel):
    """Local transactions cost 1, distributed ones ``remote_factor``."""

    name = "weighted-latency"

    def __init__(self, remote_factor: float = 10.0) -> None:
        if remote_factor < 1.0:
            raise ValueError("remote transactions cannot be cheaper than local")
        self.remote_factor = remote_factor

    def score(
        self, footprints: list[TransactionFootprint], num_partitions: int
    ) -> float:
        if not footprints:
            return 0.0
        total = sum(
            self.remote_factor if f.distributed else 1.0 for f in footprints
        )
        return total / len(footprints)


def evaluate_model(
    model: CostModel,
    partitioning: DatabasePartitioning,
    trace: Trace,
    database: Database,
) -> float:
    """Score *partitioning* on *trace* under *model*."""
    pid_of = PlacementStore(database, partitioning).pid_of
    footprints = [footprint(txn, pid_of) for txn in trace]
    return model.score(footprints, partitioning.num_partitions)
