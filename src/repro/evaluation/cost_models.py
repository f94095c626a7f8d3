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

Each model scores the :class:`~repro.evaluation.evaluator.Footprints`
record of the partitioning evaluator, the same kernel that decides
Definition 5 everywhere else.
"""

from __future__ import annotations

from repro.core.solution import DatabasePartitioning
from repro.evaluation.evaluator import Footprints, PartitioningEvaluator
from repro.storage.database import Database
from repro.trace.events import Trace


class CostModel:
    """Maps a workload's footprints to a single scalar (lower is better):
    the mean of a per-transaction cost, 0 for no transactions."""

    name = "cost"

    def score(self, footprints: Footprints) -> float:
        count = len(footprints)
        return self.total(footprints) / count if count else 0.0

    def total(self, footprints: Footprints) -> float:
        raise NotImplementedError


class FractionDistributed(CostModel):
    """Definition 6: share of distributed transactions."""

    name = "fraction-distributed"

    def total(self, footprints: Footprints) -> float:
        return int(footprints.distributed.sum())


class SitesTouched(CostModel):
    """Average number of partitions each transaction coordinates."""

    name = "sites-touched"

    def total(self, footprints: Footprints) -> float:
        return int(footprints.sites.sum())


class WeightedLatency(CostModel):
    """Local transactions cost 1, distributed ones ``remote_factor``."""

    name = "weighted-latency"

    def __init__(self, remote_factor: float = 10.0) -> None:
        if remote_factor < 1.0:
            raise ValueError("remote transactions cannot be cheaper than local")
        self.remote_factor = remote_factor

    def total(self, footprints: Footprints) -> float:
        distributed = int(footprints.distributed.sum())
        local = len(footprints) - distributed
        return self.remote_factor * distributed + local


def evaluate_model(
    model: CostModel,
    partitioning: DatabasePartitioning,
    trace: Trace,
    database: Database,
) -> float:
    """Score *partitioning* on *trace* under *model*."""
    return model.score(
        PartitioningEvaluator(database).footprints(partitioning, trace)
    )
