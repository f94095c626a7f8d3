"""Top-level convenience API: one call from workload bundle to solution.

:func:`partition` is the front door for the common case — "partition this
workload with JECB (or a baseline) and give me the result object":

    import repro
    from repro.workloads.tpcc import TpccBenchmark

    bundle = TpccBenchmark().generate(2000, seed=7)
    result = repro.partition(bundle, num_partitions=8)
    print(result.partitioning.describe())
    print(result.metrics.summary())

Keyword arguments are algorithm-config fields (for JECB they round-trip
through :meth:`JECBConfig.from_dict`, so nested ``phase2={...}`` dicts
work too); unknown keys raise ``ValueError`` rather than being silently
dropped.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.baselines.horticulture import (
    HorticultureConfig,
    HorticulturePartitioner,
)
from repro.baselines.schism import SchismConfig, SchismPartitioner
from repro.core.partitioner import JECBConfig, JECBPartitioner
from repro.trace.events import Trace
from repro.workloads.base import WorkloadBundle

#: name -> (bundle, trace, config dict) -> algorithm result object
PartitionerAdapter = Callable[[WorkloadBundle, Trace, dict], Any]

_PARTITIONERS: dict[str, PartitionerAdapter] = {}


def register_partitioner(name: str, adapter: PartitionerAdapter) -> None:
    """Expose an algorithm through :func:`partition` under *name*."""
    _PARTITIONERS[name.lower()] = adapter


def available_algorithms() -> list[str]:
    """Algorithm names :func:`partition` accepts (sorted)."""
    return sorted(_PARTITIONERS)


def partition(
    bundle: WorkloadBundle,
    algorithm: str = "jecb",
    trace: Trace | None = None,
    **config: Any,
) -> Any:
    """Partition *bundle*'s database with the named algorithm.

    Trains on *trace* when given, otherwise on the bundle's full collected
    trace (use :func:`repro.trace.train_test_split` first if you want a
    held-out testing half — or use
    :class:`~repro.evaluation.framework.PartitioningExperiment`, which
    does the split and the scoring for you).

    Returns the algorithm's result object (``JECBResult`` for JECB —
    partitioning, per-class solutions, ``metrics``; the baselines' result
    types for ``"schism"``/``"horticulture"``).
    """
    try:
        adapter = _PARTITIONERS[algorithm.lower()]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; "
            f"available: {available_algorithms()}"
        ) from None
    return adapter(bundle, trace if trace is not None else bundle.trace, config)


# ----------------------------------------------------------------------
# built-in adapters
# ----------------------------------------------------------------------
def _strict_config(cls, overrides: dict):
    """Dataclass config from keyword overrides; unknown keys fail loudly."""
    from dataclasses import fields

    known = {f.name for f in fields(cls)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {sorted(unknown)} "
            f"(known: {sorted(known)})"
        )
    return cls(**overrides)


def _run_jecb(bundle: WorkloadBundle, trace: Trace, config: dict) -> Any:
    jecb_config = JECBConfig.from_dict(config)
    return JECBPartitioner(bundle.database, bundle.catalog, jecb_config).run(
        trace
    )


def _run_schism(bundle: WorkloadBundle, trace: Trace, config: dict) -> Any:
    schism_config = _strict_config(SchismConfig, config)
    return SchismPartitioner(bundle.database, schism_config).run(trace)


def _run_horticulture(bundle: WorkloadBundle, trace: Trace, config: dict) -> Any:
    hc_config = _strict_config(HorticultureConfig, config)
    return HorticulturePartitioner(
        bundle.database, bundle.catalog, hc_config
    ).run(trace)


register_partitioner("jecb", _run_jecb)
register_partitioner("schism", _run_schism)
register_partitioner("horticulture", _run_horticulture)
