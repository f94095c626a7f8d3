"""Top-level convenience API and the one algorithm table.

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

Algorithms live in one table: :func:`register_partitioner` adds one, and
both :func:`partition` and
:meth:`~repro.evaluation.framework.PartitioningExperiment.run` look names
up in it.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.baselines.horticulture import (
    HorticultureConfig,
    HorticulturePartitioner,
)
from repro.baselines.schism import SchismConfig, SchismPartitioner
from repro.core.partitioner import JECBConfig, JECBPartitioner
from repro.core.phase2 import config_from_dict
from repro.trace.events import Trace
from repro.workloads.base import WorkloadBundle

#: name -> (bundle, training trace, config) -> the algorithm's result
#: object. *config* is ``None``, the algorithm's config instance or a
#: plain dict; the built-in adapters coerce it with
#: :func:`~repro.core.phase2.config_from_dict`.
PartitionerAdapter = Callable[[WorkloadBundle, Trace, Any], Any]

_PARTITIONERS: dict[str, PartitionerAdapter] = {}


def register_partitioner(name: str, adapter: PartitionerAdapter) -> None:
    """Register (or replace) an algorithm under *name*."""
    _PARTITIONERS[name.lower()] = adapter


def available_algorithms() -> list[str]:
    """Registered algorithm names (sorted)."""
    return sorted(_PARTITIONERS)


def partitioner(name: str) -> PartitionerAdapter:
    """The adapter registered under *name*."""
    try:
        return _PARTITIONERS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {available_algorithms()}"
        ) from None


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
    adapter = partitioner(algorithm)
    return adapter(bundle, trace if trace is not None else bundle.trace, config)


# ----------------------------------------------------------------------
# built-in adapters
# ----------------------------------------------------------------------
def _jecb(bundle: WorkloadBundle, trace: Trace, config: Any) -> Any:
    return JECBPartitioner(
        bundle.database, bundle.catalog, JECBConfig.from_dict(config)
    ).run(trace)


def _schism(bundle: WorkloadBundle, trace: Trace, config: Any) -> Any:
    return SchismPartitioner(
        bundle.database, config_from_dict(SchismConfig, config)
    ).run(trace)


def _horticulture(bundle: WorkloadBundle, trace: Trace, config: Any) -> Any:
    return HorticulturePartitioner(
        bundle.database,
        bundle.catalog,
        config_from_dict(HorticultureConfig, config),
    ).run(trace)


register_partitioner("jecb", _jecb)
register_partitioner("schism", _schism)
register_partitioner("horticulture", _horticulture)
