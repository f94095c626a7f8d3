"""Golden pins of the scores built on per-transaction footprints.

Three consumers turn a partitioning's per-transaction footprint (is it
distributed, how many sites it coordinates, which partitions it touches)
into a number: Horticulture's skew-aware design search, the Section-8
cost models and the skew report's partition heat. This file pins what
each of them produced:

* Horticulture's LNS ``design`` and ``cost_history`` at Figure 7's
  search config (k = 8, 40 iterations, seed 5) on the training half of
  the SEATS, AuctionMark and TPC-C bundles the Figure-7 benchmark uses;
* the three cost models' scores of ``benchmarks/test_ablations.py``'s
  good (JECB) and bad (customer-only hash) TPC-C layouts on the test
  half;
* ``partition_heat`` of a JECB and a Schism (tuple-map) TATP layout.

Every section must serialize byte for byte as recorded. Regenerate only
for an intended change with::

    PYTHONPATH=src python tests/test_footprints_golden.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.baselines.horticulture import HorticultureConfig, HorticulturePartitioner
from repro.baselines.published import build_spec_partitioning
from repro.baselines.schism import SchismConfig, SchismPartitioner
from repro.core import JECBConfig, JECBPartitioner
from repro.core.skew import partition_heat
from repro.evaluation.cost_models import (
    FractionDistributed,
    SitesTouched,
    WeightedLatency,
    evaluate_model,
)
from repro.trace.splitter import train_test_split
from repro.workloads.auctionmark import AuctionMarkBenchmark, AuctionMarkConfig
from repro.workloads.seats import SeatsBenchmark, SeatsConfig
from repro.workloads.tatp import TatpBenchmark, TatpConfig
from repro.workloads.tpcc import TpccBenchmark, TpccConfig

GOLDEN = Path(__file__).parent / "golden" / "footprints.json"
K = 8

#: name -> (benchmark factory, transactions, seed): the Figure-7
#: benchmark's bundles (``benchmarks/conftest.py``), plus a small TATP
_BUNDLES = {
    "seats": (lambda: SeatsBenchmark(SeatsConfig()), 2500, 9),
    "auctionmark": (lambda: AuctionMarkBenchmark(AuctionMarkConfig()), 2500, 9),
    "tpcc": (lambda: TpccBenchmark(TpccConfig(warehouses=16)), 4000, 11),
    "tatp": (lambda: TatpBenchmark(TatpConfig(subscribers=300)), 1000, 5),
}


@functools.cache
def _bundle(name: str):
    factory, count, seed = _BUNDLES[name]
    bundle = factory().generate(count, seed=seed)
    return (bundle, *train_test_split(bundle.trace, 0.5))


@pytest.fixture(scope="module", autouse=True)
def _drop_bundles():
    """Free the cached bundles once this module's tests are done."""
    yield
    _bundle.cache_clear()


def horticulture(name: str) -> dict:
    bundle, train, _ = _bundle(name)
    result = HorticulturePartitioner(
        bundle.database,
        bundle.catalog,
        HorticultureConfig(num_partitions=K, iterations=40, seed=5),
    ).run(train)
    return {"design": result.design, "cost_history": result.cost_history}


def cost_models() -> dict:
    bundle, train, test = _bundle("tpcc")
    database = bundle.database
    layouts = {
        "good": JECBPartitioner(
            database, bundle.catalog, JECBConfig(num_partitions=K)
        ).run(train).partitioning,
        "bad": build_spec_partitioning(
            database.schema, K, {"CUSTOMER": "C_ID"}, name="bad"
        ),
    }
    return {
        model.name: {
            label: evaluate_model(model, layout, test, database)
            for label, layout in layouts.items()
        }
        for model in (FractionDistributed(), SitesTouched(), WeightedLatency())
    }


def heat() -> dict:
    bundle, train, test = _bundle("tatp")
    database = bundle.database
    layouts = {
        "jecb": JECBPartitioner(
            database, bundle.catalog, JECBConfig(num_partitions=K)
        ).run(train).partitioning,
        "schism": SchismPartitioner(
            database, SchismConfig(num_partitions=K)
        ).run(train).partitioning,
    }
    return {
        label: {
            str(pid): load
            for pid, load in partition_heat(layout, test, database).items()
        }
        for label, layout in layouts.items()
    }


SECTIONS = {
    "horticulture_seats": lambda: horticulture("seats"),
    "horticulture_auctionmark": lambda: horticulture("auctionmark"),
    "horticulture_tpcc": lambda: horticulture("tpcc"),
    "cost_models_tpcc": cost_models,
    "partition_heat_tatp": heat,
}


def _dump(document) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


@pytest.mark.slow
@pytest.mark.parametrize("section", list(SECTIONS))
def test_section_matches_golden(section):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[section]
    # compared as text: floats must match to the last bit
    assert _dump(SECTIONS[section]()) == _dump(expected), (
        f"{section} drifted from {GOLDEN}; if the change is intentional, "
        "regenerate it (see module docstring)"
    )


if __name__ == "__main__":
    GOLDEN.write_text(
        _dump({name: make() for name, make in SECTIONS.items()}),
        encoding="utf-8",
    )
