"""Figure 7: partitioning quality across all five benchmarks at k = 8.

Paper: JECB never worse than Schism (10% coverage) or Horticulture; all
three tie on TPC-C; Schism pays a generalization penalty on TATP (22.6%);
JECB is far ahead on SEATS and TPC-E (~21%); AuctionMark is not fully
partitionable for anyone.

Horticulture is applied from its published designs where the paper did so
(TPC-C, TATP, TPC-E) and searched with the LNS implementation elsewhere.
"""

from repro.baselines import HorticultureConfig, SchismConfig
from repro.baselines.published import build_spec_partitioning
from repro.core import JECBConfig
from repro.evaluation.framework import PartitioningExperiment

from conftest import pct, print_table
from repro.workloads.tatp import HORTICULTURE_SPEC as TATP_HC
from repro.workloads.tpcc import HORTICULTURE_SPEC as TPCC_HC
from repro.workloads.tpce import HORTICULTURE_SPEC as TPCE_HC

K = 8
SCHISM_COVERAGE = 0.5  # stand-in for the paper's "10% of the database"


def evaluate_benchmark(bundle, hc_spec=None):
    experiment = PartitioningExperiment(bundle)
    costs = {}
    costs["jecb"] = experiment.run("jecb", JECBConfig(num_partitions=K)).cost
    costs["schism"] = experiment.run(
        "schism", SchismConfig(num_partitions=K), coverage=SCHISM_COVERAGE
    ).cost
    if hc_spec is not None:
        hc = experiment.run_fixed(
            build_spec_partitioning(bundle.database.schema, K, hc_spec)
        )
    else:
        hc = experiment.run(
            "horticulture",
            HorticultureConfig(num_partitions=K, iterations=40, seed=5),
        )
    costs["horticulture"] = hc.cost
    return costs


def run_figure7(bundles):
    results = {}
    specs = {"tpcc": TPCC_HC, "tatp": TATP_HC, "tpce": TPCE_HC}
    for name, bundle in bundles.items():
        results[name] = evaluate_benchmark(bundle, specs.get(name))
    return results


def test_fig7(
    tpcc_small, tatp_bundle, seats_bundle, auctionmark_bundle, tpce_bundle,
    benchmark,
):
    bundles = {
        "tpcc": tpcc_small,
        "tatp": tatp_bundle,
        "seats": seats_bundle,
        "auctionmark": auctionmark_bundle,
        "tpce": tpce_bundle,
    }
    results = benchmark.pedantic(
        run_figure7, args=(bundles,), rounds=1, iterations=1
    )
    rows = [
        [name, pct(c["jecb"]), pct(c["schism"]), pct(c["horticulture"])]
        for name, c in results.items()
    ]
    print_table(
        "Figure 7: % distributed transactions (k=8)",
        ["benchmark", "JECB", "Schism", "Horticulture"],
        rows,
    )

    # Headline claim: JECB never produces worse partitionings.
    for name, costs in results.items():
        assert costs["jecb"] <= costs["schism"] + 0.03, name
        assert costs["jecb"] <= costs["horticulture"] + 0.03, name
    # TPC-C: all three find warehouse partitioning (ties within noise).
    assert abs(results["tpcc"]["jecb"] - results["tpcc"]["horticulture"]) < 0.06
    # TATP: Schism pays the classifier-coverage penalty.
    assert results["tatp"]["schism"] > results["tatp"]["jecb"]
    # SEATS: JECB's join extension makes it (nearly) fully partitionable.
    assert results["seats"]["jecb"] < 0.08
    assert results["seats"]["horticulture"] > results["seats"]["jecb"]
    # TPC-E: JECB around the paper's 21%; both baselines far worse.
    assert 0.12 <= results["tpce"]["jecb"] <= 0.32
    assert results["tpce"]["schism"] > results["tpce"]["jecb"] + 0.2
    assert results["tpce"]["horticulture"] > results["tpce"]["jecb"] + 0.2
