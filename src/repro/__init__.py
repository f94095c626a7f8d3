"""JECB: a Join-Extension, Code-Based approach to OLTP data partitioning.

A from-scratch reproduction of Tran, Naughton, Sundarmurthy and
Tsirogiannis (SIGMOD 2014). The package contains the full stack the paper
needed: an in-memory relational engine with a SQL front-end, stored
procedures and trace collection; the JECB partitioner itself; the Schism
and Horticulture baselines; the five benchmark workloads plus the
synthetic Section-7.6 workload; and the evaluation framework of Figure 4.

Quickstart::

    import repro
    from repro.workloads.tpcc import TpccBenchmark

    bundle = TpccBenchmark().generate(num_transactions=2000, seed=7)
    result = repro.partition(bundle, num_partitions=8)
    print(result.partitioning.describe())
    print(result.metrics.summary())

Or, with a train/test split and cost scoring (Figure 4)::

    experiment = repro.PartitioningExperiment(bundle)
    run = experiment.run("jecb", {"num_partitions": 8})
    print(run.report)
"""

from repro.api import available_algorithms, partition, register_partitioner
from repro.core.metrics import ClassMetrics, SearchMetrics
from repro.core.partitioner import JECBConfig, JECBPartitioner, JECBResult
from repro.core.solution import DatabasePartitioning, TableSolution
from repro.evaluation.evaluator import CostReport, PartitioningEvaluator
from repro.evaluation.framework import (
    ExperimentRun,
    PartitioningExperiment,
    register_algorithm,
    registered_algorithms,
)
from repro.schema import Attr, Column, DatabaseSchema, DataType, TableSchema
from repro.storage import Database, Table
from repro.procedures import ProcedureCatalog, StoredProcedure
from repro.trace import Trace, TraceCollector

__version__ = "1.0.0"

__all__ = [
    "partition",
    "available_algorithms",
    "register_partitioner",
    "register_algorithm",
    "registered_algorithms",
    "SearchMetrics",
    "ClassMetrics",
    "JECBPartitioner",
    "JECBConfig",
    "JECBResult",
    "DatabasePartitioning",
    "TableSolution",
    "PartitioningEvaluator",
    "CostReport",
    "PartitioningExperiment",
    "ExperimentRun",
    "Attr",
    "Column",
    "DataType",
    "TableSchema",
    "DatabaseSchema",
    "Database",
    "Table",
    "StoredProcedure",
    "ProcedureCatalog",
    "Trace",
    "TraceCollector",
    "__version__",
]
