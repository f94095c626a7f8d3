"""Workload traces: events, collection, splitting, and table classification.

A trace is the paper's Definition-1 view of a workload: each transaction is
the set of tuples it read and wrote, identified by (table, primary key).
Phase 1 of JECB is implemented here: collect the trace through instrumented
execution, classify read-only / read-mostly tables, and split the trace into
per-class homogeneous streams plus train/test halves.
"""

from repro.trace.events import TransactionTrace, Trace, TupleAccess
from repro.trace.collector import TraceCollector
from repro.trace.columnar import (
    ColumnarClassTrace,
    ColumnarSnapshot,
    ColumnarTrace,
)
from repro.trace.stats import TableUsage, classify_tables
from repro.trace.splitter import split_by_class, subsample, train_test_split

__all__ = [
    "TupleAccess",
    "TransactionTrace",
    "Trace",
    "TraceCollector",
    "ColumnarTrace",
    "ColumnarClassTrace",
    "ColumnarSnapshot",
    "TableUsage",
    "classify_tables",
    "split_by_class",
    "subsample",
    "train_test_split",
]
