"""Trace splitting: per-class streams and train/test halves."""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.trace.events import Trace


def split_by_class(trace: Trace) -> dict[str, Trace]:
    """Split a mixed trace into one homogeneous sub-trace per class.

    This is Phase 1's "splitting the trace into different streams": each
    stored procedure's transactions form one homogeneous workload.
    """
    streams: dict[str, Trace] = {}
    for txn in trace:
        streams.setdefault(txn.class_name, Trace()).append(txn)
    return streams


def round_robin(count: int, fraction: float) -> list[bool]:
    """Which of *count* positions an accumulator gaining *fraction* per
    position picks (each time it reaches 1): every split and subsample of
    a trace, object or columnar, selects with this."""
    picks = []
    acc = 0.0
    for _ in range(count):
        acc += fraction
        picked = acc >= 1.0 - 1e-9
        if picked:
            acc -= 1.0
        picks.append(picked)
    return picks


def train_test_split(trace: Trace, train_fraction: float = 0.5) -> tuple[Trace, Trace]:
    """Deterministically split a trace into training and testing parts.

    Transactions are interleaved round-robin (by position) rather than cut
    at a boundary so that both halves sample the same phase of the driver's
    key-generation sequence; the paper's framework likewise feeds disjoint
    training/testing traces from one collection run (Section 7.1).
    """
    if not 0.0 < train_fraction < 1.0:
        raise WorkloadError("train_fraction must be strictly between 0 and 1")
    train, test = Trace(), Trace()
    for txn, picked in zip(trace, round_robin(len(trace), train_fraction)):
        (train if picked else test).append(txn)
    return train, test


def subsample(trace: Trace, fraction: float) -> Trace:
    """Every ``1/fraction``-th transaction — used for coverage experiments."""
    if not 0.0 < fraction <= 1.0:
        raise WorkloadError("fraction must be in (0, 1]")
    return Trace([
        txn
        for txn, picked in zip(trace, round_robin(len(trace), fraction))
        if picked
    ])
