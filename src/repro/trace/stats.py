"""Phase-1 table classification: read-only, read-mostly, partitioned."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.schema.database import DatabaseSchema
from repro.trace.events import Trace


class TableUsage(enum.Enum):
    """How a table is used by the workload, per Section 4.

    * READ_ONLY — never written; replicated everywhere for free.
    * READ_MOSTLY — written by a tiny fraction of transactions; replicated
      too, accepting that those writers become distributed by default.
    * PARTITIONED — everything else; these are the tables JECB partitions.
    """

    READ_ONLY = "read-only"
    READ_MOSTLY = "read-mostly"
    PARTITIONED = "partitioned"

    @property
    def replicated(self) -> bool:
        return self is not TableUsage.PARTITIONED


@dataclass
class TableStats:
    """Raw read/write counts for one table."""

    reads: int = 0
    writes: int = 0
    writing_txns: set[int] = field(default_factory=set)


def table_stats(trace: Trace) -> dict[str, TableStats]:
    """Count reads/writes and writing transactions per table."""
    stats: dict[str, TableStats] = {}
    for txn in trace:
        for table, _, write in txn.accesses:
            entry = stats.setdefault(table, TableStats())
            if write:
                entry.writes += 1
                entry.writing_txns.add(txn.txn_id)
            else:
                entry.reads += 1
    return stats


def classify_tables(
    trace: Trace,
    schema: DatabaseSchema,
    read_mostly_threshold: float = 0.02,
) -> dict[str, TableUsage]:
    """Classify every schema table from the workload trace.

    A table is READ_MOSTLY when the fraction of transactions that write it
    is positive but at most *read_mostly_threshold* (e.g. TPC-E's
    LAST_TRADE, written only by the 1%-mix Market-Feed class). Tables the
    trace never touches are READ_ONLY: replicating them costs nothing the
    cost model can see.
    """
    if not 0.0 <= read_mostly_threshold < 1.0:
        raise ValueError("read_mostly_threshold must be in [0, 1)")
    stats = table_stats(trace)
    total_txns = max(len(trace), 1)
    usage: dict[str, TableUsage] = {}
    for table in schema.table_names:
        entry = stats.get(table)
        if entry is None or entry.writes == 0:
            usage[table] = TableUsage.READ_ONLY
            continue
        write_fraction = len(entry.writing_txns) / total_txns
        if write_fraction <= read_mostly_threshold:
            usage[table] = TableUsage.READ_MOSTLY
        else:
            usage[table] = TableUsage.PARTITIONED
    return usage


def partitioned_tables(usage: dict[str, TableUsage]) -> list[str]:
    """Names of the tables JECB must partition, in schema order."""
    return [t for t, u in usage.items() if u is TableUsage.PARTITIONED]
