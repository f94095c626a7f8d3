"""Trace persistence: save/load traces as JSON lines.

The paper's framework collects the trace once and reuses it across
partitioner runs (Figure 4); persisting traces makes experiments
restartable and lets users bring traces collected elsewhere. One JSON
object per transaction::

    {"id": 17, "class": "Payment", "a": [["CUSTOMER", [1, 2, 3], 1], ...]}

Keys serialize as JSON arrays and are restored as tuples.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Iterable

from repro.errors import WorkloadError
from repro.trace.events import Trace, TransactionTrace


def transaction_to_dict(txn: TransactionTrace) -> dict:
    out = {
        "id": txn.txn_id,
        "class": txn.class_name,
        "a": [
            [table, list(key), 1 if write else 0]
            for table, key, write in txn.accesses
        ],
    }
    if txn.arguments is not None:
        out["args"] = txn.arguments
    return out


def transaction_from_dict(data: dict) -> TransactionTrace:
    try:
        # Intern the names JSON materializes fresh on every line: a large
        # trace repeats each table/class name once per access, and keeping
        # millions of equal-but-distinct strings is pure churn.
        txn = TransactionTrace(int(data["id"]), sys.intern(str(data["class"])))
        for table, key, write in data["a"]:
            txn.record(sys.intern(str(table)), tuple(key), bool(write))
        arguments = data.get("args")
        if arguments is not None:
            if not isinstance(arguments, dict):
                raise TypeError("args must be an object")
            txn.arguments = arguments
        return txn
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkloadError(f"malformed trace record: {exc}") from exc


def dump_trace(trace: Trace, stream: IO[str]) -> int:
    """Write *trace* as JSON lines; returns the number of transactions."""
    count = 0
    for txn in trace:
        stream.write(json.dumps(transaction_to_dict(txn)))
        stream.write("\n")
        count += 1
    return count


def load_trace(stream: IO[str] | Iterable[str]) -> Trace:
    """Read a JSON-lines trace; blank lines are skipped."""
    trace = Trace()
    for line_number, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WorkloadError(
                f"line {line_number}: invalid JSON ({exc})"
            ) from exc
        trace.append(transaction_from_dict(data))
    return trace


def save_trace_file(trace: Trace, path: str) -> int:
    with open(path, "w", encoding="utf-8") as stream:
        return dump_trace(trace, stream)


def load_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as stream:
        return load_trace(stream)
