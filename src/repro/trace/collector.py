"""Trace collection by instrumented execution (Figure 4's trace collector)."""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import WorkloadError
from repro.engine.executor import Executor
from repro.procedures.procedure import StoredProcedure
from repro.storage.database import Database
from repro.trace.events import TransactionTrace, Trace


class TraceCollector:
    """Collects per-transaction tuple accesses while procedures execute.

    The paper instruments each stored procedure with an extra SQL statement
    after every query to capture the tuples it accessed; here the executor
    appends each statement's accesses to the open transaction's list (and
    nowhere between transactions), which is semantically the same record:
    (table, primary key, read/write, transaction id).

    Usage::

        collector = TraceCollector(database)
        collector.run(procedure, {"cust_id": 42})
        trace = collector.trace
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self.trace = Trace()
        self._current: TransactionTrace | None = None
        self._next_id = 0
        self.executor = Executor(database)

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self, class_name: str) -> TransactionTrace:
        if self._current is not None:
            raise WorkloadError("previous transaction still open")
        self._current = TransactionTrace(self._next_id, class_name)
        self._next_id += 1
        self.executor.accesses = self._current.accesses
        return self._current

    def commit(self) -> TransactionTrace:
        if self._current is None:
            raise WorkloadError("no open transaction")
        txn = self._current
        self._current = None
        self.executor.accesses = None
        self.trace.append(txn)
        return txn

    def abort(self) -> None:
        """Drop the open transaction without recording it."""
        self._current = None
        self.executor.accesses = None

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def run(
        self, procedure: StoredProcedure, arguments: Mapping[str, Any]
    ) -> TransactionTrace:
        """Execute *procedure* once as a traced transaction.

        The invocation arguments are recorded on the transaction so the
        collected trace doubles as a call log for the routing tier.
        """
        txn = self.begin(procedure.name)
        txn.arguments = dict(arguments)
        try:
            procedure.execute(self.executor, arguments)
        except Exception:
            self.abort()
            raise
        return self.commit()
