"""Statement execution against the in-memory database.

The executor is deliberately simple — OLTP statements touch a handful of
rows via keys. It runs statements in their bound form
(:func:`repro.sql.bind.bind`), which already fixed every column and the
plan: per table, in join order, the equality probes (served by hash
indexes), the join probes (index nested-loop joins), the IN predicates and
the residual filters. Each bound statement is compiled once into closures
(:mod:`repro.engine.plan`); executing only substitutes parameters and runs
them.

Every row that contributes to a statement's result is appended to the
``accesses`` sink as a plain ``(table, primary_key, is_write)`` tuple;
the trace collector points it at the open transaction's list, mirroring
the paper's instrumented stored procedures (Section 4 / Figure 4).
"""

from __future__ import annotations

from typing import Any, MutableMapping

from repro.engine.plan import Accesses, ExecResult, plan_of
from repro.sql.bind import BoundStatement
from repro.storage.database import Database


class Executor:
    """Runs bound statements; ``accesses=None`` records no accesses."""

    def __init__(
        self, database: Database, accesses: Accesses | None = None
    ) -> None:
        self.database = database
        self.accesses = accesses

    def execute(
        self,
        bound: BoundStatement,
        params: MutableMapping[str, Any] | None = None,
    ) -> ExecResult:
        """Execute *bound* with parameter bindings *params*.

        ``@var =`` SELECT targets write back into *params*, so procedures
        can thread values between statements.
        """
        params = params if params is not None else {}
        return plan_of(bound, self.database.schema).run(
            self.database, self.accesses, params
        )
