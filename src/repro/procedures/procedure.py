"""Stored-procedure model.

A :class:`StoredProcedure` is a named transaction template: a set of
parameterized SQL statements plus, optionally, a small piece of Python glue
for control flow (loops over query results, branches). Crucially, **all SQL
text is declared up front** — glue code runs statements by label — so the
static analyzer sees exactly the same source code a DBA would hand to JECB,
while the executor drives the same statements to generate traces. Each
statement is bound once per schema (:meth:`StoredProcedure.bound`); the
executor and the dataflow pass read that one bound form.

This mirrors the paper's setting: OLTP workloads are a fixed set of stored
procedures whose SQL can be inspected (Section 3).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.errors import WorkloadError
from repro.engine.executor import ExecResult, Executor
from repro.schema.database import DatabaseSchema
from repro.sql import ast
from repro.sql.bind import BoundStatement, bind
from repro.sql.parser import parse_statement


class ProcedureContext:
    """Execution context handed to a procedure's Python glue.

    Provides the parameter/local-variable environment (``env``) and
    :meth:`run` to execute one of the procedure's declared statements.
    """

    def __init__(
        self,
        procedure: "StoredProcedure",
        executor: Executor,
        env: dict[str, Any],
    ) -> None:
        self.procedure = procedure
        self.executor = executor
        self.env = env
        self._schema = executor.database.schema

    def run(self, label: str, **extra: Any) -> ExecResult:
        """Execute the statement named *label* with the current environment.

        ``extra`` bindings are merged into the environment first (and stay,
        T-SQL variables are procedure-scoped).
        """
        bound = self.procedure.bound(label, self._schema)
        self.env.update(extra)
        return self.executor.execute(bound, self.env)

    def __getitem__(self, name: str) -> Any:
        return self.env[name]

    def __setitem__(self, name: str, value: Any) -> None:
        self.env[name] = value


GlueBody = Callable[[ProcedureContext], Any]


class StoredProcedure:
    """A named, parameterized transaction template.

    Args:
        name: Transaction-class name (e.g. ``"Trade-Order"``).
        params: Names of input parameters (without the ``@``).
        statements: Mapping of label to SQL text. With no ``body``, the
            statements run in declaration order.
        body: Optional Python glue; receives a :class:`ProcedureContext`.
        weight: Relative frequency in the workload mix (used by drivers).

    Example:
        >>> proc = StoredProcedure(
        ...     "CustInfo",
        ...     params=["cust_id"],
        ...     statements={
        ...         "holdings": '''SELECT SUM(HS_QTY)
        ...                        FROM HOLDING_SUMMARY join CUSTOMER_ACCOUNT
        ...                        on HS_CA_ID = CA_ID
        ...                        WHERE CA_C_ID = @cust_id''',
        ...     },
        ... )
    """

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        statements: Mapping[str, str],
        body: GlueBody | None = None,
        weight: float = 1.0,
    ) -> None:
        if not statements:
            raise WorkloadError(f"procedure {name!r} declares no SQL")
        self.name = name
        self.params = tuple(params)
        self.sql_text: dict[str, str] = dict(statements)
        self.body = body
        self.weight = weight
        self._parsed: dict[str, ast.Statement] = {}
        self._bound: dict[tuple[str, DatabaseSchema], BoundStatement] = {}

    # ------------------------------------------------------------------
    # static views (what JECB analyzes)
    # ------------------------------------------------------------------
    def statement(self, label: str) -> ast.Statement:
        """Parsed AST for the statement named *label* (cached)."""
        if label not in self._parsed:
            if label not in self.sql_text:
                raise WorkloadError(
                    f"procedure {self.name!r} has no statement {label!r}"
                )
            self._parsed[label] = parse_statement(self.sql_text[label])
        return self._parsed[label]

    def bound(self, label: str, schema: DatabaseSchema) -> BoundStatement:
        """The statement named *label* bound to *schema* (cached per schema).

        Execution and the dataflow pass both read this one bound form.
        """
        key = (label, schema)
        bound = self._bound.get(key)
        if bound is None:
            bound = self._bound[key] = bind(self.statement(label), schema)
        return bound

    @property
    def statements(self) -> list[ast.Statement]:
        """All parsed statements, in declaration order."""
        return [self.statement(label) for label in self.sql_text]

    # ------------------------------------------------------------------
    # execution (what the driver runs)
    # ------------------------------------------------------------------
    def execute(self, executor: Executor, arguments: Mapping[str, Any]) -> Any:
        """Run the procedure once with *arguments* bound to its parameters."""
        missing = [p for p in self.params if p not in arguments]
        if missing:
            raise WorkloadError(
                f"procedure {self.name!r} missing arguments: {missing}"
            )
        env: dict[str, Any] = dict(arguments)
        context = ProcedureContext(self, executor, env)
        if self.body is not None:
            return self.body(context)
        result = None
        for label in self.sql_text:
            result = context.run(label)
        return result

    def __repr__(self) -> str:
        return f"StoredProcedure({self.name!r}, statements={len(self.sql_text)})"


class ProcedureCatalog:
    """The application's full set of stored procedures.

    This — together with the schema — is the "source code" input to JECB.
    """

    def __init__(self, procedures: Sequence[StoredProcedure] = ()) -> None:
        self._procedures: dict[str, StoredProcedure] = {}
        for proc in procedures:
            self.add(proc)

    def add(self, procedure: StoredProcedure) -> StoredProcedure:
        if procedure.name in self._procedures:
            raise WorkloadError(f"duplicate procedure {procedure.name!r}")
        self._procedures[procedure.name] = procedure
        return procedure

    def get(self, name: str) -> StoredProcedure:
        try:
            return self._procedures[name]
        except KeyError:
            raise WorkloadError(f"no procedure {name!r} in catalog") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._procedures)

    def __iter__(self):
        return iter(self._procedures.values())

    def __len__(self) -> int:
        return len(self._procedures)

    def __contains__(self, name: str) -> bool:
        return name in self._procedures
