"""Abstract syntax tree for the stored-procedure SQL dialect.

All nodes are immutable dataclasses. Column references may be qualified
(``TRADE.T_ID``) or bare (``T_ID``); resolution against the schema happens
once, in the binder (:mod:`repro.sql.bind`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


# ----------------------------------------------------------------------
# scalar expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnRef:
    """A column mention, optionally table-qualified."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal:
    """A constant (int, float, string or None)."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return "NULL" if self.value is None else str(self.value)


@dataclass(frozen=True)
class Param:
    """A stored-procedure parameter or local variable, ``@name``."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class BinaryOp:
    """Additive arithmetic, e.g. ``B_NUM_TRADES + 1`` in a SET clause."""

    left: "Expr"
    op: str  # '+' or '-'
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


Expr = Union[ColumnRef, Literal, Param, BinaryOp]


def expr_columns(expr: Expr) -> tuple[ColumnRef, ...]:
    """All column references inside a scalar expression."""
    if isinstance(expr, ColumnRef):
        return (expr,)
    if isinstance(expr, BinaryOp):
        return expr_columns(expr.left) + expr_columns(expr.right)
    return ()


# ----------------------------------------------------------------------
# predicates (conjunctive only)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Comparison:
    """``left <op> right`` with op in =, <, <=, >, >=, <>."""

    left: Expr
    op: str
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class InPredicate:
    """``column IN (v1, v2, ...)`` or ``column IN @param`` (list-valued)."""

    column: ColumnRef
    values: tuple[Expr, ...] | None = None
    param: Param | None = None

    def __str__(self) -> str:
        if self.param is not None:
            return f"{self.column} IN {self.param}"
        inner = ", ".join(str(v) for v in self.values or ())
        return f"{self.column} IN ({inner})"


@dataclass(frozen=True)
class BetweenPredicate:
    """``column BETWEEN low AND high`` (inclusive)."""

    column: ColumnRef
    low: Expr
    high: Expr

    def __str__(self) -> str:
        return f"{self.column} BETWEEN {self.low} AND {self.high}"


Predicate = Union[Comparison, InPredicate, BetweenPredicate]


# ----------------------------------------------------------------------
# SELECT building blocks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    """One output of a SELECT list.

    ``expr`` is a column, ``*`` (ColumnRef("*")), or an aggregate over a
    column. ``assign_to`` carries the T-SQL style ``@var =`` target used by
    procedures to thread values between statements; the executor writes the
    (single-row) result into the parameter environment.
    """

    expr: ColumnRef
    aggregate: str | None = None      # SUM / AVG / COUNT / MIN / MAX
    assign_to: str | None = None      # parameter name without '@'
    alias: str | None = None

    def __str__(self) -> str:
        body = f"{self.aggregate}({self.expr})" if self.aggregate else str(self.expr)
        if self.assign_to:
            body = f"@{self.assign_to} = {body}"
        if self.alias:
            body = f"{body} AS {self.alias}"
        return body


@dataclass(frozen=True)
class Join:
    """``JOIN table [AS alias] ON left = right`` (equi-join only)."""

    table: str
    left: ColumnRef
    right: ColumnRef
    alias: str | None = None

    def __str__(self) -> str:
        name = f"{self.table} {self.alias}" if self.alias else self.table
        return f"join {name} on {self.left} = {self.right}"


@dataclass(frozen=True)
class OrderBy:
    column: ColumnRef
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.column} {'DESC' if self.descending else 'ASC'}"


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    table: str
    joins: tuple[Join, ...] = ()
    where: tuple[Predicate, ...] = ()
    order_by: OrderBy | None = None
    limit: int | None = None
    distinct: bool = False
    table_alias: str | None = None

    @property
    def tables(self) -> tuple[str, ...]:
        """All tables in the FROM clause, base table first."""
        return (self.table,) + tuple(j.table for j in self.joins)

    @property
    def alias_map(self) -> dict[str, str]:
        """alias (or table name) -> real table name: the binder's scope."""
        out = {self.table_alias or self.table: self.table}
        for join in self.joins:
            out[join.alias or join.table] = join.table
        return out

    def __str__(self) -> str:
        base = (
            f"{self.table} {self.table_alias}" if self.table_alias else self.table
        )
        parts = [
            "SELECT "
            + ("DISTINCT " if self.distinct else "")
            + ", ".join(str(i) for i in self.items),
            "FROM " + " ".join([base] + [str(j) for j in self.joins]),
        ]
        if self.where:
            parts.append("WHERE " + " AND ".join(str(p) for p in self.where))
        if self.order_by:
            parts.append(f"ORDER BY {self.order_by}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO t (cols) VALUES (...)`` or ``INSERT INTO t (cols) SELECT ...``.

    Exactly one of ``values`` (non-empty) and ``select`` is populated.
    """

    table: str
    columns: tuple[str, ...]
    values: tuple[Expr, ...] = ()
    select: Select | None = None

    @property
    def tables(self) -> tuple[str, ...]:
        if self.select is not None:
            return (self.table,) + self.select.tables
        return (self.table,)

    def __str__(self) -> str:
        cols = ", ".join(self.columns)
        if self.select is not None:
            return f"INSERT INTO {self.table} ({cols}) {self.select}"
        vals = ", ".join(str(v) for v in self.values)
        return f"INSERT INTO {self.table} ({cols}) VALUES ({vals})"


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: tuple[Predicate, ...] = ()

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.table,)

    def __str__(self) -> str:
        sets = ", ".join(f"{c} = {e}" for c, e in self.assignments)
        text = f"UPDATE {self.table} SET {sets}"
        if self.where:
            text += " WHERE " + " AND ".join(str(p) for p in self.where)
        return text


@dataclass(frozen=True)
class Delete:
    table: str
    where: tuple[Predicate, ...] = ()

    @property
    def tables(self) -> tuple[str, ...]:
        return (self.table,)

    def __str__(self) -> str:
        text = f"DELETE FROM {self.table}"
        if self.where:
            text += " WHERE " + " AND ".join(str(p) for p in self.where)
        return text


Statement = Union[Select, Insert, Update, Delete]


def predicate_columns(pred: Predicate) -> tuple[ColumnRef, ...]:
    """All column references mentioned by a predicate."""
    if isinstance(pred, Comparison):
        return expr_columns(pred.left) + expr_columns(pred.right)
    if isinstance(pred, InPredicate):
        cols = [pred.column]
        for value in pred.values or ():
            if isinstance(value, ColumnRef):
                cols.append(value)
        return tuple(cols)
    return (pred.column,)
