"""Scalar expressions and predicates, compiled to closures for the executor.

Each compiler turns an AST node into a Python closure once; the executor's
plans (:mod:`repro.engine.plan`) call the closures per row, and there is
no interpreter beside them. Literals fold at compile time, while
parameters and columns are read when the closure runs, so an unbound
``@param`` raises :class:`~repro.errors.BindingError` exactly when its
value is first needed.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping

from repro.errors import BindingError, ExecutionError
from repro.sql import ast

Params = Mapping[str, Any]
Row = Mapping[str, Any]
#: a column-free expression: ``value = scalar_fn(params)``
ScalarFn = Callable[[Params], Any]
#: an expression over one row: ``value = row_fn(row, params)``
RowFn = Callable[[Row, Params], Any]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def scalar(expr: ast.Expr) -> ScalarFn:
    """Compile an expression that must not reference columns.

    A column reference compiles to a closure that raises
    :class:`~repro.errors.ExecutionError` when called.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda params: value
    if isinstance(expr, ast.Param):
        name = expr.name

        def param(params: Params) -> Any:
            try:
                return params[name]
            except KeyError:
                raise BindingError(f"unbound parameter @{name}") from None

        return param
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, scalar(expr.left), scalar(expr.right))

    def column(params: Params) -> Any:
        raise ExecutionError(
            f"column reference {expr} where a scalar was expected"
        )

    return column


def in_row(expr: ast.Expr) -> RowFn:
    """Compile an expression evaluated against one row (UPDATE SET side)."""
    if isinstance(expr, ast.ColumnRef):
        name = expr.name

        def column(row: Row, params: Params) -> Any:
            try:
                return row[name]
            except KeyError:
                raise ExecutionError(f"row has no column {name}") from None

        return column
    if isinstance(expr, ast.BinaryOp):
        left, right = in_row(expr.left), in_row(expr.right)
        apply = _arithmetic(expr.op)
        return lambda row, params: apply(left(row, params), right(row, params))
    value = scalar(expr)
    return lambda row, params: value(params)


def _binary(
    expr: ast.BinaryOp, left: ScalarFn, right: ScalarFn
) -> ScalarFn:
    """``left op right``, folded when both sides are literals."""
    apply = _arithmetic(expr.op)
    if isinstance(expr.left, ast.Literal) and isinstance(expr.right, ast.Literal):
        try:
            value = apply(expr.left.value, expr.right.value)
        except TypeError:
            pass  # raise when the statement runs, as an unfolded one does
        else:
            return lambda params: value
    return lambda params: apply(left(params), right(params))


def _arithmetic(op: str) -> Callable[[Any, Any], Any]:
    return operator.add if op == "+" else operator.sub


def comparator(op: str) -> Callable[[Any, Any], bool]:
    """SQL-ish comparison for *op*: anything compared to NULL is false.

    An unknown operator compiles to a comparison that raises
    :class:`~repro.errors.ExecutionError` when called.
    """
    test = _COMPARATORS.get(op)
    if test is None:

        def unknown(left: Any, right: Any) -> bool:
            raise ExecutionError(f"unknown comparison operator {op!r}")

        return unknown

    def compare(left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        try:
            return test(left, right)
        except TypeError as exc:
            raise ExecutionError(
                f"incomparable values {left!r} {op} {right!r}"
            ) from exc

    return compare


def in_values(value: Any, candidates: Any) -> bool:
    """Membership test for IN; *candidates* must be a container."""
    if value is None:
        return False
    try:
        return value in candidates
    except TypeError as exc:
        raise ExecutionError(
            f"IN parameter must be a collection, got {type(candidates).__name__}"
        ) from exc

