"""Static analysis of stored-procedure SQL — the "CB" in JECB.

From the SQL text of a transaction class, the analyzer extracts:

* the set of **tables accessed** (FROM clauses, plus INSERT/UPDATE/DELETE
  targets),
* the **candidate attributes** — attributes appearing in WHERE clauses
  (Section 5.1), the pool JECB draws partitioning attributes from,
* the **select attributes** — attributes in SELECT lists, considered too so
  that *implicit joins* (a value selected by one query and used in another
  query's WHERE) are discovered (Section 5.1, Example 3),
* **explicit joins** — column equalities in ON or WHERE clauses, and
* which stored-procedure **parameters bind to which attributes**, used by
  the runtime router.

It reads each statement through its bound form
(:func:`repro.sql.bind.bind`), so every attribute it reports was resolved
by the binder's scope rule; a reference outside the statement's FROM
tables raises :class:`~repro.errors.BindError`, an ``AnalysisError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.schema.attribute import Attr
from repro.schema.database import DatabaseSchema
from repro.sql import ast
from repro.sql.bind import BoundStatement, bind


@dataclass
class StatementAnalysis:
    """What one statement touches. Attribute sets hold resolved Attrs."""

    tables: set[str] = field(default_factory=set)
    where_attrs: set[Attr] = field(default_factory=set)
    select_attrs: set[Attr] = field(default_factory=set)
    #: unordered pairs of attributes equated by ON clauses or WHERE
    #: column-to-column equalities
    explicit_joins: set[frozenset[Attr]] = field(default_factory=set)
    #: (attribute, parameter-name) pairs from WHERE equality/IN predicates
    param_bindings: set[tuple[Attr, str]] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)

    def merge(self, other: "StatementAnalysis") -> None:
        self.tables |= other.tables
        self.where_attrs |= other.where_attrs
        self.select_attrs |= other.select_attrs
        self.explicit_joins |= other.explicit_joins
        self.param_bindings |= other.param_bindings
        self.writes |= other.writes

    @property
    def candidate_attrs(self) -> set[Attr]:
        """WHERE attributes — the paper's candidate partitioning attributes."""
        return set(self.where_attrs)

    @property
    def accessed_attrs(self) -> set[Attr]:
        """WHERE plus SELECT attributes (implicit-join discovery pool)."""
        return self.where_attrs | self.select_attrs


def _analyze_predicates(
    predicates: tuple[ast.Predicate, ...],
    attrs: Mapping[ast.ColumnRef, Attr],
    out: StatementAnalysis,
) -> None:
    for pred in predicates:
        if isinstance(pred, ast.Comparison):
            for ref in ast.predicate_columns(pred):
                out.where_attrs.add(attrs[ref])
            if pred.op != "=":
                continue
            left, right = pred.left, pred.right
            if isinstance(left, ast.ColumnRef):
                if isinstance(right, ast.ColumnRef):
                    if attrs[left] != attrs[right]:
                        out.explicit_joins.add(
                            frozenset({attrs[left], attrs[right]})
                        )
                elif isinstance(right, ast.Param):
                    out.param_bindings.add((attrs[left], right.name))
            elif isinstance(right, ast.ColumnRef):
                if isinstance(left, ast.Param):
                    out.param_bindings.add((attrs[right], left.name))
        elif isinstance(pred, ast.InPredicate):
            attr = attrs[pred.column]
            out.where_attrs.add(attr)
            if pred.param is not None:
                out.param_bindings.add((attr, pred.param.name))
            for value in pred.values or ():
                if isinstance(value, ast.ColumnRef):
                    out.where_attrs.add(attrs[value])
                elif isinstance(value, ast.Param):
                    # ``attr IN (1, @p, 2)``: @p constrains attr by equality
                    # on a match, so it can route the call like ``= @p``.
                    out.param_bindings.add((attr, value.name))
        else:  # BetweenPredicate
            out.where_attrs.add(attrs[pred.column])


def analyze_statement(
    statement: ast.Statement, schema: DatabaseSchema
) -> StatementAnalysis:
    """Analyze one parsed statement against *schema*."""
    return analyze_bound(bind(statement, schema))


def analyze_bound(bound: BoundStatement) -> StatementAnalysis:
    """Analyze a statement already bound to its schema."""
    statement = bound.statement
    out = StatementAnalysis(tables=set(bound.tables))
    if isinstance(statement, ast.Select):
        out.select_attrs |= {attr for attr in bound.items if attr is not None}
        for join in statement.joins:
            left, right = bound.attrs[join.left], bound.attrs[join.right]
            out.where_attrs |= {left, right}
            if left != right:
                out.explicit_joins.add(frozenset({left, right}))
        _analyze_predicates(statement.where, bound.attrs, out)
        return out
    out.writes.add(statement.table)
    if isinstance(statement, ast.Insert):
        if bound.source is not None:
            # INSERT ... SELECT: the source query is analyzed like any
            # SELECT, and each inserted column *equals* its source item —
            # an explicit value flow from source attribute to column.
            out.merge(analyze_bound(bound.source))
            for attr, src in bound.pairs:
                out.where_attrs.add(attr)
                if src is not None and src != attr:
                    out.explicit_joins.add(frozenset({attr, src}))
        # The inserted key columns behave like WHERE attributes: the new
        # tuple's placement is decided by them.
        for col, value in zip(statement.columns, statement.values):
            attr = Attr(statement.table, col)
            out.where_attrs.add(attr)
            if isinstance(value, ast.Param):
                out.param_bindings.add((attr, value.name))
        return out
    _analyze_predicates(statement.where, bound.attrs, out)
    if isinstance(statement, ast.Update):
        for _, value in statement.assignments:
            for ref in ast.expr_columns(value):
                out.select_attrs.add(bound.attrs[ref])
    return out


def analyze_procedure(
    statements: list[ast.Statement], schema: DatabaseSchema
) -> StatementAnalysis:
    """Merge the analyses of all statements of one stored procedure.

    The merged ``accessed_attrs`` pool is what implicit-join discovery runs
    over: a key--foreign-key pair whose two sides both appear anywhere in
    the procedure's SELECT/WHERE attributes is treated as a (possible)
    join, exactly as Section 5.1 prescribes. False positives are pruned
    later by the trace-driven mapping-independence test.
    """
    merged = StatementAnalysis()
    for statement in statements:
        merged.merge(analyze_statement(statement, schema))
    return merged
