"""Per-procedure def-use dataflow over stored-procedure SQL.

The per-statement analyzer (:mod:`repro.sql.analyzer`) approximates
implicit joins (Section 5.1, Example 3: a value SELECTed by one query
feeding a later query's WHERE through a variable) with a coarse pool —
any foreign key whose endpoints both appear among the procedure's
SELECT/WHERE attributes. This module replaces that pool with *witnessed*
value flow:

* ``SELECT @v = ATTR`` and ``INSERT ... SELECT`` create **definitions**
  (an attribute's value enters a variable),
* ``WHERE attr = @v``, ``attr IN @v`` and ``INSERT ... VALUES (@v)``
  create **uses** (a variable's value constrains an attribute),
* equalities over the same variable version, explicit ON/WHERE column
  equalities, and parameter equalities merge attribute/variable nodes in
  a union--find, and
* the resulting equivalence classes yield attribute-to-attribute
  **implicit-join edges**, each justified by a concrete variable or
  parameter flow.

Variables that are used by SQL but never defined by SQL nor declared as
parameters must be threaded by the procedure's Python glue (e.g. TPC-C
NewOrder's per-item ``@i_id`` loop variable). Their value can be any row
the glue read, so their uses are conservatively unified with every SELECT
output attribute of the procedure — which keeps the witnessed edges a
superset of the true flows while still a subset of the old SELECT×WHERE
pool.

The same chains give the router a **sound transitive parameter closure**:
``SELECT @v = A ... WHERE A = @p`` proves ``@v = @p`` for every execution
(zero rows leave ``@v`` NULL, which the router treats as unroutable), so a
later ``WHERE B = @v`` binds ``B`` to the declared parameter ``p``.

Every attribute the pass names comes from the statements' bound forms
(:mod:`repro.sql.bind`); :func:`analyze_dataflow` reads the procedure's
cached ones, so it resolves nothing its executions have not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.schema.attribute import Attr
from repro.schema.database import DatabaseSchema
from repro.sql import ast
from repro.sql.analyzer import StatementAnalysis, analyze_bound
from repro.sql.bind import BoundStatement, bind

if TYPE_CHECKING:
    from repro.procedures.procedure import StoredProcedure

__all__ = [
    "Definition",
    "Use",
    "ProcedureDataflow",
    "analyze_dataflow",
    "analyze_statements_dataflow",
]

#: Use kinds. ``EQ``/``IN_LIST``/``INSERT_VALUE`` witness value equality on
#: a match; ``RANGE`` and ``EXPR`` are reads that transform or merely bound
#: the value and never justify a join edge.
EQ = "eq"
IN_LIST = "in"
INSERT_VALUE = "insert-value"
RANGE = "range"
EXPR = "expr"

_EQUALITY_KINDS = frozenset({EQ, IN_LIST, INSERT_VALUE})


@dataclass(frozen=True)
class Definition:
    """One SQL definition of a variable (``@v = ...`` SELECT target)."""

    variable: str
    statement: int
    label: str
    sources: tuple[Attr, ...]
    aggregate: bool = False

    def __str__(self) -> str:
        srcs = ", ".join(str(a) for a in self.sources) or "<constant>"
        via = f"{'aggregate over ' if self.aggregate else ''}{srcs}"
        return f"@{self.variable} := {via} [{self.label}]"


@dataclass(frozen=True)
class Use:
    """One SQL read of a variable/parameter, tied to an attribute."""

    variable: str
    statement: int
    label: str
    attr: Attr | None
    kind: str

    @property
    def is_equality(self) -> bool:
        return self.kind in _EQUALITY_KINDS and self.attr is not None

    def __str__(self) -> str:
        target = str(self.attr) if self.attr is not None else "<expr>"
        return f"@{self.variable} ~{self.kind}~ {target} [{self.label}]"


class _UnionFind:
    """Union--find over hashable nodes (attrs and variable versions)."""

    def __init__(self) -> None:
        self._parent: dict[object, object] = {}

    def find(self, node: object) -> object:
        parent = self._parent.setdefault(node, node)
        if parent == node:
            return node
        root = self.find(parent)
        self._parent[node] = root
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def classes(self) -> list[set[object]]:
        groups: dict[object, set[object]] = {}
        for node in list(self._parent):
            groups.setdefault(self.find(node), set()).add(node)
        return list(groups.values())


@dataclass
class ProcedureDataflow:
    """Everything the def-use pass learned about one procedure's SQL."""

    procedure_name: str
    params: tuple[str, ...]
    labels: tuple[str, ...]
    statements: tuple[ast.Statement, ...]
    analyses: tuple[StatementAnalysis, ...]
    straight_line: bool
    definitions: tuple[Definition, ...] = ()
    uses: tuple[Use, ...] = ()
    #: variables used by SQL, never defined by SQL, not declared — they can
    #: only be threaded by Python glue.
    unknown_locals: frozenset[str] = frozenset()
    #: definitions whose value no SQL statement ever reads.
    dead_definitions: tuple[Definition, ...] = ()
    #: witnessed attribute-to-attribute equality edges (unordered pairs).
    implicit_edges: frozenset[frozenset[Attr]] = frozenset()
    #: (attr, declared-param) pairs proven by transitive variable equality,
    #: beyond the analyzer's direct bindings.
    transitive_bindings: frozenset[tuple[Attr, str]] = frozenset()
    _merged: StatementAnalysis | None = field(default=None, repr=False)

    @property
    def merged(self) -> StatementAnalysis:
        """Whole-procedure analysis, identical to ``analyze_procedure``."""
        if self._merged is None:
            merged = StatementAnalysis()
            for analysis in self.analyses:
                merged.merge(analysis)
            self._merged = merged
        return self._merged

    @property
    def param_closure(self) -> frozenset[tuple[Attr, str]]:
        """Direct analyzer bindings plus the sound transitive closure."""
        return frozenset(self.merged.param_bindings) | self.transitive_bindings

    def witnesses_pair(self, pair: frozenset[Attr]) -> bool:
        """Is the unordered attribute *pair* a witnessed equality edge?"""
        return pair in self.implicit_edges


# ----------------------------------------------------------------------
# statement walks
# ----------------------------------------------------------------------
def _expr_params(expr: ast.Expr) -> tuple[str, ...]:
    if isinstance(expr, ast.Param):
        return (expr.name,)
    if isinstance(expr, ast.BinaryOp):
        return _expr_params(expr.left) + _expr_params(expr.right)
    return ()


def _predicate_uses(
    predicates: tuple[ast.Predicate, ...],
    attrs: Mapping[ast.ColumnRef, Attr],
    index: int,
    label: str,
) -> tuple[list[Use], list[frozenset[Attr]]]:
    """Variable uses plus explicit column equalities of a WHERE clause."""
    uses: list[Use] = []
    equalities: list[frozenset[Attr]] = []
    for pred in predicates:
        if isinstance(pred, ast.Comparison):
            ref, other = pred.left, pred.right
            if not isinstance(ref, ast.ColumnRef):
                ref, other = other, ref
            if not isinstance(ref, ast.ColumnRef):
                for side in (pred.left, pred.right):
                    for name in _expr_params(side):
                        uses.append(Use(name, index, label, None, EXPR))
                continue
            attr = attrs[ref]
            if isinstance(other, ast.ColumnRef):
                if pred.op == "=" and attrs[other] != attr:
                    equalities.append(frozenset({attr, attrs[other]}))
            elif isinstance(other, ast.Param):
                kind = EQ if pred.op == "=" else RANGE
                uses.append(Use(other.name, index, label, attr, kind))
            else:
                for name in _expr_params(other):
                    uses.append(Use(name, index, label, attr, EXPR))
        elif isinstance(pred, ast.InPredicate):
            attr = attrs[pred.column]
            if pred.param is not None:
                uses.append(Use(pred.param.name, index, label, attr, IN_LIST))
            for value in pred.values or ():
                if isinstance(value, ast.Param):
                    # A scalar element of the list: equality on a match.
                    uses.append(Use(value.name, index, label, attr, EQ))
        else:  # BetweenPredicate
            attr = attrs[pred.column]
            for side in (pred.low, pred.high):
                for name in _expr_params(side):
                    uses.append(Use(name, index, label, attr, RANGE))
    return uses, equalities


def _statement_flows(
    bound: BoundStatement, index: int, label: str
) -> tuple[list[Definition], list[Use], list[frozenset[Attr]]]:
    """Definitions, uses, and explicit equalities of one statement."""
    statement = bound.statement
    defs: list[Definition] = []
    uses: list[Use] = []
    equalities: list[frozenset[Attr]] = []
    if isinstance(statement, ast.Select):
        for join in statement.joins:
            a, b = bound.attrs[join.left], bound.attrs[join.right]
            if a != b:
                equalities.append(frozenset({a, b}))
        w_uses, w_eq = _predicate_uses(
            statement.where, bound.attrs, index, label
        )
        uses.extend(w_uses)
        equalities.extend(w_eq)
        for item, source in zip(statement.items, bound.items):
            if item.assign_to is None:
                continue
            defs.append(
                Definition(
                    item.assign_to,
                    index,
                    label,
                    () if source is None else (source,),
                    aggregate=item.aggregate is not None,
                )
            )
    elif isinstance(statement, ast.Insert):
        if bound.source is not None:
            sub_defs, sub_uses, sub_eq = _statement_flows(
                bound.source, index, label
            )
            defs.extend(sub_defs)
            uses.extend(sub_uses)
            equalities.extend(sub_eq)
            for attr, src in bound.pairs:
                if src is not None and src != attr:
                    equalities.append(frozenset({attr, src}))
        for col, value in zip(statement.columns, statement.values):
            attr = Attr(statement.table, col)
            if isinstance(value, ast.Param):
                uses.append(Use(value.name, index, label, attr, INSERT_VALUE))
            else:
                for name in _expr_params(value):
                    uses.append(Use(name, index, label, attr, EXPR))
    else:
        w_uses, w_eq = _predicate_uses(
            statement.where, bound.attrs, index, label
        )
        uses.extend(w_uses)
        equalities.extend(w_eq)
        if isinstance(statement, ast.Update):
            for col, value in statement.assignments:
                attr = Attr(statement.table, col)
                for name in _expr_params(value):
                    # SET col = f(@v) writes a transformed value: a read,
                    # but never an equality witness (col is not even a
                    # WHERE attr).
                    uses.append(Use(name, index, label, attr, EXPR))
    return defs, uses, equalities


# ----------------------------------------------------------------------
# the dataflow pass
# ----------------------------------------------------------------------
def _var_node(name: str, version: int | str) -> tuple[str, str, int | str]:
    return ("var", name, version)


def analyze_statements_dataflow(
    statements: Sequence[ast.Statement],
    schema: DatabaseSchema,
    params: Sequence[str] = (),
    labels: Sequence[str] | None = None,
    straight_line: bool = True,
    name: str = "<anonymous>",
) -> ProcedureDataflow:
    """Run the def-use pass over an explicit statement list.

    ``straight_line=True`` models a procedure without glue: statements run
    once, in order, so a definition reaches only *later* uses and
    re-assignment starts a fresh variable version. With glue
    (``straight_line=False``) statements may run repeatedly in any order,
    so all versions of a variable conservatively collapse into one node.
    """
    labels = (
        list(labels)
        if labels is not None
        else [f"stmt{i}" for i in range(len(statements))]
    )
    if len(labels) != len(statements):
        raise ValueError("labels/statements length mismatch")
    return _bound_dataflow(
        [bind(statement, schema) for statement in statements],
        params,
        labels,
        straight_line,
        name,
    )


def _bound_dataflow(
    bound: Sequence[BoundStatement],
    params: Sequence[str],
    labels: Sequence[str],
    straight_line: bool,
    name: str,
) -> ProcedureDataflow:
    analyses = tuple(analyze_bound(b) for b in bound)
    per_statement: list[
        tuple[list[Definition], list[Use], list[frozenset[Attr]]]
    ] = [
        _statement_flows(b, i, labels[i]) for i, b in enumerate(bound)
    ]
    all_defs = [d for defs, _, _ in per_statement for d in defs]
    all_uses = [u for _, uses, _ in per_statement for u in uses]

    declared = frozenset(params)
    defined = frozenset(d.variable for d in all_defs)
    unknown = frozenset(
        u.variable for u in all_uses if u.variable not in declared
    ) - defined

    uf = _UnionFind()
    current: dict[str, object] = {
        p: _var_node(p, 0) for p in declared
    }
    versions: dict[str, int] = {}

    def node_for_use(variable: str) -> object:
        node = current.get(variable)
        if node is None:
            # Used before any definition: only glue (or nothing) can have
            # written it — one shared node per such variable.
            node = _var_node(variable, "?")
            current[variable] = node
        return node

    for index, (defs, uses, equalities) in enumerate(per_statement):
        for pair in equalities:
            a, b = tuple(pair)
            uf.union(a, b)
        # Reads happen against the pre-statement environment...
        for use in uses:
            node = node_for_use(use.variable)
            if use.is_equality:
                assert use.attr is not None
                uf.union(use.attr, node)
        # ...and definitions update it afterwards.
        for definition in defs:
            variable = definition.variable
            if straight_line:
                version = versions.get(variable, 0) + 1
                versions[variable] = version
                node = _var_node(variable, version)
                current[variable] = node
            else:
                node = node_for_use(variable)
            if not definition.aggregate:
                for source in definition.sources:
                    uf.union(source, node)

    # Glue-threaded locals: their value is some row the glue read from a
    # SELECT, so conservatively unify with every SELECT output attribute.
    if not straight_line and unknown:
        outputs: set[Attr] = set()
        for analysis in analyses:
            outputs |= analysis.select_attrs
        for variable in unknown:
            node = current.get(variable) or _var_node(variable, "?")
            for attr in outputs:
                uf.union(attr, node)

    implicit: set[frozenset[Attr]] = set()
    for group in uf.classes():
        attrs = sorted(a for a in group if isinstance(a, Attr))
        for i, a in enumerate(attrs):
            for b in attrs[i + 1 :]:
                implicit.add(frozenset({a, b}))

    transitive = _transitive_bindings(
        per_statement, analyses, declared, defined, straight_line
    )
    dead = _dead_definitions(all_defs, all_uses, straight_line)

    return ProcedureDataflow(
        procedure_name=name,
        params=tuple(params),
        labels=tuple(labels),
        statements=tuple(b.statement for b in bound),
        analyses=analyses,
        straight_line=straight_line,
        definitions=tuple(all_defs),
        uses=tuple(all_uses),
        unknown_locals=unknown,
        dead_definitions=dead,
        implicit_edges=frozenset(implicit),
        transitive_bindings=transitive,
    )


def _transitive_bindings(
    per_statement: Sequence[
        tuple[list[Definition], list[Use], list[frozenset[Attr]]]
    ],
    analyses: Sequence[StatementAnalysis],
    declared: frozenset[str],
    defined: frozenset[str],
    straight_line: bool,
) -> frozenset[tuple[Attr, str]]:
    """Sound (attr, declared-param) pairs via statement-local equalities.

    A definition ``SELECT @v = A ... WHERE A = @p`` (no aggregate) proves
    ``@v = p`` on every execution that yields rows; zero rows leave ``@v``
    NULL, which the router already treats as unroutable. In glue mode a
    variable defined by several statements only keeps the parameters *all*
    its definitions prove (the glue may run any of them last).
    """
    # Equality constraints per statement: attr -> params equated to it.
    stmt_eq: list[dict[Attr, set[str]]] = []
    for index, (_, uses, _) in enumerate(per_statement):
        eq: dict[Attr, set[str]] = {}
        for use in uses:
            if use.kind == EQ and use.attr is not None:
                eq.setdefault(use.attr, set()).add(use.variable)
        stmt_eq.append(eq)

    def resolve(names: set[str], var_eq: dict[str, set[str]]) -> set[str]:
        out: set[str] = set()
        for nm in names:
            if nm in declared:
                out.add(nm)
            else:
                out |= var_eq.get(nm, set())
        return out

    var_eq: dict[str, set[str]] = {}
    rounds = 1 if straight_line else len(per_statement) + 1
    for _ in range(rounds):
        changed = False
        proven: dict[str, list[set[str]]] = {}
        for index, (defs, _, _) in enumerate(per_statement):
            for definition in defs:
                if definition.aggregate or len(definition.sources) != 1:
                    params_here: set[str] = set()
                else:
                    source = definition.sources[0]
                    params_here = resolve(
                        stmt_eq[index].get(source, set()), var_eq
                    )
                if straight_line:
                    var_eq[definition.variable] = params_here
                else:
                    proven.setdefault(definition.variable, []).append(
                        params_here
                    )
        if not straight_line:
            for variable, sets in proven.items():
                agreed = set.intersection(*sets) if sets else set()
                if var_eq.get(variable, set()) != agreed:
                    var_eq[variable] = agreed
                    changed = True
            if not changed:
                break

    direct: set[tuple[Attr, str]] = set()
    for analysis in analyses:
        direct |= analysis.param_bindings
    out: set[tuple[Attr, str]] = set()
    for index, (_, uses, _) in enumerate(per_statement):
        for use in uses:
            if use.kind not in (EQ, INSERT_VALUE) or use.attr is None:
                continue
            if use.variable in declared or use.variable not in defined:
                continue
            if straight_line and not _defined_before(
                per_statement, use.variable, index
            ):
                continue
            for param in var_eq.get(use.variable, ()):  # proven equal
                pair = (use.attr, param)
                if pair not in direct:
                    out.add(pair)
    return frozenset(out)


def _defined_before(
    per_statement: Sequence[
        tuple[list[Definition], list[Use], list[frozenset[Attr]]]
    ],
    variable: str,
    index: int,
) -> bool:
    for defs, _, _ in per_statement[:index]:
        if any(d.variable == variable for d in defs):
            return True
    return False


def _dead_definitions(
    defs: Sequence[Definition],
    uses: Sequence[Use],
    straight_line: bool,
) -> tuple[Definition, ...]:
    dead: list[Definition] = []
    for definition in defs:
        later = [u for u in uses if u.variable == definition.variable]
        if straight_line:
            redefs = [
                d.statement
                for d in defs
                if d.variable == definition.variable
                and d.statement > definition.statement
            ]
            horizon = min(redefs) if redefs else None
            later = [
                u
                for u in later
                if u.statement > definition.statement
                and (horizon is None or u.statement <= horizon)
            ]
        if not later:
            dead.append(definition)
    return tuple(dead)


def analyze_dataflow(
    procedure: StoredProcedure, schema: DatabaseSchema
) -> ProcedureDataflow:
    """Def-use dataflow for a :class:`repro.procedures.StoredProcedure`.

    Reads the procedure's cached bound statements, so the pass resolves
    no column the procedure's executions have not already resolved.
    """
    labels = list(procedure.sql_text)
    return _bound_dataflow(
        [procedure.bound(label, schema) for label in labels],
        procedure.params,
        labels,
        procedure.body is None,
        procedure.name,
    )
