"""SQL front-end: tokenizer, parser, AST, and static analyzer.

The dialect covers what OLTP stored procedures in the TPC benchmarks use:
parameterized SELECT (with joins, aggregates, ORDER BY/LIMIT and T-SQL style
``@var =`` assignment targets), INSERT, UPDATE, and DELETE, with conjunctive
WHERE clauses over ``=, <, <=, >, >=, <>``, ``IN`` and ``BETWEEN``.

The binder (:func:`repro.sql.bind.bind`) resolves every column of a parsed
statement once and plans it; two consumers share that bound form:

* the query executor (:mod:`repro.engine`) runs bound statements to drive
  benchmarks and collect traces, and
* the static analyzer (:mod:`repro.sql.analyzer`) extracts accessed tables,
  candidate partitioning attributes and explicit/implicit key--foreign-key
  joins — the "code-based" input to JECB's Phase 2.
"""

from repro.sql.parser import parse_statement, parse_script
from repro.sql.analyzer import StatementAnalysis, analyze_statement, analyze_procedure

__all__ = [
    "parse_statement",
    "parse_script",
    "StatementAnalysis",
    "analyze_statement",
    "analyze_procedure",
]
