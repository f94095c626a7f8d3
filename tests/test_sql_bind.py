"""The binder: one scope rule for every reader, one binding per statement.

The analyzer, the dataflow pass and the executor all read a statement
through :func:`repro.sql.bind.bind`, so they accept and reject the same
references. A stored procedure binds each statement once per schema, and
executions after that resolve no column at all.
"""

import random
from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.core import JECBConfig, JECBPartitioner
from repro.engine import Executor
from repro.errors import AnalysisError, BindError, ExecutionError
from repro.procedures import StoredProcedure
from repro.schema.attribute import Attr
from repro.schema.database import DatabaseSchema
from repro.sql import ast
from repro.sql.analyzer import analyze_statement
from repro.sql.bind import bind
from repro.sql.dataflow import analyze_statements_dataflow
from repro.sql.parser import parse_statement
from repro.storage import Database
from repro.workloads.tatp import TatpBenchmark, TatpConfig

OUT_OF_FROM = (
    "SELECT S_ID FROM SUBSCRIBER WHERE SF_TYPE = 1",
    "SELECT S_ID FROM SUBSCRIBER WHERE SPECIAL_FACILITY.SF_TYPE = 1",
)


@pytest.fixture(scope="module")
def tatp_schema():
    return TatpBenchmark(TatpConfig(subscribers=20)).build_schema()


class TestScopeRule:
    @pytest.mark.parametrize("sql", OUT_OF_FROM)
    def test_analyzer_rejects_out_of_from(self, tatp_schema, sql):
        with pytest.raises(AnalysisError, match="SF_TYPE"):
            analyze_statement(parse_statement(sql), tatp_schema)

    @pytest.mark.parametrize("sql", OUT_OF_FROM)
    def test_dataflow_rejects_out_of_from(self, tatp_schema, sql):
        with pytest.raises(AnalysisError, match="SF_TYPE"):
            analyze_statements_dataflow([parse_statement(sql)], tatp_schema)

    @pytest.mark.parametrize("sql", OUT_OF_FROM)
    def test_executor_rejects_out_of_from(self, tatp_schema, sql):
        procedure = StoredProcedure("P", [], {"q": sql})
        with pytest.raises(ExecutionError, match="SF_TYPE"):
            procedure.execute(Executor(Database(tatp_schema)), {})

    def test_one_error_for_every_reader(self):
        assert issubclass(BindError, AnalysisError)
        assert issubclass(BindError, ExecutionError)

    def test_alias_hides_the_table_name(self, custinfo_schema):
        bound = bind(
            parse_statement("SELECT t.T_QTY FROM TRADE t WHERE t.T_ID = 1"),
            custinfo_schema,
        )
        assert bound.items == (Attr("TRADE", "T_QTY"),)
        with pytest.raises(BindError, match="not in FROM"):
            bind(
                parse_statement("SELECT T_QTY FROM TRADE t WHERE TRADE.T_ID = 1"),
                custinfo_schema,
            )

    def test_unknown_written_column(self, custinfo_schema):
        with pytest.raises(BindError, match="TRADE.NOPE"):
            bind(parse_statement("UPDATE TRADE SET NOPE = 1"), custinfo_schema)

    def test_self_join_analyzes_but_does_not_execute(
        self, custinfo_schema, figure1_db
    ):
        statement = parse_statement(
            "SELECT a.CA_C_ID FROM CUSTOMER_ACCOUNT a "
            "JOIN CUSTOMER_ACCOUNT b ON a.CA_ID = b.CA_C_ID"
        )
        analysis = analyze_statement(statement, custinfo_schema)
        assert analysis.tables == {"CUSTOMER_ACCOUNT"}
        bound = bind(statement, custinfo_schema)
        with pytest.raises(ExecutionError, match="self-joins"):
            Executor(figure1_db).execute(bound, {})


class TestPlan:
    def test_constrained_table_drives_the_join(self, custinfo_schema):
        bound = bind(
            parse_statement(
                "SELECT HS_QTY FROM HOLDING_SUMMARY join CUSTOMER_ACCOUNT "
                "on HS_CA_ID = CA_ID WHERE CA_C_ID = @c AND HS_QTY > 2"
            ),
            custinfo_schema,
        )
        first, second = bound.scans
        assert first.table == "CUSTOMER_ACCOUNT"
        assert first.probes == (("CA_C_ID", ast.Param("c")),)
        assert first.join_probes == ()
        assert second.table == "HOLDING_SUMMARY"
        assert second.join_probes == (
            ("HS_CA_ID", Attr("CUSTOMER_ACCOUNT", "CA_ID")),
        )
        assert len(second.filters) == 1

    def test_insert_select_pairs_columns(self, custinfo_schema):
        bound = bind(
            parse_statement(
                "INSERT INTO TRADE (T_ID, T_CA_ID, T_QTY) "
                "SELECT HS_QTY, HS_CA_ID, SUM(HS_QTY) FROM HOLDING_SUMMARY "
                "WHERE HS_CA_ID = @a"
            ),
            custinfo_schema,
        )
        assert bound.pairs == (
            (Attr("TRADE", "T_ID"), Attr("HOLDING_SUMMARY", "HS_QTY")),
            (Attr("TRADE", "T_CA_ID"), Attr("HOLDING_SUMMARY", "HS_CA_ID")),
            (Attr("TRADE", "T_QTY"), None),
        )

    def test_predicate_without_column_is_not_executable(
        self, custinfo_schema, figure1_db
    ):
        bound = bind(
            parse_statement("SELECT T_ID FROM TRADE WHERE 1 = 1"),
            custinfo_schema,
        )
        assert analyze_statement(bound.statement, custinfo_schema).tables == {
            "TRADE"
        }
        with pytest.raises(ExecutionError, match="references no column"):
            Executor(figure1_db).execute(bound, {})


class _CallRecorder:
    """Collector stand-in: records each call instead of executing it."""

    def __init__(self):
        self.calls = []

    def run(self, procedure, arguments):
        self.calls.append((procedure.name, dict(arguments)))


def _bare_references(statement):
    """(bare column, FROM tables) per scope, one per distinct reference."""
    if isinstance(statement, ast.Insert):
        if statement.select is None:
            return set()
        return _bare_references(statement.select)
    if isinstance(statement, ast.Select):
        scope = tuple(dict.fromkeys(statement.tables))
        refs = [item.expr for item in statement.items if item.expr.name != "*"]
        for join in statement.joins:
            refs += [join.left, join.right]
        if statement.order_by is not None:
            refs.append(statement.order_by.column)
    else:
        scope = (statement.table,)
        refs = []
        if isinstance(statement, ast.Update):
            for _, expr in statement.assignments:
                refs += ast.expr_columns(expr)
    for pred in statement.where:
        refs += ast.predicate_columns(pred)
    return {(ref.name, scope) for ref in refs if ref.table is None}


class TestBindOnce:
    def test_bound_form_is_cached(self, custinfo_procedure, custinfo_schema):
        label = next(iter(custinfo_procedure.sql_text))
        first = custinfo_procedure.bound(label, custinfo_schema)
        assert custinfo_procedure.bound(label, custinfo_schema) is first
        assert first.statement is custinfo_procedure.statement(label)

    def test_each_reference_resolves_once(self, monkeypatch):
        calls = Counter()
        resolve_column = DatabaseSchema.resolve_column

        def spy(self, column, among_tables=None):
            among = None if among_tables is None else tuple(among_tables)
            calls[(id(self), column, among)] += 1
            return resolve_column(self, column, among_tables)

        monkeypatch.setattr(DatabaseSchema, "resolve_column", spy)
        benchmark = TatpBenchmark(TatpConfig(subscribers=200))
        bundle = benchmark.generate(300, seed=5)
        schema_id = id(bundle.database.schema)
        allowed = Counter(
            (schema_id, name, scope)
            for procedure in bundle.catalog
            for statement in procedure.statements
            for name, scope in _bare_references(statement)
        )
        assert calls
        assert all(calls[key] <= allowed[key] for key in calls), calls - allowed

        # Advise, deploy and serve: the dataflow pass and every execution
        # read the bound forms the collector run cached.
        bound_so_far = sum(calls.values())
        result = JECBPartitioner(
            bundle.database, bundle.catalog, JECBConfig(num_partitions=4)
        ).run(bundle.trace)
        cluster = Cluster(bundle.database, bundle.catalog, result.partitioning)
        recorder = _CallRecorder()
        rng = random.Random(11)
        for _ in range(300):
            procedure = benchmark.pick_procedure(bundle.catalog, rng)
            benchmark.run_transaction(recorder, procedure, rng)
        for name, arguments in recorder.calls:
            cluster.execute(name, arguments)
        cluster.close()
        assert cluster.metrics.committed_local > 0
        assert sum(calls.values()) == bound_so_far
