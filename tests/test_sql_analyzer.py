"""Unit tests for the static SQL analyzer (the "CB" in JECB)."""

import pytest

from repro.errors import AnalysisError
from repro.schema import Attr
from repro.sql import analyze_procedure, analyze_statement
from repro.sql.parser import parse_statement


def analyze(sql, schema):
    return analyze_statement(parse_statement(sql), schema)


class TestSelectAnalysis:
    def test_tables_and_select_attrs(self, custinfo_schema):
        result = analyze("SELECT T_QTY FROM TRADE", custinfo_schema)
        assert result.tables == {"TRADE"}
        assert result.select_attrs == {Attr("TRADE", "T_QTY")}
        assert result.writes == set()

    def test_where_attrs_are_candidates(self, custinfo_schema):
        result = analyze(
            "SELECT T_QTY FROM TRADE WHERE T_ID = @t", custinfo_schema
        )
        assert result.candidate_attrs == {Attr("TRADE", "T_ID")}

    def test_param_binding_recorded(self, custinfo_schema):
        result = analyze(
            "SELECT T_QTY FROM TRADE WHERE T_ID = @t", custinfo_schema
        )
        assert (Attr("TRADE", "T_ID"), "t") in result.param_bindings

    def test_param_binding_reversed_sides(self, custinfo_schema):
        result = analyze(
            "SELECT T_QTY FROM TRADE WHERE @t = T_ID", custinfo_schema
        )
        assert (Attr("TRADE", "T_ID"), "t") in result.param_bindings

    def test_in_param_binding(self, custinfo_schema):
        result = analyze(
            "SELECT T_QTY FROM TRADE WHERE T_ID IN @ids", custinfo_schema
        )
        assert (Attr("TRADE", "T_ID"), "ids") in result.param_bindings

    def test_explicit_join_from_on_clause(self, custinfo_schema):
        result = analyze(
            "SELECT HS_QTY FROM HOLDING_SUMMARY join CUSTOMER_ACCOUNT "
            "on HS_CA_ID = CA_ID WHERE CA_C_ID = @c",
            custinfo_schema,
        )
        pair = frozenset(
            {Attr("HOLDING_SUMMARY", "HS_CA_ID"), Attr("CUSTOMER_ACCOUNT", "CA_ID")}
        )
        assert pair in result.explicit_joins
        assert result.tables == {"HOLDING_SUMMARY", "CUSTOMER_ACCOUNT"}

    def test_explicit_join_from_where_equality(self, custinfo_schema):
        result = analyze(
            "SELECT T_QTY FROM TRADE join CUSTOMER_ACCOUNT on T_CA_ID = CA_ID "
            "WHERE T_CA_ID = CA_ID",
            custinfo_schema,
        )
        pair = frozenset(
            {Attr("TRADE", "T_CA_ID"), Attr("CUSTOMER_ACCOUNT", "CA_ID")}
        )
        assert pair in result.explicit_joins

    def test_unknown_table_rejected(self, custinfo_schema):
        with pytest.raises(AnalysisError):
            analyze("SELECT NOPE.X FROM TRADE", custinfo_schema)

    def test_unknown_qualified_column_rejected(self, custinfo_schema):
        with pytest.raises(AnalysisError):
            analyze("SELECT TRADE.NOPE FROM TRADE", custinfo_schema)

    def test_star_contributes_no_select_attrs(self, custinfo_schema):
        result = analyze("SELECT * FROM TRADE", custinfo_schema)
        assert result.select_attrs == set()


class TestWriteAnalysis:
    def test_insert(self, custinfo_schema):
        result = analyze(
            "INSERT INTO TRADE (T_ID, T_CA_ID, T_QTY) VALUES (@t, @ca, 1)",
            custinfo_schema,
        )
        assert result.writes == {"TRADE"}
        # inserted key columns behave like WHERE attributes
        assert Attr("TRADE", "T_CA_ID") in result.where_attrs
        assert (Attr("TRADE", "T_CA_ID"), "ca") in result.param_bindings

    def test_insert_unknown_column(self, custinfo_schema):
        with pytest.raises(AnalysisError):
            analyze("INSERT INTO TRADE (NOPE) VALUES (1)", custinfo_schema)

    def test_update(self, custinfo_schema):
        result = analyze(
            "UPDATE TRADE SET T_QTY = T_QTY + 1 WHERE T_CA_ID = @ca",
            custinfo_schema,
        )
        assert result.writes == {"TRADE"}
        assert Attr("TRADE", "T_CA_ID") in result.where_attrs
        # columns read by the SET expression are select attrs
        assert Attr("TRADE", "T_QTY") in result.select_attrs

    def test_update_unknown_set_column(self, custinfo_schema):
        with pytest.raises(AnalysisError):
            analyze("UPDATE TRADE SET NOPE = 1", custinfo_schema)

    def test_delete(self, custinfo_schema):
        result = analyze(
            "DELETE FROM TRADE WHERE T_ID = @t", custinfo_schema
        )
        assert result.writes == {"TRADE"}
        assert Attr("TRADE", "T_ID") in result.where_attrs


class TestProcedureAnalysis:
    def test_custinfo_merged(self, custinfo_schema, custinfo_procedure):
        result = analyze_procedure(
            custinfo_procedure.statements, custinfo_schema
        )
        assert result.tables == {
            "TRADE", "CUSTOMER_ACCOUNT", "HOLDING_SUMMARY",
        }
        assert result.writes == {"TRADE"}
        assert len(result.explicit_joins) == 2

    def test_implicit_join_discovery_pool(self, custinfo_schema):
        # Example 3's rewritten form: a value selected by one query is
        # used in another's WHERE; both attributes land in accessed_attrs.
        statements = [
            parse_statement(
                "SELECT @acct = T_CA_ID FROM TRADE WHERE T_ID = @t"
            ),
            parse_statement(
                "SELECT CA_C_ID FROM CUSTOMER_ACCOUNT WHERE CA_ID = @acct"
            ),
        ]
        result = analyze_procedure(statements, custinfo_schema)
        assert Attr("TRADE", "T_CA_ID") in result.accessed_attrs
        assert Attr("CUSTOMER_ACCOUNT", "CA_ID") in result.accessed_attrs
        # but T_CA_ID is select-only, hence not a candidate attribute
        assert Attr("TRADE", "T_CA_ID") not in result.candidate_attrs


class TestAliasResolution:
    """Aliases resolve in the binder, through the FROM clause's alias map."""

    def test_from_alias_qualifier(self, custinfo_schema):
        result = analyze(
            "SELECT t.T_QTY FROM TRADE t WHERE t.T_ID = @t", custinfo_schema
        )
        assert result.select_attrs == {Attr("TRADE", "T_QTY")}
        assert result.param_bindings == {(Attr("TRADE", "T_ID"), "t")}

    def test_join_aliases_on_both_on_sides(self, custinfo_schema):
        result = analyze(
            "SELECT c.C_TAX_ID FROM CUSTOMER c "
            "JOIN CUSTOMER_ACCOUNT ca ON ca.CA_C_ID = c.C_ID "
            "WHERE ca.CA_ID = @a",
            custinfo_schema,
        )
        assert result.explicit_joins == {
            frozenset(
                {Attr("CUSTOMER_ACCOUNT", "CA_C_ID"), Attr("CUSTOMER", "C_ID")}
            )
        }
        assert result.param_bindings == {
            (Attr("CUSTOMER_ACCOUNT", "CA_ID"), "a")
        }

    def test_aliased_self_join_resolves_both_sides(self, custinfo_schema):
        result = analyze(
            "SELECT a.CA_C_ID FROM CUSTOMER_ACCOUNT a "
            "JOIN CUSTOMER_ACCOUNT b ON a.CA_ID = b.CA_C_ID "
            "WHERE b.CA_ID = @x",
            custinfo_schema,
        )
        assert result.tables == {"CUSTOMER_ACCOUNT"}
        assert result.explicit_joins == {
            frozenset(
                {
                    Attr("CUSTOMER_ACCOUNT", "CA_ID"),
                    Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
                }
            )
        }

    def test_self_join_same_column_adds_no_degenerate_pair(
        self, custinfo_schema
    ):
        # ON a.CA_ID = b.CA_ID dealiases to the same attribute on both
        # sides; a singleton "pair" must not enter explicit_joins.
        result = analyze(
            "SELECT a.CA_C_ID FROM CUSTOMER_ACCOUNT a "
            "JOIN CUSTOMER_ACCOUNT b ON a.CA_ID = b.CA_ID",
            custinfo_schema,
        )
        assert result.explicit_joins == set()
        assert Attr("CUSTOMER_ACCOUNT", "CA_ID") in result.where_attrs

    def test_alias_shadowing_other_table_name(self, custinfo_schema):
        # The alias TRADE shadows the real TRADE table inside this SELECT.
        result = analyze(
            "SELECT TRADE.CA_C_ID FROM CUSTOMER_ACCOUNT TRADE "
            "WHERE TRADE.CA_ID = @a",
            custinfo_schema,
        )
        assert result.tables == {"CUSTOMER_ACCOUNT"}
        assert result.select_attrs == {Attr("CUSTOMER_ACCOUNT", "CA_C_ID")}


class TestAnalyzerEdgeCases:
    def test_in_list_mixed_params_and_literals(self, custinfo_schema):
        result = analyze(
            "SELECT T_QTY FROM TRADE WHERE T_ID IN (1, @a, 2, @b)",
            custinfo_schema,
        )
        assert result.param_bindings == {
            (Attr("TRADE", "T_ID"), "a"),
            (Attr("TRADE", "T_ID"), "b"),
        }
        assert Attr("TRADE", "T_ID") in result.where_attrs

    def test_subquery_from_rejected(self, custinfo_schema):
        from repro.errors import SQLSyntaxError

        with pytest.raises(SQLSyntaxError, match="subqueries in FROM"):
            parse_statement("SELECT A FROM (SELECT A FROM T) s")

    def test_insert_select(self, custinfo_schema):
        result = analyze(
            "INSERT INTO TRADE (T_ID, T_CA_ID) "
            "SELECT HS_QTY, HS_CA_ID FROM HOLDING_SUMMARY "
            "WHERE HS_S_SYMB = @s",
            custinfo_schema,
        )
        assert result.tables == {"TRADE", "HOLDING_SUMMARY"}
        assert result.writes == {"TRADE"}
        # Each inserted column equals its source item: explicit value flow.
        assert (
            frozenset(
                {Attr("TRADE", "T_CA_ID"), Attr("HOLDING_SUMMARY", "HS_CA_ID")}
            )
            in result.explicit_joins
        )
        assert (
            frozenset(
                {Attr("TRADE", "T_ID"), Attr("HOLDING_SUMMARY", "HS_QTY")}
            )
            in result.explicit_joins
        )
        assert result.param_bindings == {
            (Attr("HOLDING_SUMMARY", "HS_S_SYMB"), "s")
        }

    def test_insert_select_aggregate_is_not_a_join(self, custinfo_schema):
        result = analyze(
            "INSERT INTO TRADE (T_ID) "
            "SELECT SUM(HS_QTY) FROM HOLDING_SUMMARY WHERE HS_CA_ID = @ca",
            custinfo_schema,
        )
        # The aggregate transforms the value, so no equality edge appears.
        assert result.explicit_joins == set()
        assert Attr("TRADE", "T_ID") in result.where_attrs

    def test_insert_select_arity_mismatch_rejected(self, custinfo_schema):
        from repro.errors import SQLSyntaxError

        with pytest.raises(SQLSyntaxError, match="columns but the SELECT"):
            parse_statement(
                "INSERT INTO TRADE (T_ID, T_CA_ID) "
                "SELECT HS_QTY FROM HOLDING_SUMMARY"
            )

    def test_insert_select_star_rejected(self, custinfo_schema):
        from repro.errors import SQLSyntaxError

        with pytest.raises(SQLSyntaxError, match="cannot use"):
            parse_statement(
                "INSERT INTO TRADE (T_ID) SELECT * FROM HOLDING_SUMMARY"
            )

    def test_update_self_referencing_set(self, custinfo_schema):
        result = analyze(
            "UPDATE TRADE SET T_QTY = T_QTY + @d WHERE T_ID = @t",
            custinfo_schema,
        )
        assert result.writes == {"TRADE"}
        # The read of the old T_QTY lands in select_attrs, not where_attrs:
        # it cannot serve as a partitioning candidate.
        assert Attr("TRADE", "T_QTY") in result.select_attrs
        assert Attr("TRADE", "T_QTY") not in result.where_attrs
        assert result.param_bindings == {(Attr("TRADE", "T_ID"), "t")}
