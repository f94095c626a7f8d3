"""Tests for the DDL front-end and trace persistence."""

import io

import pytest

from repro.errors import SQLSyntaxError, WorkloadError
from repro.schema import Attr, DataType
from repro.sql.ddl import parse_ddl
from repro.trace import Trace
from repro.trace.events import TransactionTrace
from repro.trace.persistence import (
    dump_trace,
    load_trace,
    load_trace_file,
    save_trace_file,
    transaction_from_dict,
    transaction_to_dict,
)

CUSTINFO_DDL = """
CREATE TABLE CUSTOMER (
    C_ID BIGINT NOT NULL,
    C_TAX_ID BIGINT,
    PRIMARY KEY (C_ID)
);

CREATE TABLE CUSTOMER_ACCOUNT (
    CA_ID BIGINT PRIMARY KEY,
    CA_C_ID BIGINT NOT NULL,
    FOREIGN KEY (CA_C_ID) REFERENCES CUSTOMER (C_ID)
);

CREATE TABLE TRADE (
    T_ID BIGINT,
    T_CA_ID BIGINT,
    T_QTY INTEGER,
    PRIMARY KEY (T_ID),
    FOREIGN KEY (T_CA_ID) REFERENCES CUSTOMER_ACCOUNT (CA_ID)
);

CREATE TABLE HOLDING_SUMMARY (
    HS_S_SYMB VARCHAR(15),
    HS_CA_ID BIGINT,
    HS_QTY INTEGER,
    PRIMARY KEY (HS_S_SYMB, HS_CA_ID),
    FOREIGN KEY (HS_CA_ID) REFERENCES CUSTOMER_ACCOUNT (CA_ID)
);
"""


class TestDdlParser:
    def test_tables_and_keys(self):
        schema = parse_ddl(CUSTINFO_DDL, "custinfo")
        assert set(schema.table_names) == {
            "CUSTOMER", "CUSTOMER_ACCOUNT", "TRADE", "HOLDING_SUMMARY",
        }
        assert schema.table("TRADE").primary_key == ("T_ID",)
        assert schema.table("HOLDING_SUMMARY").primary_key == (
            "HS_S_SYMB", "HS_CA_ID",
        )

    def test_inline_primary_key(self):
        schema = parse_ddl(CUSTINFO_DDL)
        assert schema.table("CUSTOMER_ACCOUNT").primary_key == ("CA_ID",)

    def test_foreign_keys(self):
        schema = parse_ddl(CUSTINFO_DDL)
        fk = schema.foreign_key_for({Attr("TRADE", "T_CA_ID")})
        assert fk is not None and fk.ref_table == "CUSTOMER_ACCOUNT"
        assert len(list(schema.foreign_keys())) == 3

    def test_types_and_nullability(self):
        schema = parse_ddl(CUSTINFO_DDL)
        column = schema.table("HOLDING_SUMMARY").column("HS_S_SYMB")
        assert column.data_type is DataType.TEXT
        assert not schema.table("CUSTOMER").column("C_ID").nullable
        assert schema.table("CUSTOMER").column("C_TAX_ID").nullable

    def test_type_precision_swallowed(self):
        schema = parse_ddl(
            "CREATE TABLE T (A DECIMAL(8, 2), PRIMARY KEY (A));"
        )
        assert schema.table("T").column("A").data_type is DataType.FLOAT

    def test_forward_reference_resolved(self):
        ddl = """
        CREATE TABLE CHILD (
            B_ID INT, B_A_ID INT,
            PRIMARY KEY (B_ID),
            FOREIGN KEY (B_A_ID) REFERENCES PARENT (A_ID)
        );
        CREATE TABLE PARENT (A_ID INT, PRIMARY KEY (A_ID));
        """
        schema = parse_ddl(ddl)
        assert len(list(schema.foreign_keys())) == 1

    def test_missing_primary_key_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_ddl("CREATE TABLE T (A INT);")

    def test_unknown_type_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_ddl("CREATE TABLE T (A BLOB, PRIMARY KEY (A));")

    def test_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_ddl("DROP TABLE T;")

    def test_ddl_schema_drives_jecb(self):
        """End to end: the DDL-derived schema behaves like the built one."""
        from repro.core.pathfinder import enumerate_paths

        schema = parse_ddl(CUSTINFO_DDL)
        paths = enumerate_paths(
            schema,
            frozenset(schema.primary_key_attrs("TRADE")),
            Attr("CUSTOMER_ACCOUNT", "CA_C_ID"),
        )
        assert len(paths) == 1


class TestTracePersistence:
    def make_trace(self):
        a = TransactionTrace(1, "ClassA")
        a.record("T", (1,), False)
        a.record("U", (2, 3), True)
        b = TransactionTrace(2, "ClassB")
        b.record("T", (4,), False)
        return Trace([a, b])

    def test_round_trip_stream(self):
        trace = self.make_trace()
        buffer = io.StringIO()
        assert dump_trace(trace, buffer) == 2
        buffer.seek(0)
        restored = load_trace(buffer)
        assert len(restored) == 2
        assert restored.transactions[0].tuples == trace.transactions[0].tuples
        assert restored.transactions[0].write_set == {("U", (2, 3))}
        assert restored.class_names == ["ClassA", "ClassB"]

    def test_round_trip_file(self, tmp_path):
        trace = self.make_trace()
        path = str(tmp_path / "trace.jsonl")
        save_trace_file(trace, path)
        restored = load_trace_file(path)
        assert len(restored) == len(trace)

    def test_keys_restored_as_tuples(self):
        data = transaction_to_dict(self.make_trace().transactions[0])
        restored = transaction_from_dict(data)
        assert all(isinstance(key, tuple) for _, key, _ in restored.accesses)

    def test_blank_lines_skipped(self):
        buffer = io.StringIO('\n{"id": 1, "class": "c", "a": []}\n\n')
        assert len(load_trace(buffer)) == 1

    def test_invalid_json_rejected(self):
        with pytest.raises(WorkloadError):
            load_trace(io.StringIO("not json\n"))

    def test_malformed_record_rejected(self):
        with pytest.raises(WorkloadError):
            load_trace(io.StringIO('{"id": 1}\n'))

    def test_arguments_round_trip(self):
        txn = TransactionTrace(7, "CustInfo")
        txn.record("TRADE", (1,), False)
        txn.arguments = {"cust_id": 1, "any_account": 7}
        data = transaction_to_dict(txn)
        assert data["args"] == {"cust_id": 1, "any_account": 7}
        restored = transaction_from_dict(data)
        assert restored.arguments == {"cust_id": 1, "any_account": 7}

    def test_arguments_omitted_when_absent(self):
        data = transaction_to_dict(self.make_trace().transactions[0])
        assert "args" not in data
        assert transaction_from_dict(data).arguments is None

    def test_non_object_args_rejected(self):
        data = transaction_to_dict(self.make_trace().transactions[0])
        data["args"] = [1, 2]
        with pytest.raises(WorkloadError, match="args"):
            transaction_from_dict(data)

    def test_round_trip_preserves_evaluator_cost(self, custinfo_workload):
        """A persisted trace scores identically to the live one."""
        import io as _io

        from repro.core import JECBConfig, JECBPartitioner
        from repro.evaluation import PartitioningEvaluator

        database, catalog, trace = custinfo_workload
        buffer = _io.StringIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        restored = load_trace(buffer)
        result = JECBPartitioner(
            database, catalog, JECBConfig(num_partitions=4)
        ).run(restored)
        evaluator = PartitioningEvaluator(database)
        assert evaluator.cost(result.partitioning, restored) == 0.0
