"""Section 5.1's safety valve: implicit-join discovery "may lead to
false-positive joins ... but we will later use the workload trace to
eliminate such joins."

Two statements mention both endpoints of a foreign key without actually
joining through it (their parameters are independent). The analyzer
discovers the implicit join — a false positive — and the trace-driven
mapping-independence test must reject the resulting tree.
"""

import random

import pytest

from repro.core import JECBConfig, JECBPartitioner
from repro.core.join_graph import JoinGraph
from repro.core.join_tree import JoinTree
from repro.core.phase2 import Phase2Config, enumerate_trees
from repro.procedures import ProcedureCatalog, StoredProcedure
from repro.schema import Attr, DatabaseSchema, integer_table
from repro.sql import analyze_procedure
from repro.sql.dataflow import analyze_dataflow
from repro.storage import Database
from repro.trace import TraceCollector

from tests.referee import intern


@pytest.fixture
def setup():
    schema = DatabaseSchema("fp")
    schema.add_table(integer_table("PARENT", ["A_ID", "A_VAL"], ["A_ID"]))
    schema.add_table(
        integer_table("CHILD", ["B_ID", "B_A_ID", "B_VAL"], ["B_ID"])
    )
    schema.add_foreign_key("CHILD", ["B_A_ID"], "PARENT", ["A_ID"])
    database = Database(schema)
    rng = random.Random(13)
    b_id = 0
    for a_id in range(1, 31):
        database.insert("PARENT", {"A_ID": a_id, "A_VAL": rng.randint(0, 9)})
        for _ in range(3):
            b_id += 1
            database.insert(
                "CHILD",
                {"B_ID": b_id, "B_A_ID": a_id, "B_VAL": rng.randint(0, 9)},
            )
    # The two statements mention B_A_ID and A_ID, but @x and @y are
    # independent inputs: there is no real join between the accesses.
    procedure = StoredProcedure(
        "Unrelated",
        params=["x", "y"],
        statements={
            "children": "SELECT B_VAL FROM CHILD WHERE B_A_ID = @x",
            "parent": "SELECT A_VAL FROM PARENT WHERE A_ID = @y",
            "write": "UPDATE CHILD SET B_VAL = B_VAL + 1 WHERE B_A_ID = @x",
            "write_parent": "UPDATE PARENT SET A_VAL = A_VAL + 1 WHERE A_ID = @y",
        },
    )
    collector = TraceCollector(database)
    for _ in range(200):
        collector.run(
            procedure,
            {"x": rng.randint(1, 30), "y": rng.randint(1, 30)},
        )
    return schema, database, procedure, collector.trace


class TestFalsePositiveImplicitJoin:
    def test_analyzer_discovers_the_false_join(self, setup):
        schema, _db, procedure, _trace = setup
        analysis = analyze_procedure(procedure.statements, schema)
        graph = JoinGraph.from_analysis(schema, analysis, set())
        assert len(graph.fks) == 1  # the false-positive edge exists

    def test_dataflow_witnessing_prunes_it_statically(self, setup):
        """@x and @y never meet in the def-use graph, so witness mode
        drops the candidate join before the trace is even consulted."""
        schema, _db, procedure, _trace = setup
        flow = analyze_dataflow(procedure, schema)
        graph = JoinGraph.from_analysis(
            schema, flow.merged, set(), implicit_edges=flow.implicit_edges
        )
        assert len(graph.fks) == 0

    def test_root_exists_structurally(self, setup):
        schema, _db, procedure, _trace = setup
        analysis = analyze_procedure(procedure.statements, schema)
        graph = JoinGraph.from_analysis(schema, analysis, set())
        assert Attr("PARENT", "A_ID") in graph.find_roots()

    def test_trace_rejects_the_tree(self, setup):
        """The A_ID-rooted tree covering both tables is not MI."""
        schema, database, procedure, trace = setup
        analysis = analyze_procedure(procedure.statements, schema)
        graph = JoinGraph.from_analysis(schema, analysis, set())
        engine, view = intern(database, trace)
        trees = enumerate_trees(
            graph, Attr("PARENT", "A_ID"), Phase2Config()
        )
        full_trees = [t for t in trees if len(t.paths) == 2]
        assert full_trees
        for tree in full_trees:
            assert not tree.is_mapping_independent(view, engine)

    def test_jecb_falls_back_to_per_table_partials(self, setup):
        """End to end: JECB still partitions both tables (per-table
        partial solutions), it just cannot co-locate them — matching the
        workload's true structure."""
        schema, database, procedure, trace = setup
        catalog = ProcedureCatalog([procedure])
        result = JECBPartitioner(
            database, catalog, JECBConfig(num_partitions=4)
        ).run(trace)
        class_result = result.class_result("Unrelated")
        # no *mapping-independent* total tree can exist; at most the
        # statistics fallback squeezes marginal co-access overlap
        assert all(
            not solution.mapping_independent
            for solution in class_result.total_solutions
        )
        # elimination partials cover each side separately
        assert class_result.partial_solutions
        partial_tables = set()
        for solution in class_result.partial_solutions:
            partial_tables |= solution.tree.tables
        assert partial_tables == {"PARENT", "CHILD"}
        child = result.partitioning.solution_for("CHILD")
        parent = result.partitioning.solution_for("PARENT")
        assert not child.replicated
        assert not parent.replicated


class TestGlueOverwrittenWitness:
    """A false positive witnessing *cannot* remove: the glue overwrites a
    variable between its SQL definition and its SQL use. Static analysis
    must keep the edge (glue mode is conservative about variable state),
    and the trace-driven mapping-independence test remains the safety
    valve that rejects it.
    """

    @pytest.fixture
    def glue_setup(self):
        schema = DatabaseSchema("fp")
        schema.add_table(integer_table("PARENT", ["A_ID", "A_VAL"], ["A_ID"]))
        schema.add_table(
            integer_table("CHILD", ["B_ID", "B_A_ID", "B_VAL"], ["B_ID"])
        )
        schema.add_foreign_key("CHILD", ["B_A_ID"], "PARENT", ["A_ID"])
        database = Database(schema)
        rng = random.Random(13)
        b_id = 0
        for a_id in range(1, 31):
            database.insert(
                "PARENT", {"A_ID": a_id, "A_VAL": rng.randint(0, 9)}
            )
            for _ in range(3):
                b_id += 1
                database.insert(
                    "CHILD",
                    {"B_ID": b_id, "B_A_ID": a_id, "B_VAL": rng.randint(0, 9)},
                )

        # The SQL says @v = B_A_ID flows into the PARENT lookup, but the
        # glue clobbers @v with the independent @y first.
        def body(ctx):
            ctx.run("pick")
            ctx["v"] = ctx["y"]
            ctx.run("parent")
            ctx.run("write_parent")
            return ctx.run("write_child")

        procedure = StoredProcedure(
            "Clobbered",
            params=["x", "y"],
            statements={
                "pick": "SELECT @v = B_A_ID FROM CHILD WHERE B_ID = @x",
                "parent": "SELECT A_VAL FROM PARENT WHERE A_ID = @v",
                "write_parent": (
                    "UPDATE PARENT SET A_VAL = A_VAL + 1 WHERE A_ID = @v"
                ),
                "write_child": (
                    "UPDATE CHILD SET B_VAL = B_VAL + 1 WHERE B_ID = @x"
                ),
            },
            body=body,
        )
        collector = TraceCollector(database)
        for _ in range(200):
            collector.run(
                procedure,
                {"x": rng.randint(1, 90), "y": rng.randint(1, 30)},
            )
        return schema, database, procedure, collector.trace

    def test_static_analysis_keeps_the_edge(self, glue_setup):
        schema, _db, procedure, _trace = glue_setup
        flow = analyze_dataflow(procedure, schema)
        assert not flow.straight_line
        assert flow.witnesses_pair(
            frozenset({Attr("CHILD", "B_A_ID"), Attr("PARENT", "A_ID")})
        )
        graph = JoinGraph.from_analysis(
            schema, flow.merged, set(), implicit_edges=flow.implicit_edges
        )
        assert len(graph.fks) == 1

    def test_trace_rejects_the_witnessed_tree(self, glue_setup):
        schema, database, procedure, trace = glue_setup
        flow = analyze_dataflow(procedure, schema)
        graph = JoinGraph.from_analysis(
            schema, flow.merged, set(), implicit_edges=flow.implicit_edges
        )
        engine, view = intern(database, trace)
        trees = enumerate_trees(graph, Attr("PARENT", "A_ID"), Phase2Config())
        full_trees = [t for t in trees if len(t.paths) == 2]
        assert full_trees
        for tree in full_trees:
            assert not tree.is_mapping_independent(view, engine)
