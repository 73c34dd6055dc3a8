"""Unit tests for the streaming executor (:mod:`repro.exec`).

Four families:

* **Block-boundary behaviour** per operator — empty input, exactly one
  block, inputs straddling block boundaries (including duplicates that
  must be recognised across the boundary).
* **Pipeline semantics** — lazy iteration pulls only what it needs, a
  partial stream resumes into a full drain without re-reading, and the
  trace/tree rendering carries per-node estimates, actuals and time.
* **The streaming contract** — iterating a selective conjunctive
  multi-join's result yields first rows without constructing a single
  intermediate :class:`~repro.core.xrelation.XRelation` (pinned by
  instrumenting the constructor), and ``explain(analyze=True)`` reports
  per-operator actual row counts identical to the step trace's, ending
  in the oracle's answer size.
* **Fused leaves** — the one leaf a range compiles to (scan or index
  probe, pushed selections fused in) ≡ a chain of one :class:`Filter`
  per conjunct ≡ the oracle, null kinds and type mismatches included,
  and a 5 000-term conjunction runs without recursion.
"""

from __future__ import annotations

import re
from operator import eq as operator_eq, lt as operator_lt, ne as operator_ne

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.xrelation as xrelation_module
from repro.core.errors import AlgebraError
from repro.core.nulls import NI, MarkedNull, UnknownNull
from repro.core.query import And, AttributeRef, Comparison, Or, Query, evaluate_lower_bound
from repro.core.relation import Relation, RelationSchema
from repro.core.tuples import XTuple
from repro.core.xrelation import XRelation
from repro.exec import (
    AppendSink,
    DeleteSink,
    Filter,
    HashJoin,
    IndexNLJoin,
    IndexProbe,
    Pipeline,
    Product,
    Project,
    Rename,
    ReplaceSink,
    TableScan,
    TraceStep,
)
from repro.exec.builder import LogicalOp, build_tree
from repro.quel.planner import Plan
from repro.storage.database import Database
from repro.storage.index import HashIndex


def rows_of(*dicts) -> list:
    return [XTuple(d) for d in dicts]


def scan_of(rows, block_size=2) -> TableScan:
    return TableScan(list(rows), label="scan", block_size=block_size)


def drain(node) -> list:
    return [row for block in node.blocks() for row in block]


class TestTableScan:
    def test_empty_input_yields_no_blocks(self):
        scan = scan_of([])
        assert list(scan.blocks()) == []
        assert scan.actual_rows == 0 and scan.finished

    def test_exactly_one_block(self):
        rows = rows_of({"A": 1}, {"A": 2})
        scan = scan_of(rows, block_size=2)
        blocks = list(scan.blocks())
        assert len(blocks) == 1 and len(blocks[0]) == 2
        assert scan.actual_rows == 2 and scan.actual_blocks == 1

    def test_straddling_input_splits_into_blocks(self):
        rows = rows_of({"A": 1}, {"A": 2}, {"A": 3}, {"A": 4}, {"A": 5})
        scan = scan_of(rows, block_size=2)
        assert [len(b) for b in scan.blocks()] == [2, 2, 1]

    def test_null_tuples_are_skipped(self):
        rows = rows_of({"A": 1}, {}, {"A": 2})
        assert {r["A"] for r in drain(scan_of(rows))} == {1, 2}

    def test_source_is_snapshotted_at_construction(self):
        """Statement-time semantics: the scan captures the row references
        when the tree is built, so mutating the table between execution
        and iteration neither crashes the drain nor leaks new rows."""
        live = [XTuple({"A": 7})]
        scan = TableScan(live, block_size=2)
        live.append(XTuple({"A": 8}))  # post-statement mutation
        assert [r["A"] for r in drain(scan)] == [7]


class TestFilterRenameProject:
    def test_filter_streams_and_counts(self):
        rows = rows_of({"A": 1}, {"A": 2}, {"A": 3}, {"A": 4})
        node = Filter(scan_of(rows), lambda r: r["A"] % 2 == 0, block_size=2)
        assert {r["A"] for r in drain(node)} == {2, 4}
        assert node.actual_rows == 2

    def test_filter_empty_input(self):
        node = Filter(scan_of([]), lambda r: True)
        assert drain(node) == []

    def test_all_filtered_blocks_are_suppressed(self):
        rows = rows_of({"A": 1}, {"A": 3})
        node = Filter(scan_of(rows), lambda r: False, block_size=1)
        assert list(node.blocks()) == []
        assert node.actual_blocks == 0

    def test_rename_maps_every_attribute(self):
        rows = rows_of({"A": 1, "B": 2})
        node = Rename(scan_of(rows), {"A": "v.A", "B": "v.B"})
        (row,) = drain(node)
        assert row["v.A"] == 1 and row["v.B"] == 2

    def test_project_deduplicates_across_block_boundary(self):
        # Four distinct inputs collapse to two outputs; the duplicates sit
        # in *different* blocks, so the seen-set must span blocks.
        rows = rows_of(
            {"A": 1, "B": 1}, {"A": 1, "B": 2}, {"A": 2, "B": 1}, {"A": 2, "B": 2}
        )
        node = Project(scan_of(rows, block_size=1), [("out", "A")], block_size=1)
        assert sorted(r["out"] for r in drain(node)) == [1, 2]
        assert node.actual_rows == 2

    def test_project_exactly_one_block(self):
        rows = rows_of({"A": 1}, {"A": 2})
        node = Project(scan_of(rows, block_size=4), [("out", "A")], block_size=4)
        blocks = list(node.blocks())
        assert len(blocks) == 1 and len(blocks[0]) == 2

    def test_project_drops_the_null_projection(self):
        rows = rows_of({"A": 1, "B": 2}, {"B": 3})  # second row is null on A
        node = Project(scan_of(rows), [("out", "A")])
        assert [r["out"] for r in drain(node)] == [1]


class TestJoins:
    def left_rows(self):
        return rows_of(
            {"l.K": 1, "l.X": 10}, {"l.K": 2, "l.X": 20}, {"l.K": 1, "l.X": 30},
            {"l.X": 40},  # null on the probe key: must not join
        )

    def build_rows(self):
        return rows_of({"K": 1, "Y": 100}, {"K": 3, "Y": 300}, {"Y": 400})

    def test_hash_join_matches_across_blocks(self):
        node = HashJoin(
            scan_of(self.left_rows(), block_size=1),
            scan_of(self.build_rows(), block_size=1),
            ["K"], ["l.K"],
            transform=lambda r: r.rename({"K": "r.K", "Y": "r.Y"}),
            block_size=1,
        )
        out = drain(node)
        assert {(r["l.X"], r["r.Y"]) for r in out} == {(10, 100), (30, 100)}
        assert node.actual_rows == 2

    def test_hash_join_empty_build_side_never_pulls_the_probe(self):
        probe = scan_of(self.left_rows())
        node = HashJoin(probe, scan_of([]), ["K"], ["l.K"])
        assert drain(node) == []
        assert not probe.started

    def test_hash_join_empty_probe_side(self):
        node = HashJoin(scan_of([]), scan_of(self.build_rows()), ["K"], ["l.K"])
        assert drain(node) == []

    def test_index_probe_as_build_side(self):
        """Regression: ``IndexProbe`` snapshots its bucket into an
        attribute; it must not shadow the inherited ``rows()`` method the
        join's build phase drains through."""
        index = HashIndex(["K"], name="ix")
        for row in self.build_rows():
            index.insert(row)
        probe = IndexProbe(index.lookup, (1,), block_size=2)
        node = HashJoin(
            scan_of(self.left_rows()), probe, ["K"], ["l.K"],
            transform=lambda r: r.rename({"K": "r.K", "Y": "r.Y"}),
        )
        assert {(r["l.X"], r["r.Y"]) for r in drain(node)} == {(10, 100), (30, 100)}

    def test_index_selected_range_as_join_build_side_end_to_end(self):
        """Same regression through the planner: a pushed index selection
        leaves an ``IndexProbe`` at the top of a range's chain, and a
        later hash join drains that chain as its build side."""
        database = Database("probe-build")
        r = database.create_table("R", ["A", "B"])
        s = database.create_table("S", ["B", "C"])
        r.insert_many([(1, 0), (2, 1)])
        s.insert_many([(i % 4, i % 2) for i in range(50)])
        s.create_index(["C"], name="s_c")
        from repro.quel.evaluator import run_query
        text = (
            "range of r is R range of s is S "
            "retrieve (r.A, s.B) where r.B = s.B and s.C = 1"
        )
        result = run_query(text, database, strategy="algebra")
        assert any("index select" in step for step in result.plan.steps)
        assert result.answer == run_query(text, database, strategy="tuple").answer

    def test_index_nl_join_probes_a_live_index(self):
        index = HashIndex(["K"], name="ix")
        for row in self.build_rows():
            index.insert(row)
        node = IndexNLJoin(
            scan_of(self.left_rows(), block_size=2),
            index.lookup, ["l.K"],
            transform=lambda r: r.rename({"K": "r.K", "Y": "r.Y"}),
        )
        out = drain(node)
        assert {(r["l.X"], r["r.Y"]) for r in out} == {(10, 100), (30, 100)}

    def test_product_pairs_every_row(self):
        left = rows_of({"l.A": 1}, {"l.A": 2}, {"l.A": 3})
        right = rows_of({"B": 7}, {"B": 8})
        node = Product(
            scan_of(left, block_size=2), scan_of(right),
            transform=lambda r: r.rename({"B": "r.B"}), block_size=2,
        )
        assert len(drain(node)) == 6

    def test_product_empty_right_side(self):
        node = Product(scan_of(rows_of({"l.A": 1})), scan_of([]))
        assert drain(node) == []


class TestPipeline:
    def make_pipeline(self, n=100, block_size=4) -> Pipeline:
        rows = rows_of(*({"A": i, "B": i % 3} for i in range(n)))
        scan = scan_of(rows, block_size=block_size)
        project = Project(scan, [("out", "A")], block_size=block_size)
        schema = RelationSchema(("out",), name="Q")
        return Pipeline(project, schema, [TraceStep("project onto ['out']", node=project, show_est=False)])

    def test_iter_rows_is_lazy(self):
        pipeline = self.make_pipeline(n=100, block_size=4)
        iterator = pipeline.iter_rows()
        first = next(iterator)
        assert first["out"] is not None
        scan = pipeline.root.children[0]
        assert 0 < scan.actual_rows < 100  # only the first block(s) were read
        assert not pipeline.drained

    def test_partial_stream_resumes_into_full_drain(self):
        pipeline = self.make_pipeline(n=50, block_size=4)
        iterator = pipeline.iter_rows()
        streamed = [next(iterator) for _ in range(5)]
        answer = pipeline.run()
        assert len(answer) == 50
        assert set(streamed) <= set(answer.rows())
        # the prefix replays — nothing was lost or produced twice
        assert len(list(pipeline.iter_rows())) == 50

    def test_repr_reports_the_answer_size_once_drained(self):
        pipeline = self.make_pipeline(n=10)
        assert repr(pipeline).endswith(", pending, rows=0)")
        pipeline.run()
        assert repr(pipeline).endswith(", drained, rows=10)")

    def test_trace_rows_appear_after_drain(self):
        pipeline = self.make_pipeline(n=10)
        assert pipeline.step_lines() == ["project onto ['out']"]
        pipeline.run()
        assert pipeline.step_lines() == ["project onto ['out'] [rows=10]"]

    def test_explain_analyze_reports_actuals_and_time(self):
        pipeline = self.make_pipeline(n=10)
        tree = pipeline.explain(analyze=True)
        for line in tree.splitlines():
            assert re.search(r"actual rows=\d+ time=\d+\.\d+ms", line), line

    def test_operator_error_latches_instead_of_truncating(self):
        """An exception escaping a draining pipeline must re-raise on
        every later consumption — never pass off the partial prefix as
        the canonical answer."""
        rows = rows_of(*({"A": i} for i in range(10)))

        def explode(row):
            if row["A"] == 5:
                raise RuntimeError("boom")
            return True

        node = Filter(scan_of(rows, block_size=2), explode, block_size=2)
        pipeline = Pipeline(node, RelationSchema(("A",), name="Q"))
        iterator = pipeline.iter_rows()
        with pytest.raises(RuntimeError):
            list(iterator)
        with pytest.raises(RuntimeError):
            pipeline.run()
        # A fresh iterator replays the valid prefix, then re-raises at
        # the point of failure instead of reporting exhaustion.
        with pytest.raises(RuntimeError):
            list(pipeline.iter_rows())


class TestSinks:
    @pytest.fixture
    def database(self) -> Database:
        database = Database("sinkdb")
        table = database.create_table("T", ["A", "B"])
        table.insert_many([(1, 10), (2, 20), (3, 30)])
        return database

    def source_pipeline(self, rows) -> Pipeline:
        scan = TableScan(list(rows), label="src")
        return Pipeline(scan, RelationSchema(("A", "B"), name="S"))

    def test_append_sink_literal_rows(self, database):
        sink = AppendSink(
            database, database.table("T"), literal_rows=rows_of({"A": 4, "B": 40})
        )
        assert sink.run() == 1
        assert len(database.table("T")) == 4

    def test_append_sink_builds_rows_from_source(self, database):
        source = self.source_pipeline(rows_of({"A": 7, "B": 70}, {"A": 7, "B": 70}))
        sink = AppendSink(
            database, database.table("T"), source,
            row_builder=lambda row: XTuple({"A": row["A"], "B": row["B"]}),
        )
        assert sink.run() == 1  # duplicates collapse before the atomic insert
        assert database.table("T").x_contains({"A": 7, "B": 70})

    def test_delete_sink_applies_the_bulk_path(self, database):
        source = self.source_pipeline(rows_of({"A": 1, "B": 10}, {"A": 3, "B": 30}))
        sink = DeleteSink(database, database.table("T"), source)
        assert sink.run() == 2
        assert {row["A"] for row in database.table("T").rows()} == {2}

    def test_replace_sink_rolls_back_wholesale(self, database):
        from repro.constraints.keys import KeyConstraint
        table = database.table("T")
        table.add_constraint(KeyConstraint(["A"]))
        before = set(table.rows())
        source = self.source_pipeline(rows_of({"A": 1, "B": 10}))
        sink = ReplaceSink(
            database, table, source,
            row_builder=lambda row: XTuple({"A": 2, "B": row["B"]}),  # key clash
        )
        with pytest.raises(Exception):
            sink.run()
        assert set(table.rows()) == before


class TestStreamingContract:
    """The acceptance pins: no intermediate XRelation while streaming, and
    analyze actuals ≡ the step trace's row counts ≡ the oracle's answer."""

    @pytest.fixture
    def database(self) -> Database:
        database = Database("pipes")
        r = database.create_table("R", ["A", "B"])
        s = database.create_table("S", ["B", "C"])
        t = database.create_table("T", ["C", "D"])
        r.insert_many([(i % 7, i % 11) for i in range(200)])
        s.insert_many([(i % 11, i % 13) for i in range(200)])
        t.insert_many([(i % 13, i) for i in range(200)])
        return database

    QUERY = (
        "range of r is R range of s is S range of t is T "
        "retrieve (r.A, t.D) "
        "where r.B = s.B and s.C = t.C and r.A = 1 and t.D < 50"
    )

    def test_first_rows_without_any_intermediate_xrelation(self, database, monkeypatch):
        session = database.session()
        constructed = []
        original = XRelation.__init__

        def counting(self, representation):
            constructed.append(representation)
            original(self, representation)

        monkeypatch.setattr(xrelation_module.XRelation, "__init__", counting)
        result = session.execute(self.QUERY)
        iterator = iter(result)
        first = next(iterator)
        assert first["r_A"] == 1
        # Planning + streaming the first rows built NO XRelation at all.
        assert constructed == []
        # Draining to the canonical answer builds exactly the final one.
        rows = result.rows
        assert rows and len(constructed) == 1

    def test_analyze_actuals_match_step_counts_and_oracle(self, database):
        from repro.core.query import evaluate_lower_bound
        from repro.quel.evaluator import compile_query

        query = compile_query(self.QUERY, database).query
        pipeline = Plan(query, database).compile()
        answer = pipeline.run()
        steps = pipeline.step_lines()
        oracle = evaluate_lower_bound(query)
        assert answer == oracle
        # On null-free data nothing streamed is dominated: the project
        # step's measured rows are the answer's.
        assert steps[-1].endswith(f"[rows={len(oracle)}]")
        # Every step's rows= is its own node's actual rows= in the tree.
        tree = pipeline.explain(analyze=True)
        assert re.search(r"est=\d+ actual rows=\d+ time=\d+\.\d+ms", tree)
        measured = 0
        for step, line in zip(pipeline.trace, steps):
            if step.node is None:
                continue
            measured += 1
            assert line.endswith(f"rows={step.node.actual_rows}]")
            assert re.search(
                re.escape(step.node.label)
                + rf" \[(est=\d+ )?actual rows={step.node.actual_rows} ", tree
            )
        assert measured >= 5  # two selects, two joins, the projection

    def test_lazy_result_survives_post_statement_mutation(self, database):
        """Mutating a scanned table between execution and iteration must
        neither crash the drain (the live row set would resize under the
        iterator) nor leak post-statement rows into the answer."""
        session = database.session()
        before = session.execute(self.QUERY)
        expected = set(before.to_relation().rows())
        result = session.execute(self.QUERY)
        iterator = iter(result)
        first = next(iterator)
        database.insert("R", (1, 0))       # would join: must not appear
        database.delete("T", (0, 0))
        remaining = list(iterator)         # completes without RuntimeError
        assert {first, *remaining} >= expected
        assert set(result.to_relation().rows()) == expected


class TestExplainAnalyzeDrainsFirst:
    """``ResultSet.explain(analyze=True)`` must never report partial
    actuals: called on a fresh or partially-streamed result set it drains
    the pipeline first, so the tree it renders always shows the finished
    counts (pinned here; the drain also caches the canonical answer)."""

    def make_database(self, n=200) -> Database:
        database = Database("explaindb")
        table = database.create_table("T", ["A", "B"])
        table.insert_many([(i, i % 7) for i in range(n)])
        return database

    QUERY = "range of t is T retrieve (t.A) where t.B != 99"

    def test_fresh_result_explain_analyze_reports_full_actuals(self):
        database = self.make_database(n=200)
        session = database.session()
        result = session.execute(self.QUERY)
        tree = result.explain(analyze=True)
        assert result.pipeline.drained
        assert "(partial)" not in tree
        assert "actual rows=200" in tree  # the scan saw every row
        # and the drain cached the canonical answer as a side effect
        assert len(result.rows) == 200

    def test_partially_streamed_result_drains_before_reporting(self):
        from repro.api.session import Session

        database = self.make_database(n=200)
        # Result caching off: this test compares the physical trees of
        # two genuine executions of the same text.
        session = Session(database, result_cache_size=0)
        result = session.execute(self.QUERY)
        iterator = iter(result)
        for _ in range(3):   # pull a prefix only
            next(iterator)
        assert not result.pipeline.drained
        tree = result.explain(analyze=True)
        assert result.pipeline.drained
        assert "(partial)" not in tree
        assert "actual rows=200" in tree
        # identical to the tree of a result drained the normal way
        drained = session.execute(self.QUERY)
        drained.rows
        strip = lambda text: re.sub(r"time=\d+\.\d+ms", "time=?", text)
        assert strip(tree) == strip(drained.explain(analyze=True))

    def test_undrained_tree_rendering_is_marked_partial(self):
        """Rendering an operator tree mid-stream (the low-level
        render_tree surface, not ResultSet.explain) must flag nodes that
        are still producing instead of passing partial counts off as
        finals."""
        from repro.exec.pipeline import render_tree

        database = self.make_database(n=200)
        session = database.session()
        result = session.execute(self.QUERY)
        iterator = iter(result)
        next(iterator)
        tree = render_tree(result.pipeline.root, analyze=True)
        assert "(partial)" in tree
        result.rows  # drain
        assert "(partial)" not in render_tree(result.pipeline.root, analyze=True)


# ---------------------------------------------------------------------------
# Fused leaves: a range's scan and its pushed selections in one loop
# ---------------------------------------------------------------------------

LEAF_ATTRIBUTES = ("A", "B", "C")
LEAF_OPS = ("=", "!=", "<", "<=", ">", ">=")
#: Stored values: ``None`` leaves the cell ``ni`` (absent from the row);
#: marked and unknown nulls are stored and must fail every comparison
#: too; ``"x"`` mismatches the integer constants.
LEAF_VALUES = st.sampled_from((None, 0, 1, 2, 3, MarkedNull("m1"), UnknownNull(), "x"))
#: Constants: null ones keep nothing; ``"x"`` mismatches integer cells,
#: so an order comparison must raise AlgebraError on the same inputs.
LEAF_CONSTANTS = st.sampled_from((0, 1, 2, 3, NI, MarkedNull("m1"), "x"))


@st.composite
def leaf_conjuncts(draw):
    """One pushed conjunct over range ``t``: mostly ``A θ k``; sometimes a
    var-var comparison or an OR (the two fallback shapes)."""
    kind = draw(st.sampled_from(["const", "const", "const", "var-var", "or"]))
    attribute = draw(st.sampled_from(LEAF_ATTRIBUTES))
    op = draw(st.sampled_from(LEAF_OPS))
    if kind == "const":
        return Comparison(AttributeRef("t", attribute), op, draw(LEAF_CONSTANTS))
    other = AttributeRef("t", draw(st.sampled_from(LEAF_ATTRIBUTES)))
    if kind == "var-var":
        return Comparison(AttributeRef("t", attribute), op, other)
    return Or(
        Comparison(AttributeRef("t", attribute), op, draw(LEAF_CONSTANTS)),
        Comparison(other, draw(st.sampled_from(LEAF_OPS)), draw(LEAF_CONSTANTS)),
    )


def _pushed_op(conjunct):
    """The logical op the planner pushes for *conjunct* on range ``t``."""
    if isinstance(conjunct, Comparison) and not isinstance(conjunct.right, AttributeRef):
        return LogicalOp(
            "select", variable="t", conjunct=conjunct,
            attribute=conjunct.left.attribute, op=conjunct.op,
            constant=conjunct.right.literal, est=1.0,
        )
    return LogicalOp("select-var-residual", variable="t", conjunct=conjunct, est=1.0)


def _outcome(drain_rows):
    try:
        return drain_rows()
    except AlgebraError:
        return AlgebraError


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(LEAF_VALUES, LEAF_VALUES, LEAF_VALUES), max_size=12),
    st.lists(leaf_conjuncts(), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=9),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
def test_fused_leaf_matches_filter_chain_and_oracle(values, conjuncts, block_size, probe):
    """The leaf ``build_tree`` makes of a range's pushed ops ≡ a
    hand-built chain of one :class:`Filter` per conjunct (each through
    the definitional ``Comparison.evaluate``) over the same scan ≡
    :func:`evaluate_lower_bound` — on rows holding ``ni``, marked and
    unknown nulls and mismatched types, with null and mismatched
    constants, ``!=``, random block sizes and, when *probe* is drawn, an
    index probe on ``A`` serving the range.

    The leaf and the chain make exactly the same (row, conjunct)
    evaluations, so they return the same rows in the same order or both
    raise :class:`AlgebraError`.  The oracle evaluates a conjunct
    whenever no earlier one was FALSE — a superset — so a leaf that
    raises implies an oracle that raises, and otherwise their answers
    are equal whenever the oracle answers."""
    rows = [
        XTuple({a: v for a, v in zip(LEAF_ATTRIBUTES, row) if v is not None})
        for row in values
    ]
    ops = [LogicalOp("rename", variable="t", described="R")]
    indexes = {}
    where = list(conjuncts)
    if probe is not None:
        index = HashIndex(["A"], name="r_a")
        index.bulk_add(rows)
        indexes["t"] = index
        ops.append(LogicalOp(
            "index-select", variable="t", index=("A",), index_name="r_a",
            probe=[probe], est=1.0,
        ))
        where.insert(0, Comparison(AttributeRef("t", "A"), "=", probe))
    ops += [_pushed_op(c) for c in conjuncts]
    ops.append(LogicalOp("project", targets=[(f"t_{a}", f"t.{a}") for a in LEAF_ATTRIBUTES]))
    mappings = {"t": {a: f"t.{a}" for a in LEAF_ATTRIBUTES}}
    _, nodes = build_tree(ops, {"t": rows}, indexes, mappings, "t", block_size)
    leaf = nodes[1]
    assert all(node is leaf for node in nodes[1:-1])  # one leaf, no Filter chain
    assert isinstance(leaf, IndexProbe if probe is not None else TableScan)

    chain = (
        IndexProbe(indexes["t"].lookup, (probe,), block_size=block_size)
        if probe is not None else TableScan(rows, block_size=block_size)
    )
    for conjunct in conjuncts:
        chain = Filter(
            chain, lambda row, _c=conjunct: _c.evaluate({"t": row}),
            block_size=block_size,
        )

    fused = _outcome(lambda: drain(leaf))
    assert fused == _outcome(lambda: drain(chain))

    relation = Relation(LEAF_ATTRIBUTES, name="R", validate=False)
    for row in rows:
        relation.add(row)
    query = Query({"t": relation}, [AttributeRef("t", a) for a in LEAF_ATTRIBUTES], And(*where))
    oracle = _outcome(lambda: evaluate_lower_bound(query))
    if fused is AlgebraError:
        assert oracle is AlgebraError
    elif oracle is not AlgebraError:
        answer = Relation(("t_A", "t_B", "t_C"), name="Q", validate=False)
        for row in fused:
            answer.add(row.rename({a: f"t_{a}" for a in LEAF_ATTRIBUTES}))
        assert XRelation(answer) == oracle


class TestFusedLeaf:
    def test_every_null_kind_fails_a_constant_comparison(self):
        """``!=`` is where a bare native operator goes wrong: a stored
        marked or unknown null is present in the row and unequal to 7,
        yet no null satisfies a comparison (Section 5)."""
        rows = rows_of({"A": 1, "B": MarkedNull("m1")}, {"A": 2, "B": 5},
                       {"A": 3, "B": UnknownNull()}, {"A": 4})
        tests = [("B", operator_ne, 7, "!=")]
        assert [r["A"] for r in drain(TableScan(rows, tests, block_size=2))] == [2]

    def test_null_kinds_through_the_planner(self):
        database = Database("nullkinds")
        table = database.create_table("T", ["A", "B"])
        table.insert_many([(1, MarkedNull("m1")), (2, 5), (3, UnknownNull())])
        session = database.session()
        text = "range of t is T retrieve (t.A) where t.B != 7"
        assert [r["t_A"] for r in session.execute(text)] == [2]
        table.create_index(["A"], name="t_a")
        probed = "range of t is T retrieve (t.A) where t.A = 3 and t.B != 7"
        result = session.execute(probed)
        assert list(result) == []
        assert "IndexProbe t_a (t) | Filter t.B != 7" in result.explain(analyze=True)

    def test_type_mismatch_redoes_the_block_through_compare(self):
        rows = rows_of({"A": 1}, {"A": "x"}, {"A": 2})
        equal = TableScan(rows, [("A", operator_eq, 2, "=")], block_size=8)
        assert [r["A"] for r in drain(equal)] == [2]  # "x" = 2 is FALSE
        unequal = TableScan(rows, [("A", operator_ne, 2, "!=")], block_size=8)
        assert [r["A"] for r in drain(unequal)] == [1, "x"]
        ordered = TableScan(rows, [("A", operator_lt, 2, "<")], block_size=8)
        with pytest.raises(AlgebraError):
            drain(ordered)

    def test_a_range_is_one_leaf_node(self):
        database = Database("leafdb")
        table = database.create_table("T", ["A", "B"])
        table.insert_many([(i, i % 7) for i in range(50)])
        result = database.session().execute(
            "range of t is T retrieve (t.A) where t.B != 3 and t.A < 20 and (t.B = 1 or t.B = 2)"
        )
        assert sorted(r["t_A"] for r in result) == [1, 2, 8, 9, 15, 16]
        tree = result.explain(analyze=True).splitlines()
        assert len(tree) == 2  # Project over the leaf
        assert tree[1].strip().startswith(
            "TableScan T (t) | Filter t.B != 3 | Filter t.A < 20 | Filter "
        )
        assert "actual rows=6 " in tree[1]

    def test_5000_term_conjunction_runs_without_recursion_error(self):
        database = Database("wide")
        table = database.create_table("T", ["A", "B"])
        table.insert_many([(i, i % 7) for i in range(1200)])
        where = " and ".join(f"t.A != {1000 + i}" for i in range(5000))
        session = database.session()
        result = session.execute(f"range of t is T retrieve (t.A) where {where}")
        assert sorted(r["t_A"] for r in result) == list(range(1000))
        assert "actual rows=1000 " in result.explain(analyze=True)
        deleted = session.execute(f"range of t is T delete t where {where}")
        assert deleted.rows_affected == 1000
        assert len(table) == 200

