"""Plan.explain() traces: the composite-key join fusion must be visible.

The planner's contract after the bulk-mutation PR: every equality
conjunct linking two ranges is consumed by *one* fused multi-attribute
hash join — the trace reports ``hash equi-join … on [A = …, B = …]`` and
no residual selection is left behind.  These tests pin the trace shape
(what ``EXPLAIN`` shows users) alongside the answers.
"""

from __future__ import annotations

import pickle
import random
import re
import time

import pytest

from repro.core.engine.joins import build_join_buckets, probe_join_block
from repro.core.tuples import XTuple
from repro.quel.evaluator import compile_query, run_query
from repro.quel.planner import Plan
from repro.storage.database import Database


@pytest.fixture
def db() -> Database:
    database = Database("shipments")
    supply = database.create_table("SUPPLY", ["S#", "P#", "QTY"])
    demand = database.create_table("DEMAND", ["S#", "P#", "NEED"])
    supply.insert_many([
        ("s1", "p1", 10),
        ("s1", "p2", 20),
        ("s2", "p1", 30),
        ("s2", None, 5),
    ])
    demand.insert_many([
        ("s1", "p1", 7),
        ("s1", "p3", 2),
        ("s2", "p1", 9),
        (None, "p1", 4),
    ])
    return database


def join_steps(plan):
    return [step for step in plan.steps if "hash equi-join" in step]


def residual_steps(plan):
    # A *separate* residual selection step — a join step carrying a
    # "fused residual" annotation is not one.
    return [step for step in plan.steps if step.startswith("select residual")]


class TestCompositeJoinTraces:
    def test_two_attribute_link_is_one_fused_join(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY, d.NEED) where s.S# = d.S# and s.P# = d.P#"
        )
        result = run_query(text, db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 1
        # One fused composite-key join: both pairs inside one bracketed step.
        assert "on [" in joins[0]
        assert "s.S# = d.S#" in joins[0] and "s.P# = d.P#" in joins[0]
        # ... and nothing left over to re-check after the join.
        assert residual_steps(result.plan) == []
        assert "product" not in result.plan.explain()
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_single_attribute_link_keeps_plain_trace(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY) where s.S# = d.S#"
        )
        result = run_query(text, db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 1
        assert "on s.S# = d.S#" in joins[0]
        assert "on [" not in joins[0]
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_fused_join_filters_composite_key(self, db):
        """The fused join returns exactly the both-attribute matches — the
        single-key join would have paired (s1,p2) with (s1,p3)."""
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.S#, s.P#) where s.S# = d.S# and s.P# = d.P#"
        )
        answer = run_query(text, db, strategy="algebra").answer
        pairs = {(t["s_S#"], t["s_P#"]) for t in answer.rows()}
        assert pairs == {("s1", "p1"), ("s2", "p1")}

    def test_non_equality_conjunct_fuses_into_join_probe(self, db):
        """The inequality is not a join key, but since the parallel-exec
        PR it rides the join anyway: the probe loop evaluates it on the
        (probe, build) pair before constructing the joined tuple, so the
        trace shows one join with a fused residual and no separate
        residual selection step."""
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY) where s.S# = d.S# and s.QTY > d.NEED"
        )
        result = run_query(text, db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 1
        assert "on s.S# = d.S#" in joins[0] or "on d.S# = s.S#" in joins[0]
        assert "fused residual" in joins[0] and "QTY" in joins[0]
        assert residual_steps(result.plan) == []
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_pushed_selections_precede_join_choice(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            'retrieve (s.QTY) where s.S# = d.S# and s.P# = d.P# and d.NEED > 3 and s.QTY > 5'
        )
        result = run_query(text, db, strategy="algebra")
        steps = result.plan.steps
        select_positions = [i for i, s in enumerate(steps) if s.startswith("select") and "residual" not in s]
        join_positions = [i for i, s in enumerate(steps) if "hash equi-join" in s]
        assert select_positions and join_positions
        assert max(select_positions) < min(join_positions)
        assert len(join_positions) == 1 and "on [" in steps[join_positions[0]]
        assert residual_steps(result.plan) == []
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_three_ranges_chain_mixes_fused_and_plain_joins(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND range of e is DEMAND "
            "retrieve (s.QTY, e.NEED) "
            "where s.S# = d.S# and s.P# = d.P# and d.P# = e.P#"
        )
        result = run_query(text, db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 2
        fused = [j for j in joins if "on [" in j]
        assert len(fused) == 1  # s–d is composite, d–e is single-attribute
        assert residual_steps(result.plan) == []
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_unlinked_ranges_fall_back_to_product(self, db):
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY, d.NEED)"
        )
        result = run_query(text, db, strategy="algebra")
        assert join_steps(result.plan) == []
        assert any("product" in step for step in result.plan.steps)
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_null_rows_never_join(self, db):
        """Rows null on any fused key attribute are dropped by the join —
        the Section 5 TRUE-only discipline on every conjunct at once."""
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.S#) where s.S# = d.S# and s.P# = d.P#"
        )
        answer = run_query(text, db, strategy="algebra").answer
        # (s2, ni) and (ni, p1) carry a null key component: no contribution.
        assert all(t["s_S#"] in {"s1", "s2"} for t in answer.rows())
        assert len(answer) == 2


class TestCostOptimizerTraces:
    """The statistics PR's contract: joins run in estimated-cost order,
    residual conjuncts are pushed through the joins, persistent indexes
    turn joins into index-nested-loop probes, and every executed step is
    annotated with ``est=…, rows=…``."""

    @pytest.fixture
    def chain_db(self) -> Database:
        """BIG1 –A– BIG2 –B– SEL, with SEL highly selective on C."""
        database = Database("chain")
        big1 = database.create_table("BIG1", ["A", "X"])
        big2 = database.create_table("BIG2", ["A", "B"])
        sel = database.create_table("SEL", ["B", "C"])
        big1.insert_many([(i % 4, i) for i in range(16)])
        big2.insert_many([(i % 4, i % 8) for i in range(16)])
        sel.insert_many([(i % 8, i) for i in range(16)])
        return database

    CHAIN_QUERY = (
        "range of b1 is BIG1 range of b2 is BIG2 range of s is SEL "
        "retrieve (b1.X, s.C) "
        "where b1.A = b2.A and b2.B = s.B and s.C = 3"
    )

    def test_join_reorder_starts_from_selective_range(self, chain_db):
        """The selection on SEL leaves one row, so cost ordering starts
        there and walks the chain SEL → BIG2 → BIG1 — the syntactic order
        would have built BIG1 ⋈ BIG2 first."""
        result = run_query(self.CHAIN_QUERY, chain_db, strategy="algebra")
        joins = join_steps(result.plan)
        assert len(joins) == 2
        assert "with b2" in joins[0] and "s.B = b2.B" in joins[0]
        assert "with b1" in joins[1] and "b2.A = b1.A" in joins[1]
        assert "product" not in result.plan.explain()
        assert result.answer == run_query(self.CHAIN_QUERY, chain_db, strategy="tuple").answer

    def test_steps_carry_estimates_and_actuals(self, chain_db):
        plan = run_query(self.CHAIN_QUERY, chain_db, strategy="algebra").plan
        for step in plan.steps:
            if step.startswith(("select", "hash", "index-nested-loop", "product")):
                assert re.search(r"\[est=\d+, rows=\d+\]$", step), step
        assert re.search(r"\[rows=\d+\]$", plan.steps[-1])

    def test_index_nested_loop_join_trace(self, db):
        """A persistent index covering the fused join key turns the hash
        join into an index-nested-loop probe of the live index."""
        db.table("DEMAND").create_index(["S#", "P#"], name="demand_key")
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.S#, s.P#) where s.S# = d.S# and s.P# = d.P#"
        )
        result = run_query(text, db, strategy="algebra")
        inl = [s for s in result.plan.steps if "index-nested-loop join" in s]
        assert len(inl) == 1
        assert "with d using index demand_key" in inl[0]
        assert "s.S# = d.S#" in inl[0] and "s.P# = d.P#" in inl[0]
        assert join_steps(result.plan) == []  # no bucket-rebuild join ran
        pairs = {(t["s_S#"], t["s_P#"]) for t in result.answer.rows()}
        assert pairs == {("s1", "p1"), ("s2", "p1")}
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_index_matches_attribute_set_in_any_order(self, db):
        db.table("DEMAND").create_index(["P#", "S#"], name="reversed_key")
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY) where s.S# = d.S# and s.P# = d.P#"
        )
        result = run_query(text, db, strategy="algebra")
        assert any("using index reversed_key" in s for s in result.plan.steps)
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_filtered_range_does_not_probe_index(self, db):
        """A pushed selection invalidates the stored index for that range:
        the plan falls back to the hash join over the filtered rows."""
        db.table("DEMAND").create_index(["S#"], name="demand_s")
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY) where s.S# = d.S# and d.NEED > 3"
        )
        result = run_query(text, db, strategy="algebra")
        assert not any("index-nested-loop" in s for s in result.plan.steps)
        assert len(join_steps(result.plan)) == 1
        assert result.answer == run_query(text, db, strategy="tuple").answer

    def test_residual_pushed_through_joins(self, db):
        """A two-variable residual conjunct applies as soon as both its
        ranges are combined — before later joins, not after them."""
        text = (
            "range of s is SUPPLY range of d is DEMAND range of e is DEMAND "
            "retrieve (s.QTY, e.NEED) "
            "where s.S# = d.S# and s.QTY > d.NEED and d.P# = e.P#"
        )
        result = run_query(text, db, strategy="algebra")
        steps = result.plan.steps
        residual_positions = [i for i, s in enumerate(steps) if "residual" in s]
        join_with_e = [i for i, s in enumerate(steps) if "join with e" in s]
        assert len(residual_positions) == 1 and len(join_with_e) == 1
        assert residual_positions[0] < join_with_e[0]
        assert result.answer == run_query(text, db, strategy="tuple").answer


class TestJoinOrder:
    def test_eleven_range_chain_takes_the_greedy_order(self):
        """An 11-range chain: the greedy order plans it — same answer as
        the oracle, one combine step per added range, no product."""
        count = 11
        database = Database("chain11")
        for i in range(count):
            # 2–3 rows per range; every third range has a row null on K.
            rows = [(0, i), (1, i)] if i % 2 else [(0, i), (1, i), (2, i)]
            if i % 3 == 0:
                rows[-1] = (None, i)
            database.create_table(f"T{i}", ["K", "V"]).insert_many(rows)
        text = (
            " ".join(f"range of t{i} is T{i}" for i in range(count))
            + f" retrieve (t0.K, t{count - 1}.V) where "
            + " and ".join(f"t{i}.K = t{i + 1}.K" for i in range(count - 1))
        )
        plan = Plan(compile_query(text, database).query, database)
        answer = plan.execute()
        assert answer == run_query(text, database, strategy="tuple").answer
        assert len(answer) > 0
        assert len(join_steps(plan)) == count - 1
        assert "product" not in plan.explain()

    @pytest.mark.parametrize("count", [10, 14])
    def test_clique_plans_in_bounded_time(self, count):
        """Every pair of ranges is linked: planning stays polynomial in
        the number of ranges (a subset enumeration would visit 2^n
        states), and every range after the first joins, none products."""
        database = Database("clique")
        for i in range(count):
            rows = [(k, i) for k in range(3)] + [(None, i)]
            database.create_table(f"T{i}", ["K", "V"]).insert_many(rows)
        database.analyze()
        text = (
            " ".join(f"range of t{i} is T{i}" for i in range(count))
            + f" retrieve (t0.K, t{count - 1}.V) where "
            + " and ".join(
                f"t{i}.K = t{j}.K"
                for i in range(count) for j in range(i + 1, count)
            )
        )
        plan = Plan(compile_query(text, database).query, database)
        started = time.perf_counter()
        ops = plan.logical_plan()
        assert time.perf_counter() - started < 0.1
        kinds = [op.kind for op in ops]
        assert kinds.count("join") == count - 1
        assert "product" not in kinds
        answer = plan.execute()
        assert sorted(t.items() for t in answer) == sorted(
            XTuple({"t0_K": k, f"t{count - 1}_V": count - 1}).items()
            for k in range(3)
        )


class TestLogicalPlanIsPlainData:
    def test_plan_with_index_steps_pickles(self, db):
        """The logical ops are plain data: an index is named by its
        attributes, so a plan with an index-select and an
        index-nested-loop step round-trips through pickle."""
        db.table("SUPPLY").create_index(["S#"], name="supply_s")
        db.table("DEMAND").create_index(["S#", "P#"], name="demand_key")
        text = (
            "range of s is SUPPLY range of d is DEMAND "
            "retrieve (s.QTY, d.NEED) "
            "where s.S# = 's1' and s.S# = d.S# and s.P# = d.P#"
        )
        plan = Plan(compile_query(text, db).query, db)
        ops = plan.logical_plan()
        by_kind = {op.kind: op for op in ops}
        assert by_kind["index-select"].index == ("S#",)
        assert set(by_kind["join"].index) == {"S#", "P#"}
        restored = pickle.loads(pickle.dumps(ops))
        assert [Plan._step_text(op) for op in restored] == [
            Plan._step_text(op) for op in ops
        ]
        assert plan.execute() == run_query(text, db, strategy="tuple").answer
        assert any("index select" in step for step in plan.steps)
        assert any("index-nested-loop join" in step for step in plan.steps)

    def test_compile_refuses_a_plan_whose_index_was_dropped(self, db):
        """The ops name the index; the live object is looked up at
        compile time, so a plan outliving its index fails loudly instead
        of scanning the unfiltered table."""
        from repro.core.errors import StaleResultError

        db.table("SUPPLY").create_index(["S#"], name="supply_s")
        text = "range of s is SUPPLY retrieve (s.QTY) where s.S# = 's1'"
        plan = Plan(compile_query(text, db).query, db)
        assert plan.logical_plan()[1].kind == "index-select"
        db.table("SUPPLY").drop_index("supply_s")
        with pytest.raises(StaleResultError, match="supply_s"):
            plan.compile()


# ---------------------------------------------------------------------------
# Fused residual predicates in the join probe loop
# ---------------------------------------------------------------------------

def emp_dept_database(rows: int = 60, seed: int = 11) -> Database:
    """EMP(NAME, DEPT, SAL) — nullable DEPT — linked to DEPT(DNAME, FLOOR)."""
    rng = random.Random(seed)
    database = Database("emp-dept")
    emp = database.create_table("EMP", ["NAME", "DEPT", "SAL"])
    dept = database.create_table("DEPT", ["DNAME", "FLOOR"])
    for i in range(rows):
        emp.insert({
            "NAME": f"e{i}",
            "DEPT": f"d{rng.randrange(8)}" if rng.random() > 0.3 else None,
            "SAL": rng.randrange(5),
        })
    for j in range(8):
        dept.insert({"DNAME": f"d{j}", "FLOOR": j % 3})
    return database


EMP_DEPT_JOIN = (
    "range of e is EMP range of d is DEPT "
    "retrieve (N = e.NAME, F = d.FLOOR) "
    "where e.DEPT = d.DNAME and e.SAL > d.FLOOR"
)


class TestResidualFusion:
    def test_fused_join_matches_tuple_oracle(self):
        database = emp_dept_database()
        algebra = run_query(EMP_DEPT_JOIN, database, strategy="algebra")
        oracle = run_query(EMP_DEPT_JOIN, database, strategy="tuple")
        assert algebra.answer == oracle.answer
        joins = [s for s in algebra.plan.steps if "equi-join" in s]
        assert len(joins) == 1 and "fused residual" in joins[0]
        assert not any(s.startswith("select residual") for s in algebra.plan.steps)

    def test_probe_join_block_residual_rejects_before_joining(self):
        probe_rows = [XTuple({"e.K": i, "e.V": i * 10}) for i in range(6)]
        build_rows = [XTuple({"K": i, "W": i % 3}) for i in range(6)]
        buckets = build_join_buckets(build_rows, ["K"])
        calls = []

        def residual(left, right):
            calls.append((left["e.K"], right["K"]))
            return right["W"] > 0

        out = probe_join_block(
            probe_rows, ["e.K"], lambda key: buckets.get(key, ()),
            lambda row: row.rename({"K": "d.K", "W": "d.W"}), {}, residual,
        )
        # Every candidate pair was offered to the residual, only the
        # passing ones were joined (W > 0 ⇔ K % 3 != 0).
        assert len(calls) == 6
        assert sorted(row["d.K"] for row in out) == [1, 2, 4, 5]

    def test_fusion_skips_non_conjunctive_shapes(self):
        database = emp_dept_database()
        text = (
            "range of e is EMP range of d is DEPT "
            "retrieve (N = e.NAME) "
            "where e.DEPT = d.DNAME and (e.SAL > d.FLOOR or e.SAL = 0)"
        )
        algebra = run_query(text, database, strategy="algebra")
        # An OR cannot compile to the fast pair predicate: it stays a
        # separate residual selection after the join.
        assert any(s.startswith("select residual") for s in algebra.plan.steps)
        assert algebra.answer == run_query(text, database, strategy="tuple").answer
