"""Parallel partitioned execution: Exchange/Merge edge cases.

What must hold, whatever the partitioning does:

* correctness never depends on the shard layout — empty partitions,
  single-row shards and everything hashing to one worker all reproduce
  the serial answer (the Merge reduction reconciles any shard frontier);
* ``parallelism=1`` *is* the serial plan, block for block;
* a worker exception surfaces cleanly through the pipeline (latched and
  re-raised, like any operator error) and leaves no orphaned processes;
* the auto heuristic and the partitioning kernels behave as documented.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.core.engine.dominance import (
    bulk_reduce,
    merge_reduced,
    partition_rows_by_signature,
)
from repro.core.engine.joins import build_join_buckets, probe_join_block
from repro.core.relation import RelationSchema
from repro.core.tuples import XTuple
from repro.exec import (
    Exchange,
    LogicalOp,
    Merge,
    Pipeline,
    PlanFragment,
    partition_rows_by_key,
)
from repro.quel import compile_query
from repro.quel.planner import Plan
from repro.stats import suggest_parallelism
from repro.storage import Database


def make_database(rows: int = 60, seed: int = 11) -> Database:
    """EMP(NAME, DEPT, SAL) — nullable DEPT — linked to DEPT(DNAME, FLOOR)."""
    rng = random.Random(seed)
    db = Database("parallel")
    emp = db.create_table("EMP", ["NAME", "DEPT", "SAL"])
    dept = db.create_table("DEPT", ["DNAME", "FLOOR"])
    for i in range(rows):
        emp.insert({
            "NAME": f"e{i}",
            "DEPT": f"d{rng.randrange(8)}" if rng.random() > 0.3 else None,
            "SAL": rng.randrange(5),
        })
    for j in range(8):
        dept.insert({"DNAME": f"d{j}", "FLOOR": j % 3})
    return db


JOIN_QUERY = (
    "range of e is EMP range of d is DEPT "
    "retrieve (N = e.NAME, F = d.FLOOR) "
    "where e.DEPT = d.DNAME and e.SAL > d.FLOOR"
)
SINGLE_RANGE_QUERY = "range of e is EMP retrieve (D = e.DEPT, S = e.SAL)"
PRODUCT_QUERY = (
    "range of e is EMP range of d is DEPT "
    "retrieve (N = e.NAME, F = d.FLOOR) where e.SAL > d.FLOOR"
)


def answers_for(db: Database, text: str, **plan_kwargs):
    analyzed = compile_query(text, db)
    plan = Plan(analyzed.query, db, **plan_kwargs)
    return plan, plan.execute()


# ---------------------------------------------------------------------------
# Partitioning kernels
# ---------------------------------------------------------------------------

class TestPartitioningKernels:
    def test_partition_count_must_be_positive(self):
        with pytest.raises(ValueError):
            partition_rows_by_signature([], 0)
        with pytest.raises(ValueError):
            partition_rows_by_key([], ["A"], 0)

    def test_key_partitioning_drops_null_key_rows(self):
        rows = [XTuple({"A": 1, "B": 2}), XTuple({"B": 3}), XTuple({"A": 4})]
        shards = partition_rows_by_key(rows, ["A"], 3)
        scattered = [row for shard in shards for row in shard]
        # The row null on A can never satisfy an equality on A.
        assert sorted(r["B"] if "B" in r.attributes else 0 for r in scattered) == [0, 2]

    def test_key_partitioning_copartitions_equal_keys(self):
        left = [XTuple({"A": i % 5, "L": i}) for i in range(40)]
        right = [XTuple({"B": i % 5, "R": i}) for i in range(40)]
        left_shards = partition_rows_by_key(left, ["A"], 3)
        right_shards = partition_rows_by_key(right, ["B"], 3)
        placement = {}
        for index, shard in enumerate(left_shards):
            for row in shard:
                placement.setdefault(row["A"], set()).add(index)
        for index, shard in enumerate(right_shards):
            for row in shard:
                placement.setdefault(row["B"], set()).add(index)
        # Every key value lives in exactly one partition, on both sides.
        assert all(len(indices) == 1 for indices in placement.values())

    def test_signature_sharding_then_merge_equals_bulk_reduce(self):
        rng = random.Random(3)
        rows = []
        for _ in range(300):
            values = {}
            for attribute in ("A", "B", "C"):
                if rng.random() > 0.4:
                    values[attribute] = rng.randrange(4)
            if values:
                rows.append(XTuple(values))
        for partitions in (1, 2, 3, 5):
            shards = partition_rows_by_signature(rows, partitions)
            assert sum(len(s) for s in shards) == len(rows)
            locally_reduced = [bulk_reduce(shard) for shard in shards]
            assert set(merge_reduced(locally_reduced)) == set(bulk_reduce(rows))


# ---------------------------------------------------------------------------
# Exchange/Merge over real plans
# ---------------------------------------------------------------------------

class TestExchangeEdgeCases:
    @pytest.mark.parametrize("text", [JOIN_QUERY, SINGLE_RANGE_QUERY, PRODUCT_QUERY])
    @pytest.mark.parametrize("partitions", [2, 4])
    def test_parallel_matches_serial(self, no_multiprocessing, text, partitions):
        db = make_database()
        _, serial = answers_for(db, text)
        _, parallel = answers_for(db, text, parallelism=partitions)
        assert set(parallel.rows()) == set(serial.rows())

    def test_process_mode_matches_serial(self):
        db = make_database()
        _, serial = answers_for(db, JOIN_QUERY)
        _, parallel = answers_for(db, JOIN_QUERY, parallelism=2)
        assert set(parallel.rows()) == set(serial.rows())

    def test_more_partitions_than_rows_leaves_empty_shards(self, no_multiprocessing):
        db = Database("tiny")
        emp = db.create_table("EMP", ["NAME", "DEPT", "SAL"])
        dept = db.create_table("DEPT", ["DNAME", "FLOOR"])
        emp.insert({"NAME": "e0", "DEPT": "d0", "SAL": 4})
        emp.insert({"NAME": "e1", "DEPT": "d1", "SAL": 4})
        dept.insert({"DNAME": "d0", "FLOOR": 0})
        dept.insert({"DNAME": "d1", "FLOOR": 1})
        _, serial = answers_for(db, JOIN_QUERY)
        plan, parallel = answers_for(db, JOIN_QUERY, parallelism=6)
        assert set(parallel.rows()) == set(serial.rows())
        exchange = plan.pipeline.root.child
        assert isinstance(exchange, Exchange)
        # More partitions than rows: some shards are necessarily empty,
        # every partition still ran and reported stats.
        assert 0 in exchange.partitioned_rows
        assert all(stats is not None for stats in exchange.partition_stats)

    def test_single_row_shards_reconcile(self, no_multiprocessing):
        # Hand-built partitions, one row each — no hashing involved.
        rows = [XTuple({"A": i, "B": i % 2}) for i in range(5)]
        fragment = PlanFragment(
            ops=(
                LogicalOp("rename", variable="v", described="V"),
                LogicalOp("project", targets=(("A", "v.A"), ("B", "v.B"))),
            ),
            mappings={"v": {"A": "v.A", "B": "v.B"}},
            start="v",
        )
        exchange = Exchange(fragment, [{"v": [row]} for row in rows])
        pipeline = Pipeline(Merge(exchange), RelationSchema(("A", "B"), name="Q"), [])
        answer = pipeline.run()
        assert set(answer.rows()) == set(rows)

    def test_all_rows_hashing_to_one_worker(self, no_multiprocessing):
        db = Database("skewed")
        emp = db.create_table("EMP", ["NAME", "DEPT", "SAL"])
        dept = db.create_table("DEPT", ["DNAME", "FLOOR"])
        for i in range(20):
            emp.insert({"NAME": f"e{i}", "DEPT": "d0", "SAL": 4})
        dept.insert({"DNAME": "d0", "FLOOR": 1})
        _, serial = answers_for(db, JOIN_QUERY)
        plan, parallel = answers_for(db, JOIN_QUERY, parallelism=3)
        assert set(parallel.rows()) == set(serial.rows())
        exchange = plan.pipeline.root.child
        # A single join-key value: every partitioned row lands in one
        # shard, the other workers run empty, and the skew says so.
        counts = sorted(exchange.partitioned_rows)
        assert counts[:-1] == [0, 0] and counts[-1] == 21
        assert exchange.skew == pytest.approx(3.0)

    def test_parallelism_one_is_the_serial_tree_block_for_block(self):
        db = make_database()
        analyzed = compile_query(JOIN_QUERY, db)
        serial_blocks = [
            list(block) for block in Plan(analyzed.query, db).compile().root.blocks()
        ]
        one_blocks = [
            list(block)
            for block in Plan(analyzed.query, db).compile(parallelism=1).root.blocks()
        ]
        assert one_blocks == serial_blocks

    def test_explain_analyze_reports_partitions_and_skew(self, no_multiprocessing):
        db = make_database()
        plan, _ = answers_for(db, JOIN_QUERY, parallelism=3)
        rendered = plan.pipeline.explain(analyze=True)
        assert "Exchange [3 partitions" in rendered
        assert "skew=" in rendered
        assert "Merge [reduce shard frontier]" in rendered
        for index in range(3):
            assert f"partition {index} [rows_in=" in rendered
        # The logical step trace carries the aggregated per-worker counts.
        joined = "\n".join(plan.pipeline.step_lines())
        assert "exchange over 3 partitions" in joined
        assert "hash equi-join" in joined and "rows=" in joined

    def test_index_backed_plans_resolve_at_the_coordinator(self, no_multiprocessing):
        db = make_database(rows=40)
        # EMP is the larger range, so the planner starts from DEPT and
        # joins EMP as the build side — the index on EMP.DEPT makes the
        # serial join an index-nested-loop.
        db.catalog.table("EMP").create_index(["DEPT"])
        analyzed = compile_query(JOIN_QUERY, db)
        serial_plan = Plan(analyzed.query, db)
        serial = serial_plan.execute()
        # The serial plan's join consults the persistent index...
        assert any("index" in step for step in serial_plan.steps)
        parallel_plan = Plan(analyzed.query, db, parallelism=2)
        parallel = parallel_plan.execute()
        # ...while workers (shared-nothing) get the same answer without it.
        assert set(parallel.rows()) == set(serial.rows())


# ---------------------------------------------------------------------------
# Worker failure
# ---------------------------------------------------------------------------

class ExplodingPredicate:
    """A picklable predicate whose evaluation always fails in the worker."""

    def references(self):
        return ["v"]

    def evaluate(self, binding):
        raise RuntimeError("boom in worker")

    def __repr__(self):
        return "ExplodingPredicate()"


def _filter_exchange(conjunct) -> Exchange:
    """A hand-built two-shard exchange: scan → filter by *conjunct* → project."""
    rows = [XTuple({"A": i}) for i in range(8)]
    fragment = PlanFragment(
        ops=(
            LogicalOp("rename", variable="v", described="V"),
            LogicalOp("select-var-residual", variable="v", conjunct=conjunct),
            LogicalOp("project", targets=(("A", "v.A"),)),
        ),
        mappings={"v": {"A": "v.A"}},
        start="v",
    )
    return Exchange(fragment, [{"v": rows[:4]}, {"v": rows[4:]}])


def _pipeline_over(exchange: Exchange) -> Pipeline:
    return Pipeline(Merge(exchange), RelationSchema(("A",), name="Q"), [])


def _exploding_pipeline() -> Pipeline:
    return _pipeline_over(_filter_exchange(ExplodingPredicate()))


class PidRecordingPredicate:
    """A picklable always-TRUE predicate noting which process evaluated it."""

    pids: set = set()

    def references(self):
        return ["v"]

    def evaluate(self, binding):
        import os

        from repro.core.threevalued import TRUE

        self.pids.add(os.getpid())
        return TRUE

    def __repr__(self):
        return "PidRecordingPredicate()"


def test_without_multiprocessing_fragments_run_in_this_process(no_multiprocessing):
    """The fallback in ``Exchange._results``: when no worker context can
    be had, every fragment still runs — here, in the coordinator."""
    import os

    PidRecordingPredicate.pids.clear()
    exchange = _filter_exchange(PidRecordingPredicate())
    answer = _pipeline_over(exchange).run()
    assert {row["A"] for row in answer.rows()} == set(range(8))
    assert PidRecordingPredicate.pids == {os.getpid()}
    assert all(stats is not None for stats in exchange.partition_stats)


class TestWorkerFailure:
    def check_propagates_and_latches(self):
        pipeline = _exploding_pipeline()
        with pytest.raises(RuntimeError, match="boom in worker"):
            pipeline.run()
        # The failure is latched: later consumption re-raises instead of
        # passing off the partial prefix as the answer.
        with pytest.raises(RuntimeError, match="boom in worker"):
            pipeline.run()
        with pytest.raises(RuntimeError, match="boom in worker"):
            list(pipeline.iter_rows())

    def test_worker_process_exception_propagates_and_latches(self):
        self.check_propagates_and_latches()

    def test_in_process_exception_propagates_and_latches(self, no_multiprocessing):
        self.check_propagates_and_latches()

    def test_failed_query_leaves_no_orphaned_processes(self):
        pipeline = _exploding_pipeline()
        with pytest.raises(RuntimeError, match="boom in worker"):
            pipeline.run()
        # The pool was terminated and joined in the exchange's finally
        # block; reap anything still shutting down, then require quiet.
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# The auto heuristic
# ---------------------------------------------------------------------------

class TestSuggestParallelism:
    def test_below_threshold_is_serial(self):
        assert suggest_parallelism(100, cpu_count=8, available=True) == 1
        assert suggest_parallelism(49_999, cpu_count=8, available=True) == 1

    def test_above_threshold_caps_by_cpu_and_max_workers(self):
        assert suggest_parallelism(200_000, cpu_count=2, available=True) == 2
        assert suggest_parallelism(200_000, cpu_count=16, available=True) == 4
        assert suggest_parallelism(
            200_000, cpu_count=16, max_workers=8, available=True
        ) == 8

    def test_unavailable_multiprocessing_means_serial(self):
        assert suggest_parallelism(10**9, cpu_count=64, available=False) == 1

    def test_auto_resolves_to_serial_on_small_inputs(self):
        db = make_database(rows=30)
        analyzed = compile_query(JOIN_QUERY, db)
        plan = Plan(analyzed.query, db)
        assert plan._resolve_parallelism("auto") == 1

    def test_explicit_zero_and_none_are_serial(self):
        db = make_database(rows=10)
        analyzed = compile_query(JOIN_QUERY, db)
        plan = Plan(analyzed.query, db)
        assert plan._resolve_parallelism(None) == 1
        assert plan._resolve_parallelism(0) == 1
        with pytest.raises(ValueError):
            plan._resolve_parallelism(-2)


# ---------------------------------------------------------------------------
# Fused residual predicates in the join probe loop
# ---------------------------------------------------------------------------

class TestResidualFusion:
    def test_fused_join_matches_tuple_oracle(self):
        from repro.quel.evaluator import run_query

        db = make_database()
        algebra = run_query(JOIN_QUERY, db, strategy="algebra")
        oracle = run_query(JOIN_QUERY, db, strategy="tuple")
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
        from repro.quel.evaluator import run_query

        db = make_database()
        text = (
            "range of e is EMP range of d is DEPT "
            "retrieve (N = e.NAME) "
            "where e.DEPT = d.DNAME and (e.SAL > d.FLOOR or e.SAL = 0)"
        )
        algebra = run_query(text, db, strategy="algebra")
        # An OR cannot compile to the fast pair predicate: it stays a
        # separate residual selection after the join.
        assert any(s.startswith("select residual") for s in algebra.plan.steps)
        assert algebra.answer == run_query(text, db, strategy="tuple").answer
