"""E22 — Optimizer v2: histograms, DP join enumeration, result cache.

Three workloads, each pinning one of the Optimizer v2 claims:

* **range_plan** — per-attribute equi-depth histograms turn range
  selectivity from the textbook 1/3 into a data-driven estimate: on a
  skewed two-range join the pre-ANALYZE plan starts from the wrong
  range (its range filter looks 1/3-selective but actually keeps ~1%);
  after ANALYZE the estimate tightens by >5x and the join order flips.
* **dp_4way** — Selinger-style DP enumeration on a 4-way chain with a
  trap: the smallest table's only join link explodes, so an order that
  starts from the min-estimate range builds intermediates ~10x the
  answer.  The plan must start from the selective filtered range and
  walk the chain from there (recorded ratios vs the former greedy
  enumerator: ROADMAP architecture notes).
* **result_cache** — the semantic result cache: repeating a retrieve
  on an unchanged table answers from the cache (>=10x faster at 10k
  rows) with hit/miss/entry counters in the Prometheus rendering.

Every workload asserts answer agreement (cache-on == cache-off,
post-ANALYZE == pre-ANALYZE plan, DP plan == a plain dict-join
reference), so the benchmark doubles as a differential check.

Run styles:

* under pytest (quick sizes, used by CI as a smoke test):
  ``PYTHONPATH=src python -m pytest benchmarks/bench_e22_optimizer_v2.py -q``
* standalone (full sweep, writes results.json):
  ``PYTHONPATH=src python benchmarks/bench_e22_optimizer_v2.py``
  (pass ``--quick`` for the small sweep).
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import Callable, List, Tuple

from repro.api.session import Session
from repro.obs import MetricsRegistry, registry_for
from repro.quel.evaluator import compile_query
from repro.quel.planner import Plan
from repro.stats import DEFAULT_COST_MODEL
from repro.storage.database import Database

FULL_SIZES = (1_000, 10_000)
QUICK_SIZES = (200, 500)
#: Cache-hit repetitions per timed measurement.
REPEATS = 5

RANGE_QUERY = (
    "range of r is R range of s is S retrieve (r.RID, s.SID) "
    "where r.X < 10 and s.C = 1 and r.K = s.K"
)

TRAP_QUERY = (
    "range of a is A range of b is B range of g is BIG range of t is TRAP "
    "retrieve (a.U, t.W) "
    "where a.S = 1 and a.U = b.U and b.V = g.V and g.F = t.F"
)

CACHE_QUERY = "range of t is T retrieve (t.A, t.B) where t.B != 3"


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------

def range_database(size: int, seed: int) -> Database:
    """R.X uniform over [0, 1000) — ``X < 10`` keeps ~1%, not 1/3;
    S.C = 1 holds on ~30% of rows but has 10 distinct values."""
    rng = random.Random(seed)
    database = Database("e22-range")
    r = database.create_table("R", ["X", "K", "RID"])
    s = database.create_table("S", ["K", "C", "SID"])
    r.insert_many(
        [(rng.randrange(1000), rng.randrange(50), i) for i in range(size)]
    )
    s.insert_many([
        (rng.randrange(50), 1 if rng.random() < 0.3 else 2 + rng.randrange(8), i)
        for i in range(size)
    ])
    return database


def trap_database(size: int, seed: int) -> Database:
    """A —U— B —V— BIG —F— TRAP: TRAP is the smallest range (where a
    smallest-first order would start) but its only link, BIG.F, has 5
    distinct values — a join from there explodes to ~2x BIG's selected
    share, while DP starts from the filtered A end and keeps every
    intermediate at answer size."""
    rng = random.Random(seed)
    database = Database("e22-trap")
    a = database.create_table("A", ["S", "U"])
    b = database.create_table("B", ["U", "V"])
    big = database.create_table("BIG", ["V", "F"])
    trap = database.create_table("TRAP", ["F", "W"])
    a.insert_many([(i % 10, i % 200) for i in range(200)])
    b.insert_many([(i % 200, i) for i in range(200)])
    big.insert_many(
        [(rng.randrange(200), rng.randrange(5)) for _ in range(size)]
    )
    trap.insert_many([(i % 5, i) for i in range(10)])
    database.analyze()
    return database


def trap_reference(database: Database) -> set:
    """TRAP_QUERY's answer by plain dict joins over the (null-free)
    tables — the tuple-at-a-time oracle would enumerate |A|·|B|·|BIG|·|TRAP|
    bindings."""
    def rows(name):
        return list(database.catalog.table(name).rows())

    def by(name, attribute):
        index: dict = {}
        for row in rows(name):
            index.setdefault(row[attribute], []).append(row)
        return index

    b_by_u, g_by_v, t_by_f = by("B", "U"), by("BIG", "V"), by("TRAP", "F")
    return {
        (a["U"], t["W"])
        for a in rows("A") if a["S"] == 1
        for b in b_by_u.get(a["U"], ())
        for g in g_by_v.get(b["V"], ())
        for t in t_by_f.get(g["F"], ())
    }


def cache_database(size: int, seed: int) -> Database:
    database = Database("e22-cache", metrics=MetricsRegistry())
    table = database.create_table("T", ["A", "B"])
    table.insert_many([(i, i % 97) for i in range(size)])
    database.analyze()
    return database


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------

def _time(fn: Callable[[], object], repeat: int = 3) -> Tuple[float, object]:
    """Wall time of *fn* — best of *repeat* runs."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _join_steps(plan: Plan) -> List[str]:
    return [step for step in plan.steps if "join" in step]


def run_experiments(sizes=FULL_SIZES, metric=None, line=None):
    """Measure all three workloads at every size, asserting agreement."""

    def emit(op, variant, rows, seconds, **extra):
        if metric is not None:
            metric(op, seconds, variant=variant, rows=rows, **extra)

    for size in sizes:
        # -- (a) histogram-driven range selectivity → plan choice ------------
        database = range_database(size, seed=size)
        query = compile_query(RANGE_QUERY, database).query
        seed_seconds, seed_answer = _time(lambda: Plan(query, database).execute())
        before = Plan(query, database)
        before.execute()
        database.analyze()
        engine_seconds, engine_answer = _time(lambda: Plan(query, database).execute())
        after = Plan(query, database)
        after.execute()
        assert engine_answer == seed_answer
        # ANALYZE built histograms: the range estimate tightens >5x ...
        stats = database.catalog.table("R").statistics
        actual = sum(1 for row in database.catalog.table("R").rows()
                     if row.get("X", None) is not None and row["X"] < 10)
        theta_est = DEFAULT_COST_MODEL.estimate_selection(stats, "X", "<")
        hist_est = DEFAULT_COST_MODEL.estimate_selection(stats, "X", "<", value=10)
        assert abs(hist_est - actual) * 5 < abs(theta_est - actual)
        # ... and the join order actually flipped.
        assert _join_steps(before) != _join_steps(after)
        emit("range_plan", "seed", size, seed_seconds,
             estimate_error=round(abs(theta_est - actual) / max(actual, 1), 3))
        emit("range_plan", "engine", size, engine_seconds,
             estimate_error=round(abs(hist_est - actual) / max(actual, 1), 3))

        # -- (b) 4-way join: the DP-chosen order ------------------------------
        database = trap_database(size, seed=size + 1)
        query = compile_query(TRAP_QUERY, database).query
        plan = Plan(query, database)
        dp_seconds, dp_answer = _time(plan.execute)
        assert {(r["a_U"], r["t_W"]) for r in dp_answer.rows()} == trap_reference(database)
        # The order avoids the trap: from the filtered A end along the
        # chain, TRAP (the smallest range) joined last.
        assert [step.split()[3] for step in _join_steps(plan)] == ["b", "g", "t"]
        emit("dp_4way", "engine", size, dp_seconds)

        # -- (c) semantic result cache ----------------------------------------
        database = cache_database(size, seed=size + 3)
        cached = Session(database)
        uncached = Session(database, result_cache_size=0)
        assert cached.execute(CACHE_QUERY).rows == uncached.execute(CACHE_QUERY).rows
        cached.execute(CACHE_QUERY).rows  # first hit pays the sort memo

        def run(session):
            return session.execute(CACHE_QUERY).rows

        miss_seconds, _ = _time(lambda: run(uncached), repeat=REPEATS)
        hit_seconds, _ = _time(lambda: run(cached), repeat=REPEATS)
        speedup = miss_seconds / hit_seconds
        if size >= 10_000:
            assert speedup >= 10.0, (
                f"cache hit speedup {speedup:.1f}x < 10x at {size} rows"
            )
        rendered = registry_for(database).render_prometheus()
        assert 'repro_result_cache_total{event="hit"}' in rendered
        assert 'repro_result_cache_total{event="miss"}' in rendered
        assert "repro_result_cache_entries" in rendered
        emit("result_cache", "seed", size, miss_seconds)
        emit("result_cache", "engine", size, hit_seconds,
             speedup=round(speedup, 2))

        if line is not None:
            line(
                f"n={size}: range-plan flip + DP order a→b→g→t + "
                f"{round(speedup, 1)}x cache hits (metrics in results.json)"
            )


# ---------------------------------------------------------------------------
# pytest entry point (quick smoke + agreement assertions)
# ---------------------------------------------------------------------------

def test_optimizer_v2_quick(record):
    """Quick-mode sweep: asserts agreement + plan-quality claims."""
    run_experiments(sizes=QUICK_SIZES, metric=record.metric, line=record.line)


# ---------------------------------------------------------------------------
# Standalone entry point (full sweep, writes benchmarks/results.json)
# ---------------------------------------------------------------------------

def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    sizes = QUICK_SIZES if quick else FULL_SIZES

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import conftest  # the benchmark harness recorder/writer

    recorder = conftest.ExperimentRecorder("e22_optimizer_v2")
    run_experiments(sizes=sizes, metric=recorder.metric, line=recorder.line)

    results_path = os.path.join(here, "results.json")
    conftest.write_results_json(results_path)

    metrics = conftest._METRICS["e22_optimizer_v2"]
    by_key = {(m["op"], m["variant"], m["rows"]): m for m in metrics}
    print(f"{'op':<22} {'rows':>6} {'seed s':>10} {'engine s':>10} {'speedup':>8}")
    for op in ("range_plan", "result_cache"):
        for size in sizes:
            seed = by_key.get((op, "seed", size))
            engine = by_key.get((op, "engine", size))
            if seed and engine:
                ratio = (
                    seed["seconds"] / engine["seconds"]
                    if engine["seconds"] > 0 else float("inf")
                )
                print(
                    f"{op:<22} {size:>6} {seed['seconds']:>10.4f} "
                    f"{engine['seconds']:>10.4f} {ratio:>7.1f}x"
                )
    print(f"\nwrote {results_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
