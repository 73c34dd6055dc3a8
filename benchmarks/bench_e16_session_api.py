"""E16 — the Session API: prepared-statement caching and QUEL DML batches.

Two claims of the unified-session PR are measured:

* **prepared cache hit vs re-parse/re-plan** — a repeated parameterized
  point lookup through ``session.prepare()`` executes with no lexing, no
  parsing, no analysis and no planning (the cached plan of the template
  only binds the key and probes the table's persistent index); the baseline runs the same text
  through per-call :func:`repro.quel.run_query`, paying the whole
  front-end pipeline every time.  The acceptance bar is ≥ 5× at 10k
  rows.
* **DML batch vs imperative loop** — one ``append … where`` /
  ``delete … where`` statement routes the whole matching set through the
  atomic bulk paths (``insert_many`` / ``delete_many``: constraints
  checked with one indexed pass); the baseline is the imperative Python
  loop of per-row ``Database.insert`` / ``Database.delete`` calls the
  DML statements replace, each paying the per-row key scan (insert) /
  referencing-table scan (FK-restricted delete).

Every measurement first asserts the two sides agree (information-wise
equal answers / final states), so the benchmark doubles as a
differential check.

Run styles:

* under pytest (quick sizes, used by CI as a smoke test):
  ``PYTHONPATH=src python -m pytest benchmarks/bench_e16_session_api.py -q``
* standalone (full sweep, writes results.json):
  ``PYTHONPATH=src python benchmarks/bench_e16_session_api.py``
  (pass ``--quick`` for the small sweep).
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import Callable, List, Tuple

import repro
from repro.constraints.keys import KeyConstraint
from repro.constraints.referential import ForeignKeyConstraint
from repro.core.xrelation import XRelation
from repro.quel.evaluator import run_query
from repro.storage.database import Database

FULL_SIZES = (1_000, 10_000)
QUICK_SIZES = (200, 500)
#: Executions per measurement of the repeated-lookup workload.
REPEATS = 50

LOOKUP_QUERY = 'range of b is BIG retrieve (b.B) where b.A = $a'


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------

def lookup_database(size: int, seed: int) -> Database:
    """BIG(A, B): ~2 rows per A value, indexed on A."""
    rng = random.Random(seed)
    database = Database("e16-lookup")
    big = database.create_table("BIG", ["A", "B"])
    big.insert_many([(rng.randrange(max(size // 2, 2)), i) for i in range(size)])
    big.create_index(["A"], name="big_a")
    return database


def dml_database(size: int, seed: int) -> Database:
    """SRC(A, B) feeding a *keyed* DST: what the DML statements replace
    is constraint-checked imperative mutation, so DST carries a key on B
    (per-row inserts pay the key scan; the batch path indexes once)."""
    rng = random.Random(seed)
    database = Database("e16-dml")
    src = database.create_table("SRC", ["A", "B"])
    src.insert_many([(rng.randrange(10), i) for i in range(size)])
    database.create_table("DST", ["A", "B"], constraints=[KeyConstraint(["B"])])
    return database


def add_referencing_table(database: Database) -> None:
    """REF rows reference every DST row that survives ``d.A < 3`` — the
    delete workload then runs under FK-restrict semantics, where the
    imperative loop re-scans REF per deleted row."""
    survivors = [row["B"] for row in database["DST"].tuples() if row["A"] >= 3]
    ref = database.create_table("REF", ["B"])
    ref.insert_many([(b,) for b in survivors])
    database.add_foreign_key("REF", ForeignKeyConstraint(["B"], "DST", ["B"]))


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


def run_experiments(sizes=FULL_SIZES, metric=None, line=None, enforce=False):
    """Measure both workloads at every size, asserting agreement.

    With *enforce* (the standalone full sweep) the ≥ 5× prepared-vs-text
    acceptance bar is asserted at the largest size.
    """

    def emit(op, variant, rows, seconds, **extra):
        if metric is not None:
            metric(op, seconds, variant=variant, rows=rows, **extra)

    speedups = {}
    for size in sizes:
        # -- (a) prepared cache hit vs per-call run_query ---------------------
        database = lookup_database(size, seed=size)
        session = repro.connect(database)
        prepared = session.prepare(LOOKUP_QUERY)
        rng = random.Random(size + 1)
        keys = [rng.randrange(max(size // 2, 2)) for _ in range(REPEATS)]

        # Answers agree between the prepared statement and the text path.
        probe = {"a": keys[0]}
        assert (
            prepared.execute(probe).to_relation()
            == run_query(LOOKUP_QUERY, database, params=probe).answer
            == run_query(LOOKUP_QUERY, database, params=probe, strategy="tuple").answer
        )
        # The compiled plan really does probe the persistent index, once.
        assert "index select" in prepared.explain(probe)
        compile_count = prepared.compile_count

        def repeat_prepared():
            for k in keys:
                prepared.execute({"a": k})

        def repeat_text():
            for k in keys:
                run_query(LOOKUP_QUERY, database, params={"a": k})

        engine_seconds, _ = _time(repeat_prepared)
        seed_seconds, _ = _time(repeat_text)
        assert prepared.compile_count == compile_count, "unexpected re-plan"
        speedup = round(seed_seconds / engine_seconds, 2)
        speedups[("prepared_lookup", size)] = speedup
        emit("prepared_lookup_repeated", "seed", size, seed_seconds, repeats=REPEATS)
        emit("prepared_lookup_repeated", "engine", size, engine_seconds,
             repeats=REPEATS, speedup=speedup)

        # -- (b) one DML statement vs the imperative loop ---------------------
        # APPEND-from-query into a keyed table: one statement, one
        # indexed constraint pass — the loop re-scans DST per insert.
        statement_db = dml_database(size, seed=size + 2)
        loop_db = dml_database(size, seed=size + 2)
        statement_session = repro.connect(statement_db)

        def append_statement():
            statement_db.table("DST").truncate()
            return statement_session.execute(
                'range of s is SRC append to DST (A = s.A, B = s.B) where s.A < 5'
            ).rows_affected

        def append_loop():
            loop_db.table("DST").truncate()
            count = 0
            for row in list(loop_db["SRC"].tuples()):
                if not row["A"] < 5:
                    continue
                loop_db.insert("DST", row)
                count += 1
            return count

        engine_seconds, _ = _time(append_statement, repeat=1)
        seed_seconds, _ = _time(append_loop, repeat=1)
        assert XRelation(statement_db["DST"]) == XRelation(loop_db["DST"])
        emit("append_batch", "seed", size, seed_seconds)
        emit("append_batch", "engine", size, engine_seconds,
             speedup=round(seed_seconds / engine_seconds, 2))

        # DELETE under FK-restrict: one statement indexes the referencing
        # table once — the loop re-scans it per deleted row.
        add_referencing_table(statement_db)
        add_referencing_table(loop_db)

        def delete_statement():
            return statement_session.execute(
                'range of d is DST delete d where d.A < 3'
            ).rows_affected

        def delete_loop():
            doomed = [r for r in loop_db["DST"].tuples() if r["A"] < 3]
            count = 0
            for row in doomed:
                count += loop_db.delete("DST", row)
            return count

        engine_seconds, _ = _time(delete_statement, repeat=1)
        seed_seconds, _ = _time(delete_loop, repeat=1)
        assert XRelation(statement_db["DST"]) == XRelation(loop_db["DST"])
        emit("delete_batch", "seed", size, seed_seconds)
        emit("delete_batch", "engine", size, engine_seconds,
             speedup=round(seed_seconds / engine_seconds, 2))

        if line is not None:
            line(f"n={size}: prepared/text and statement/loop answers agree "
                 f"(prepared lookup speedup {speedup}x)")

    if enforce:
        largest = max(sizes)
        achieved = speedups[("prepared_lookup", largest)]
        assert achieved >= 5.0, (
            f"prepared-statement speedup {achieved}x at n={largest} "
            f"is below the 5x acceptance bar"
        )


# ---------------------------------------------------------------------------
# pytest entry point (quick smoke + agreement assertions)
# ---------------------------------------------------------------------------

def test_session_api_vs_baselines_quick(record):
    """Quick-mode sweep: asserts agreement, records metrics."""
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

    recorder = conftest.ExperimentRecorder("e16_session_api")
    run_experiments(
        sizes=sizes, metric=recorder.metric, line=recorder.line,
        enforce=not quick,
    )

    results_path = os.path.join(here, "results.json")
    conftest.write_results_json(results_path)

    metrics = conftest._METRICS["e16_session_api"]
    by_key = {(m["op"], m["variant"], m["rows"]): m for m in metrics}
    print(f"{'op':<26} {'rows':>6} {'seed s':>10} {'engine s':>10} {'speedup':>8}")
    for op in ("prepared_lookup_repeated", "append_batch", "delete_batch"):
        for size in sizes:
            seed = by_key.get((op, "seed", size))
            engine = by_key.get((op, "engine", size))
            if seed and engine:
                print(
                    f"{op:<26} {size:>6} {seed['seconds']:>10.4f} "
                    f"{engine['seconds']:>10.4f} "
                    f"{seed['seconds'] / engine['seconds']:>7.1f}x"
                )
    print(f"\nwrote {results_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
