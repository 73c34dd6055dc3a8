"""E22 — Optimizer v2: the semantic result cache.

* **result_cache** — repeating a retrieve on an unchanged table answers
  from the cache (>=10x faster at 10k rows) with hit/miss/entry counters
  in the Prometheus rendering.

The workload asserts answer agreement (cache-on == cache-off), so the
benchmark doubles as a differential check.  Optimizer v2 also shipped
equi-depth histograms and a DP join enumerator; both were measured to
change no plan on the end-to-end workloads and were deleted (README,
"Optimizer v2: verdicts").

Run styles:

* under pytest (quick sizes, used by CI as a smoke test):
  ``PYTHONPATH=src python -m pytest benchmarks/bench_e22_optimizer_v2.py -q``
* standalone (full sweep, writes results.json):
  ``PYTHONPATH=src python benchmarks/bench_e22_optimizer_v2.py``
  (pass ``--quick`` for the small sweep).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, List, Tuple

from repro.api.session import Session
from repro.obs import MetricsRegistry, registry_for
from repro.storage.database import Database

FULL_SIZES = (1_000, 10_000)
QUICK_SIZES = (200, 500)
#: Cache-hit repetitions per timed measurement.
REPEATS = 5

CACHE_QUERY = "range of t is T retrieve (t.A, t.B) where t.B != 3"


# ---------------------------------------------------------------------------
# Workload builder
# ---------------------------------------------------------------------------

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


def run_experiments(sizes=FULL_SIZES, metric=None, line=None):
    """Measure the result cache at every size, asserting agreement."""

    def emit(op, variant, rows, seconds, **extra):
        if metric is not None:
            metric(op, seconds, variant=variant, rows=rows, **extra)

    for size in sizes:
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
                f"n={size}: {round(speedup, 1)}x cache hits "
                f"(metrics in results.json)"
            )


# ---------------------------------------------------------------------------
# pytest entry point (quick smoke + agreement assertions)
# ---------------------------------------------------------------------------

def test_optimizer_v2_quick(record):
    """Quick-mode sweep: asserts agreement + the cache counters."""
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
    for size in sizes:
        seed = by_key.get(("result_cache", "seed", size))
        engine = by_key.get(("result_cache", "engine", size))
        if seed and engine:
            ratio = (
                seed["seconds"] / engine["seconds"]
                if engine["seconds"] > 0 else float("inf")
            )
            print(
                f"{'result_cache':<22} {size:>6} {seed['seconds']:>10.4f} "
                f"{engine['seconds']:>10.4f} {ratio:>7.1f}x"
            )
    print(f"\nwrote {results_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
