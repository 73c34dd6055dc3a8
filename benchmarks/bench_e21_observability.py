"""E21 — observability overhead: instrumentation must cost ≤ 5%.

The observability PR instruments every layer (session, planner,
executor, WAL, statistics).  Its acceptance bar is that the hot paths
the earlier benchmarks certified do not give their wins back:

* **E16 prepared lookup** — ``prepared.execute`` in a tight loop.  The
  prepared statement's own ``execute`` is deliberately untraced (only ``Session.execute``
  opens a :class:`~repro.obs.QueryTrace`), so its per-call cost is a
  handful of cached-child lookups at most.
* **E14 bulk load** — ``insert_many`` into a keyed table.  Storage-layer
  bulk mutation emits no per-row metrics at all (WAL metrics are
  per-record, statistics gauges are scrape-time), so the loop must be
  byte-for-byte the uninstrumented one.
* **traced lookup** (recorded, not gated) — the same lookup through
  ``session.execute``, which pays for a full trace per statement: phase
  timers, the trace ring buffer, counters and a histogram observation.

Each workload runs twice on identical databases: once against a live
:class:`~repro.obs.MetricsRegistry` and once against
``repro.obs.disabled_registry()``, whose families hand out shared no-op
children — the true uninstrumented baseline.  The standalone full sweep
enforces ``instrumented/disabled − 1 ≤ 5%`` on the two gated paths.

Run styles:

* under pytest (quick sizes, used by CI as a smoke test):
  ``PYTHONPATH=src python -m pytest benchmarks/bench_e21_observability.py -q``
* standalone (full sweep, writes results.json, enforces the gate):
  ``PYTHONPATH=src python benchmarks/bench_e21_observability.py``
  (pass ``--quick`` for the small sweep).
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import sys
import time
from typing import Callable, List, Tuple

import repro
from repro.constraints.keys import KeyConstraint
from repro.obs import MetricsRegistry, disabled_registry
from repro.storage.database import Database

FULL_SIZES = (10_000,)
QUICK_SIZES = (500,)
#: Lookups per measurement — large enough that one measurement is tens
#: of milliseconds, so the 5% gate is above timer noise.
FULL_LOOKUPS = 400
QUICK_LOOKUPS = 60

#: The two paths the gate protects (the traced path is informational).
GATED_OPS = ("prepared_lookup", "bulk_load")
OVERHEAD_GATE = 0.05

LOOKUP_QUERY = 'range of b is BIG retrieve (b.B) where b.A = $a'


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------

def lookup_database(size: int, seed: int, registry: MetricsRegistry) -> Database:
    """BIG(A, B): ~2 rows per A value, indexed on A (the E16 shape)."""
    rng = random.Random(seed)
    database = Database("e21-lookup", metrics=registry)
    big = database.create_table("BIG", ["A", "B"])
    big.insert_many([(rng.randrange(max(size // 2, 2)), i) for i in range(size)])
    big.create_index(["A"], name="big_a")
    return database


def _time_pair(
    disabled_run: Callable[[], object],
    instrumented_run: Callable[[], object],
    rounds: int = 7,
) -> Tuple[float, float, float]:
    """Time both variants and estimate the overhead ratio robustly.

    Returns ``(disabled_best, instrumented_best, overhead)`` where the
    overhead is the **median of per-round paired ratios** — each round
    runs disabled then instrumented back to back (so both see the same
    machine conditions) with the cyclic GC paused, and the median
    discards preempted rounds.  Sequential best-of blocks measure ±10%
    "overhead" between *identical* binaries on a busy single-core box;
    this protocol gets the noise floor under ~3%, which is what makes a
    5% gate enforceable.
    """
    best = [float("inf"), float("inf")]
    ratios = []
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            disabled_run()
            middle = time.perf_counter()
            instrumented_run()
            end = time.perf_counter()
        finally:
            gc.enable()
        best[0] = min(best[0], middle - start)
        best[1] = min(best[1], end - middle)
        ratios.append((end - middle) / (middle - start))
    return best[0], best[1], statistics.median(ratios) - 1.0


def _lookup_run(
    size: int, registry: MetricsRegistry, lookups: int, traced: bool
) -> Callable[[], None]:
    """A warmed repeated-lookup closure bound to its own database."""
    database = lookup_database(size, seed=size, registry=registry)
    session = repro.connect(database)
    prepared = session.prepare(LOOKUP_QUERY)
    rng = random.Random(size + 1)
    keys = [rng.randrange(max(size // 2, 2)) for _ in range(lookups)]
    prepared.execute({"a": keys[0]})  # warm the compiled plan

    if traced:
        def run():
            for k in keys:
                session.execute(LOOKUP_QUERY, {"a": k}).rows
    else:
        def run():
            for k in keys:
                prepared.execute({"a": k})
    return run


def measure_lookup(
    size: int, lookups: int, traced: bool
) -> Tuple[float, float, float]:
    return _time_pair(
        _lookup_run(size, disabled_registry(), lookups, traced),
        _lookup_run(size, MetricsRegistry(), lookups, traced),
    )


def measure_bulk_load(size: int) -> Tuple[float, float, float]:
    """The E14 shape: ``insert_many`` into a keyed table (one indexed
    constraint pass), rebuilt fresh per run."""
    rows = [(i % 10, i) for i in range(size)]

    def load_run(registry: MetricsRegistry) -> Callable[[], None]:
        def run():
            database = Database("e21-load", metrics=registry)
            database.create_table(
                "DST", ["A", "B"], constraints=[KeyConstraint(["B"])]
            )
            database.table("DST").insert_many(rows)
        return run

    return _time_pair(
        load_run(disabled_registry()), load_run(MetricsRegistry())
    )


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def run_experiments(sizes=FULL_SIZES, lookups=FULL_LOOKUPS,
                    metric=None, line=None, enforce=False):
    """Measure every workload instrumented vs disabled at every size.

    With *enforce* (the standalone full sweep) the ≤ 5% overhead gate is
    asserted on the two protected hot paths at the largest size.
    """

    def emit(op, variant, rows, seconds, **extra):
        if metric is not None:
            metric(op, seconds, variant=variant, rows=rows, **extra)

    overheads = {}
    for size in sizes:
        measurements = {
            "prepared_lookup": lambda: measure_lookup(size, lookups, traced=False),
            "traced_lookup": lambda: measure_lookup(size, lookups, traced=True),
            "bulk_load": lambda: measure_bulk_load(size),
        }
        for op, measure in measurements.items():
            disabled_seconds, instrumented_seconds, overhead = measure()
            overheads[(op, size)] = overhead
            emit(op, "disabled", size, disabled_seconds)
            emit(op, "instrumented", size, instrumented_seconds,
                 overhead=round(overhead, 4))
            if line is not None:
                line(f"n={size} {op}: disabled {disabled_seconds:.4f}s, "
                     f"instrumented {instrumented_seconds:.4f}s "
                     f"({overhead:+.1%} overhead)")

        # the instrumented run really did record: sanity, not timing
        registry = MetricsRegistry()
        session = repro.connect(lookup_database(64, seed=1, registry=registry))
        session.execute(LOOKUP_QUERY, {"a": 1}).rows
        rendered = registry.render_prometheus()
        assert "repro_statements_total" in rendered
        assert "repro_statement_seconds_bucket" in rendered

    if enforce:
        largest = max(sizes)
        for op in GATED_OPS:
            achieved = overheads[(op, largest)]
            assert achieved <= OVERHEAD_GATE, (
                f"instrumentation overhead {achieved:.1%} on {op} at "
                f"n={largest} exceeds the {OVERHEAD_GATE:.0%} gate"
            )


# ---------------------------------------------------------------------------
# pytest entry point (quick smoke, no timing gate — CI boxes are noisy)
# ---------------------------------------------------------------------------

def test_observability_overhead_quick(record):
    """Quick-mode sweep: records the overheads, asserts the series flow."""
    run_experiments(sizes=QUICK_SIZES, lookups=QUICK_LOOKUPS,
                    metric=record.metric, line=record.line)


# ---------------------------------------------------------------------------
# Standalone entry point (full sweep, writes benchmarks/results.json)
# ---------------------------------------------------------------------------

def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    sizes = QUICK_SIZES if quick else FULL_SIZES
    lookups = QUICK_LOOKUPS if quick else FULL_LOOKUPS

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import conftest  # the benchmark harness recorder/writer

    recorder = conftest.ExperimentRecorder("e21_observability")
    run_experiments(sizes=sizes, lookups=lookups,
                    metric=recorder.metric, line=recorder.line,
                    enforce=not quick)

    results_path = os.path.join(here, "results.json")
    conftest.write_results_json(results_path)

    metrics = conftest._METRICS["e21_observability"]
    by_key = {(m["op"], m["variant"], m["rows"]): m for m in metrics}
    print(f"{'op':<18} {'rows':>6} {'disabled s':>11} {'instr s':>10} {'overhead':>9}")
    for op in ("prepared_lookup", "traced_lookup", "bulk_load"):
        for size in sizes:
            disabled = by_key.get((op, "disabled", size))
            instrumented = by_key.get((op, "instrumented", size))
            if disabled and instrumented:
                overhead = instrumented["overhead"]
                print(
                    f"{op:<18} {size:>6} {disabled['seconds']:>11.4f} "
                    f"{instrumented['seconds']:>10.4f} {overhead:>+8.1%}"
                )
    print(f"\nwrote {results_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
