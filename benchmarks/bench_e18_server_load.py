"""E18 — server load: multi-client HTTP throughput and cursor streaming.

The concurrent-network-service PR puts an asyncio HTTP front end
(:mod:`repro.server`) over one shared :class:`~repro.storage.Database`,
multiplexing per-connection sessions behind a single-writer /
concurrent-reader statement gate.  This benchmark quantifies the two
claims that justify the architecture:

* **first-page latency** — a cursor-paged retrieve
  (``POST /statements`` with ``cursor=true`` then ``GET /cursors/{id}``)
  ships its first page by draining the lazy pipeline block-by-block, so
  time-to-first-row must sit well below the full eager drain of the same
  statement.  The full sweep asserts ``first_page < 1/2 × full_drain``;
* **client concurrency** — N clients on threads issue the same total
  number of point retrieves as one serial client.  Readers overlap on
  the statement gate and engine work runs in a thread-pool executor, so
  the concurrent wall-clock must beat the serial one (round-trip latency
  hides behind engine compute) even on a single CPU.  The full sweep
  asserts the ≥ 2-client run is no slower than serial; per-request
  latency p50/p99 is recorded for both.

A mixed 10%-write workload is measured alongside (writes serialise on
the exclusive gate, so its throughput is reported, not gated).

Run styles:

* under pytest (quick sizes, used by CI as a smoke test):
  ``PYTHONPATH=src python -m pytest benchmarks/bench_e18_server_load.py -q``
* standalone (full sweep, writes results.json):
  ``PYTHONPATH=src python benchmarks/bench_e18_server_load.py``
  (pass ``--quick`` for the small sweep).
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.obs import MetricsRegistry
from repro.server import ServerClient, serve
from repro.storage.database import Database

FULL_TABLE_ROWS = 20_000
QUICK_TABLE_ROWS = 3_000
FULL_REQUESTS = 400
QUICK_REQUESTS = 80
PAGE_ROWS = 64
CLIENTS = 4
WRITE_FRACTION = 0.1
#: The full sweep's structural budget for time-to-first-row.
MAX_FIRST_PAGE_RATIO = 0.5


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

def make_server(table_rows: int):
    """A served database with one BIG table: A unique and indexed (so the
    point-read workload's prepared plan probes the index and the
    measurement is dominated by the service, not by table scans), B a
    97-ary hash."""
    database = Database("e18", metrics=MetricsRegistry())
    rng = random.Random(table_rows)
    database.create_table("BIG", ["A", "B", "C"])
    database.insert_many(
        "BIG",
        [(i, i % 97, rng.randrange(1 << 16)) for i in range(table_rows)],
    )
    database.table("BIG").create_index(["A"])
    handle = serve(database)
    return database, handle


def percentile(latencies: List[float], fraction: float) -> float:
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run_requests(client: ServerClient, count: int, table_rows: int,
                 seed: int, write_fraction: float = 0.0) -> List[float]:
    """Issue *count* point retrieves (plus a write mix) on one connection,
    returning every request's wall-clock latency."""
    rng = random.Random(seed)
    prepared = client.prepare(
        "range of t is BIG retrieve (t.C) where t.A = $a"
    )
    latencies = []
    for n in range(count):
        start = time.perf_counter()
        if rng.random() < write_fraction:
            client.execute(
                "append to BIG (A = $a, B = $b, C = 0)",
                {"a": table_rows + seed * count + n, "b": rng.randrange(97)},
            )
        else:
            prepared.execute({"a": rng.randrange(table_rows)})
        latencies.append(time.perf_counter() - start)
    return latencies


def timed_clients(handle, client_count: int, total_requests: int,
                  table_rows: int,
                  write_fraction: float = 0.0) -> Tuple[float, List[float]]:
    """Split *total_requests* across *client_count* threaded connections;
    returns (wall seconds, per-request latencies)."""
    share = total_requests // client_count
    collected: List[List[float]] = [[] for _ in range(client_count)]
    failures: List[BaseException] = []

    def worker(index: int) -> None:
        try:
            with ServerClient.for_handle(handle) as client:
                collected[index] = run_requests(
                    client, share, table_rows, seed=index,
                    write_fraction=write_fraction,
                )
        except BaseException as error:  # surfaced after join
            failures.append(error)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(client_count)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if failures:
        raise failures[0]
    return elapsed, [latency for chunk in collected for latency in chunk]


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------

def run_experiments(table_rows=FULL_TABLE_ROWS, requests=FULL_REQUESTS,
                    metric=None, line=None, enforce=False):
    """Measure streaming and concurrency against one live server."""

    def emit(op: str, variant: str, rows: int, seconds: float,
             **extra: Any) -> None:
        if metric is not None:
            metric(op, seconds, variant=variant, rows=rows, **extra)

    database, handle = make_server(table_rows)
    try:
        with ServerClient.for_handle(handle) as client:
            statement = "range of t is BIG retrieve (t.A, t.B, t.C)"

            # -- time-to-first-row vs full drain ---------------------------
            first_page_seconds = float("inf")
            full_drain_seconds = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                page = client.open_cursor(statement, max_rows=PAGE_ROWS)
                first_page_seconds = min(
                    first_page_seconds, time.perf_counter() - start
                )
                assert len(page.rows) == PAGE_ROWS and not page.done
                client.close_cursor(page.cursor)

                start = time.perf_counter()
                drained = client.execute(statement)
                full_drain_seconds = min(
                    full_drain_seconds, time.perf_counter() - start
                )
                assert len(drained["rows"]) == table_rows
            ratio = first_page_seconds / full_drain_seconds
            emit("first_page", "cursor", table_rows, first_page_seconds,
                 page_rows=PAGE_ROWS, ratio=round(ratio, 4))
            emit("full_drain", "eager", table_rows, full_drain_seconds)
            if line is not None:
                line(
                    f"n={table_rows}: first cursor page ({PAGE_ROWS} rows) in "
                    f"{first_page_seconds * 1000:.1f}ms vs full drain "
                    f"{full_drain_seconds * 1000:.1f}ms ({ratio:.1%} of drain)"
                )
            if enforce:
                assert ratio < MAX_FIRST_PAGE_RATIO, (
                    f"first page took {ratio:.1%} of the full drain; the "
                    f"streaming budget is {MAX_FIRST_PAGE_RATIO:.0%}"
                )

        # -- serial vs concurrent clients, read-only -----------------------
        serial_seconds, serial_latencies = timed_clients(
            handle, 1, requests, table_rows
        )
        concurrent_seconds, concurrent_latencies = timed_clients(
            handle, CLIENTS, requests, table_rows
        )
        for variant, seconds, latencies, clients in (
            ("serial", serial_seconds, serial_latencies, 1),
            (f"concurrent{CLIENTS}", concurrent_seconds,
             concurrent_latencies, CLIENTS),
        ):
            emit(
                "read_throughput", variant, requests, seconds,
                clients=clients,
                requests_per_second=round(len(latencies) / seconds, 1),
                p50_ms=round(percentile(latencies, 0.50) * 1000, 3),
                p99_ms=round(percentile(latencies, 0.99) * 1000, 3),
            )
        speedup = serial_seconds / concurrent_seconds
        if line is not None:
            line(
                f"{requests} point reads: 1 client "
                f"{len(serial_latencies) / serial_seconds:.0f} req/s, "
                f"{CLIENTS} clients "
                f"{len(concurrent_latencies) / concurrent_seconds:.0f} req/s "
                f"({speedup:.2f}x; p99 "
                f"{percentile(concurrent_latencies, 0.99) * 1000:.1f}ms)"
            )
        if enforce:
            assert speedup >= 1.0, (
                f"{CLIENTS} concurrent clients ran {1 / speedup:.2f}x slower "
                f"than one serial client; overlap on the statement gate "
                f"should at least hide round-trip latency"
            )

        # -- mixed 10%-write workload (reported, not gated) -----------------
        mixed_seconds, mixed_latencies = timed_clients(
            handle, CLIENTS, requests, table_rows,
            write_fraction=WRITE_FRACTION,
        )
        emit(
            "mixed_throughput", f"concurrent{CLIENTS}", requests,
            mixed_seconds,
            clients=CLIENTS,
            write_fraction=WRITE_FRACTION,
            requests_per_second=round(len(mixed_latencies) / mixed_seconds, 1),
            p50_ms=round(percentile(mixed_latencies, 0.50) * 1000, 3),
            p99_ms=round(percentile(mixed_latencies, 0.99) * 1000, 3),
        )
        if line is not None:
            line(
                f"{requests} mixed requests ({WRITE_FRACTION:.0%} writes), "
                f"{CLIENTS} clients: "
                f"{len(mixed_latencies) / mixed_seconds:.0f} req/s, p99 "
                f"{percentile(mixed_latencies, 0.99) * 1000:.1f}ms"
            )
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# pytest entry point (quick smoke)
# ---------------------------------------------------------------------------

def test_server_load_quick(record):
    """Quick-mode sweep: records metrics, verifies page shapes.

    Timing budgets (first-page ratio, concurrency speedup) are only
    enforced on the standalone full sweep — CI shared runners are too
    noisy to gate on wall-clock ratios."""
    run_experiments(
        table_rows=QUICK_TABLE_ROWS, requests=QUICK_REQUESTS,
        metric=record.metric, line=record.line,
    )


# ---------------------------------------------------------------------------
# Standalone entry point (full sweep, writes benchmarks/results.json)
# ---------------------------------------------------------------------------

def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    table_rows = QUICK_TABLE_ROWS if quick else FULL_TABLE_ROWS
    requests = QUICK_REQUESTS if quick else FULL_REQUESTS

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import conftest  # the benchmark harness recorder/writer

    recorder = conftest.ExperimentRecorder("e18_server_load")
    run_experiments(
        table_rows=table_rows, requests=requests,
        metric=recorder.metric, line=recorder.line,
        enforce=not quick,
    )

    results_path = os.path.join(here, "results.json")
    conftest.write_results_json(results_path)

    metrics: List[Dict[str, Any]] = conftest._METRICS["e18_server_load"]
    print(f"{'op':<17} {'variant':<12} {'rows':>6} {'seconds':>9} "
          f"{'req/s':>8} {'p99 ms':>8}")
    for entry in metrics:
        rps = entry.get("requests_per_second")
        p99 = entry.get("p99_ms")
        print(
            f"{entry['op']:<17} {entry['variant']:<12} {entry['rows']:>6} "
            f"{entry['seconds']:>9.4f} "
            f"{rps if rps is not None else '—':>8} "
            f"{p99 if p99 is not None else '—':>8}"
        )
    print(f"\nwrote {results_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
