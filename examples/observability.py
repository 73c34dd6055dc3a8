"""Observability: metrics and query traces for one mixed workload.

This example builds a small employee database, runs a mixed workload
(retrieves, DML, a transaction, a prepared-statement loop, one slow
query) against an **isolated** metrics registry, and then shows the two
read surfaces:

* ``registry.render_prometheus()`` — the text a ``/metrics`` endpoint
  would serve, with statement latency histograms by kind, plan-cache
  hit/miss counters and per-operator row and time totals;
* ``session.recent_traces()`` — structured :class:`~repro.obs.QueryTrace`
  spans with per-phase timings (parse → analyze → plan → execute) and
  per-operator actuals.

Run with::

    python examples/observability.py
"""

import random

import repro
from repro.obs import MetricsRegistry
from repro.storage import Database


def build_database(registry: MetricsRegistry, size: int = 2_000, seed: int = 7) -> Database:
    rng = random.Random(seed)
    db = Database("acme", metrics=registry)
    emp = db.create_table("EMP", ["E#", "NAME", "DEPT", "SAL"])
    emp.insert_many(
        (
            i,
            f"emp{i}",
            rng.choice(["toys", "tools", "shoes", None]),  # ni department
            rng.randrange(30_000, 90_000),
        )
        for i in range(size)
    )
    emp.create_index(["DEPT"], name="emp_dept")
    return db


def run_workload(session: repro.Session) -> None:
    # retrieves through one prepared handle, each traced; the repeated
    # "toys" lookups are result-cache hits
    lookup = session.prepare(
        "range of e is EMP retrieve (e.NAME, e.SAL) where e.DEPT = $d"
    )
    for dept in ["toys", "tools", "shoes", "toys", "toys"]:
        lookup.execute({"d": dept}).rows
    # the same text through execute(): a plan-cache hit
    session.execute(
        "range of e is EMP retrieve (e.NAME, e.SAL) where e.DEPT = $d",
        {"d": "tools"},
    ).rows

    # DML, autocommit and transactional
    session.execute("append to EMP (E# = 100000, NAME = 'newhire', DEPT = 'toys')")
    with session.transaction():
        session.execute("range of e is EMP replace e (SAL = 50000) where e.E# = 100000")
    session.execute("range of e is EMP delete e where e.E# = 100000")

    # a deliberately slow query (threshold 0 marks everything slow)
    session.slow_query_threshold = 0.0
    session.execute("range of e is EMP retrieve (e.DEPT) where e.SAL > 40000").rows
    session.slow_query_threshold = None


def main() -> None:
    registry = MetricsRegistry()
    db = build_database(registry)
    session = repro.connect(db)
    run_workload(session)

    print("=" * 72)
    print("rendered /metrics scrape (repro_* series)")
    print("=" * 72)
    print(registry.render_prometheus())

    print("=" * 72)
    print("the latest query traces (newest last)")
    print("=" * 72)
    for trace in session.recent_traces(limit=3):
        print(
            f"- kind={trace.kind} outcome={trace.outcome} "
            f"rows_out={trace.rows_out} slow={trace.slow} "
            f"seconds={trace.seconds:.6f}"
        )
        for phase, seconds in sorted(trace.phases.items()):
            print(f"    {phase:<8} {seconds * 1e6:9.1f} µs")
        for step in trace.operators:
            indent = "  " * step["depth"]
            print(
                f"    {indent}{step['operator']}: "
                f"rows={step['rows']} seconds={step['seconds']:.6f}"
            )


if __name__ == "__main__":
    main()
