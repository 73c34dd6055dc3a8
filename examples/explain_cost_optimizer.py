"""EXPLAIN with the cost-based optimizer: estimates, reordering, indexes.

This example builds a three-table supply chain, then shows how the same
QUEL query's plan evolves:

* the **cost-ordered plan**: whatever order the ranges were declared
  in, the optimizer starts from the selective range and walks the join
  chain outward, annotating every step with its estimated and measured
  row counts (``est=…, rows=…`` — compare them to audit the cost model);
* the plan **after** ``create_index`` + ``analyze()``: the join against
  the indexed table becomes an index-nested-loop probe of the live
  :class:`~repro.storage.index.HashIndex` — no per-query bucket rebuild.

Then the **semantic result cache** — re-executing an identical retrieve
through a :class:`~repro.api.session.Session` answers from the cache
(``explain()`` reports the ``cached result`` step) until any DML/DDL on
a referenced table structurally invalidates the entry.

Run with::

    python examples/explain_cost_optimizer.py
"""

import random

from repro.api.session import Session
from repro.quel import compile_query
from repro.quel.planner import Plan
from repro.storage import Database


def build_database(size: int = 2_000, seed: int = 7) -> Database:
    rng = random.Random(seed)
    db = Database("supply-chain")
    parts = db.create_table("PARTS", ["P#", "WEIGHT"])
    stock = db.create_table("STOCK", ["P#", "S#"])
    suppliers = db.create_table("SUPPLIERS", ["S#", "CITY"])
    parts.insert_many([(p, rng.randrange(100)) for p in range(size)])
    stock.insert_many(
        [(rng.randrange(size), rng.randrange(size // 20)) for _ in range(size)]
    )
    suppliers.insert_many(
        [(s, f"city{s % 40}") for s in range(size // 20)]
    )
    return db


QUERY = (
    "range of p is PARTS range of st is STOCK range of s is SUPPLIERS "
    "retrieve (p.P#, s.S#) "
    "where p.P# = st.P# and st.S# = s.S# and s.CITY = \"city3\""
)


def show(title: str, plan: Plan) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)
    answer = plan.execute()
    print(plan.explain())
    print(f"-> {len(answer)} answer rows")
    print()


def show_result_cache(db: Database) -> None:
    """The same retrieve twice through a Session: the repeat is cached."""
    print("=" * 72)
    print("semantic result cache (Optimizer v2)")
    print("=" * 72)
    session = Session(db)
    text = ("range of p is PARTS retrieve (p.P#) where p.WEIGHT < 5")
    first = session.execute(text)
    print(f"first execution -> {len(first.rows)} rows, plan:")
    print("  " + first.explain().replace("\n", "\n  "))
    repeat = session.execute(text)
    print("repeated execution, explain():")
    print("  " + repeat.explain().replace("\n", "\n  "))
    session.execute('append to PARTS (P# = 999999, WEIGHT = 1)')
    invalidated = session.execute(text)
    print(f"after one append the entry is stale-proofed out: "
          f"{len(invalidated.rows)} rows, "
          f"cached={'cached result' in invalidated.explain()}")
    print()


def main() -> None:
    db = build_database()
    query = compile_query(QUERY, db).query
    print(QUERY)
    print()

    show("cost-based optimizer (selective range first, est= vs rows=)",
         Plan(query, db))

    # Give the optimizer a persistent index on the fused join key of the
    # big unfiltered range and refresh the statistics, then plan the very
    # same query again.
    db.table("PARTS").create_index(["P#"], name="parts_p")
    db.analyze()
    show("after create_index + analyze(): index-nested-loop probe",
         Plan(query, db))

    show_result_cache(db)


if __name__ == "__main__":
    main()
