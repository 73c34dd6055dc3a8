"""Behavioural tests for the semantic result cache (``repro.api.result_cache``).

The contract: a cache hit returns the *same answer* the executor would
produce for the tables' current states — never a stale one.  Keys embed
the normalized statement, the bound parameters, the database epoch and
each referenced table's mutation counter, so any DML, DDL, ANALYZE,
snapshot restore or transaction rollback makes old entries unreachable
structurally (no invalidation hooks to forget).
"""

from __future__ import annotations

import pytest

from repro.api.session import Session, connect
from repro.obs import MetricsRegistry, registry_for
from repro.storage.database import Database


def fresh_database(name="cachedb"):
    database = Database(name, metrics=MetricsRegistry())
    table = database.create_table("T", ["A", "B"])
    table.insert_many([(i, i % 7) for i in range(50)])
    database.analyze()
    return database


def series(database, name, **labels):
    registry = registry_for(database)
    rendered = registry.render_prometheus()
    wanted = "".join(
        f'{k}="{v}"' for k, v in sorted(labels.items())
    )
    for line in rendered.splitlines():
        if not line.startswith(name):
            continue
        if labels:
            if "{" not in line:
                continue
            body = line[line.index("{") + 1:line.index("}")]
            if sorted(body.split(",")) != sorted(
                f'{k}="{v}"' for k, v in labels.items()
            ):
                continue
        return float(line.rsplit(" ", 1)[1])
    return 0.0


QUERY = "range of t is T retrieve (t.A, t.B) where t.B != 3"


class TestHitsAndMisses:
    def test_second_execution_hits_and_returns_same_rows(self):
        database = fresh_database()
        session = Session(database)
        first = session.execute(QUERY).rows
        second = session.execute(QUERY)
        assert second.rows == first
        assert "cached result" in second.explain()
        assert series(database, "repro_result_cache_total", event="hit") == 1
        assert series(database, "repro_result_cache_total", event="miss") == 1
        assert series(database, "repro_result_cache_entries") == 1

    def test_equivalent_texts_share_one_entry(self):
        database = fresh_database()
        session = Session(database)
        session.execute(QUERY).rows
        spaced = (
            "range of t is T  retrieve ( t.A , t.B )  where t.B != 3"
        )
        assert "cached result" in session.execute(spaced).explain()

    def test_distinct_params_get_distinct_entries(self):
        database = fresh_database()
        session = Session(database)
        text = "range of t is T retrieve (t.A) where t.B = $b"
        three = session.execute(text, {"b": 3}).rows
        four = session.execute(text, {"b": 4}).rows
        assert three != four
        assert series(database, "repro_result_cache_total", event="hit") == 0
        assert session.execute(text, {"b": 3}).rows == three
        assert session.execute(text, {"b": 4}).rows == four
        assert series(database, "repro_result_cache_total", event="hit") == 2

    def test_undrained_retrieve_is_not_cached(self):
        database = fresh_database()
        session = Session(database)
        result = session.execute(QUERY)
        iterator = iter(result)
        next(iterator)  # partially streamed: the pipeline never finished
        assert len(session.result_cache) == 0
        repeat = session.execute(QUERY)
        assert "cached result" not in repeat.explain()


class TestStructuralInvalidation:
    def test_dml_invalidates(self):
        database = fresh_database()
        session = Session(database)
        before = session.execute(QUERY).rows
        session.execute("append to T (A = 999, B = 0)")
        after = session.execute(QUERY)
        assert "cached result" not in after.explain()
        assert len(after.rows) == len(before) + 1

    def test_delete_and_replace_invalidate(self):
        database = fresh_database()
        session = Session(database)
        baseline = session.execute(QUERY).rows
        session.execute("range of t is T delete t where t.A = 0")
        assert "cached result" not in session.execute(QUERY).explain()
        smaller = session.execute(QUERY).rows
        assert len(smaller) == len(baseline) - 1
        session.execute("range of t is T replace t (B = 6) where t.A = 1")
        replaced = session.execute(QUERY)
        assert "cached result" not in replaced.explain()

    def test_drop_and_recreate_invalidates(self):
        database = fresh_database()
        session = Session(database)
        session.execute(QUERY).rows
        database.drop_table("T")
        table = database.create_table("T", ["A", "B"])
        table.insert_many([(1, 0)])
        fresh = session.execute(QUERY)
        assert "cached result" not in fresh.explain()
        assert len(fresh.rows) == 1

    def test_index_and_analyze_move_the_key(self):
        database = fresh_database()
        session = Session(database)
        session.execute(QUERY).rows
        database.catalog.table("T").create_index(["B"])
        assert "cached result" not in session.execute(QUERY).explain()
        session.execute(QUERY).rows  # repopulate under the new epoch
        database.analyze()
        assert "cached result" not in session.execute(QUERY).explain()

    def test_rollback_invalidates(self):
        database = fresh_database()
        session = Session(database)
        baseline = session.execute(QUERY).rows
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.execute("append to T (A = 999, B = 0)")
                inside = session.execute(QUERY)
                assert "cached result" not in inside.explain()
                assert len(inside.rows) == len(baseline) + 1
                raise RuntimeError("force rollback")
        # Rows are back to the pre-transaction state; the entry cached
        # inside the aborted group must be unreachable.
        after = session.execute(QUERY)
        assert "cached result" not in after.explain()
        assert after.rows == baseline

    def test_cached_answers_equal_uncached_after_random_interleaving(self):
        database = fresh_database("cache_on")
        oracle_db = fresh_database("cache_off")
        cached = Session(database)
        uncached = Session(oracle_db, result_cache_size=0)
        statements = [
            QUERY,
            "append to T (A = 100, B = 1)",
            QUERY,
            QUERY,
            "range of t is T delete t where t.B = 1",
            QUERY,
            "range of t is T replace t (B = 5) where t.A = 2",
            QUERY,
            QUERY,
        ]
        for text in statements:
            assert cached.execute(text).rows == uncached.execute(text).rows
        assert series(database, "repro_result_cache_total", event="hit") > 0


class TestKnobsAndScope:
    def test_disable_knob(self):
        database = fresh_database()
        session = Session(database, result_cache_size=0)
        assert session.result_cache is None
        session.execute(QUERY).rows
        assert "cached result" not in session.execute(QUERY).explain()

    def test_connect_passes_knob_through(self):
        session = connect(fresh_database())
        assert session.result_cache is not None
        disabled = connect(fresh_database("nocache"), result_cache_size=0)
        assert disabled.result_cache is None

    def test_mutations_and_into_are_never_cached(self):
        database = fresh_database()
        session = Session(database)
        session.execute("append to T (A = 777, B = 2)")
        session.execute("append to T (A = 778, B = 2)")
        session.execute("range of t is T retrieve into T2 (t.A) where t.B = 2")
        assert len(session.result_cache) == 0

    def test_capacity_eviction_is_lru_and_counted(self):
        database = fresh_database()
        session = Session(database, result_cache_size=2)
        text = "range of t is T retrieve (t.A) where t.B = $b"
        for b in (0, 1, 2):
            session.execute(text, {"b": b}).rows
        assert len(session.result_cache) == 2
        assert series(database, "repro_result_cache_total", event="eviction") == 1
        assert series(database, "repro_result_cache_entries") == 2
        # b=0 was evicted (oldest); b=2 still hits.
        assert "cached result" in session.execute(text, {"b": 2}).explain()
        assert "cached result" not in session.execute(text, {"b": 0}).explain()

    def test_unhashable_params_skip_the_cache(self):
        database = fresh_database()
        session = Session(database)
        cache = session.result_cache
        key = cache.key_for("stmt", {"x": [1, 2]}, ("x",), ())
        assert key is None

    def test_clear_resets_occupancy(self):
        database = fresh_database()
        session = Session(database)
        session.execute(QUERY).rows
        assert len(session.result_cache) == 1
        session.result_cache.clear()
        assert len(session.result_cache) == 0
        assert series(database, "repro_result_cache_entries") == 0
