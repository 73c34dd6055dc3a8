"""Tests for ``repro.obs``: the metrics registry and query tracing.

Three property-based invariants anchor the subsystem (the rest are
deterministic unit tests):

* ``repro_statements_total`` by kind exactly equals the number of
  statements executed of that kind (and the latency histogram's
  ``_count`` agrees);
* a histogram's cumulative bucket counts are monotone and the ``+Inf``
  bucket equals the observation count;
* ``collect()`` round-trips through the Prometheus text renderer —
  every sample value survives ``render_prometheus()`` →
  ``parse_prometheus()`` bit-for-bit, label escaping included.
"""

import logging
import math
from collections import Counter as Tally

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    ERROR_RATIO_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disabled_registry,
    get_registry,
    parse_prometheus,
    registry_for,
    set_registry,
)
from repro.storage import Database
from repro.storage.wal import CheckpointWorker


def fresh_database(registry=None, rows=5):
    database = Database("obsdb", metrics=registry)
    table = database.create_table("T", ["A", "B"])
    table.insert_many([(i, i % 3) for i in range(rows)])
    return database


# ---------------------------------------------------------------------------
# primitives


class TestPrimitives:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_histogram_bucket_placement(self):
        histogram = Histogram(buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 4.0, 99.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        # cumulative: le=1 → {0.5, 1.0}; le=2 → +1.5; le=5 → +4.0; +Inf → +99
        assert snapshot["buckets"] == [(1.0, 2), (2.0, 3), (5.0, 4), (math.inf, 5)]
        assert snapshot["count"] == 5
        assert snapshot["sum"] == pytest.approx(106.0)

    def test_latency_buckets_are_log_scaled_1_2_5(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-5)
        assert LATENCY_BUCKETS[-1] == pytest.approx(50.0)
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
        assert 1.0 in ERROR_RATIO_BUCKETS  # a perfect estimate has its own edge


# ---------------------------------------------------------------------------
# families and the registry


class TestRegistry:
    def test_family_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "x", ("kind",))
        again = registry.counter("repro_x_total", "x", ("kind",))
        assert first is again

    def test_kind_or_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x", ("kind",))
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", "x", ("kind",))
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", "x", ("other",))

    def test_labels_validated(self):
        family = MetricsRegistry().counter("repro_x_total", "x", ("kind",))
        with pytest.raises(ValueError):
            family.labels(wrong="retrieve")
        family.labels(kind="retrieve").inc()
        assert family.labels(kind="retrieve").value == 1.0

    def test_disabled_registry_is_noop(self):
        registry = disabled_registry()
        family = registry.counter("repro_x_total", "x", ("kind",))
        child = family.labels(kind="anything-goes")  # not even validated
        child.inc(7)
        child.observe(1.0)
        assert child.value == 0.0
        assert registry.collect() == [
            {"name": "repro_x_total", "type": "counter", "help": "x", "samples": []}
        ]

    def test_registry_for_resolution(self):
        registry = MetricsRegistry()
        database = fresh_database(registry)
        assert registry_for(database) is registry
        assert database.metrics is registry
        assert registry_for(None) is get_registry()
        assert registry_for(fresh_database()) is get_registry()

    def test_set_registry_swaps_the_global(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            assert set_registry(previous) is mine


# ---------------------------------------------------------------------------
# the engine's series (one mixed workload)


class TestEngineSeries:
    def test_mixed_workload_emits_the_catalog(self):
        registry = MetricsRegistry()
        database = fresh_database(registry, rows=20)
        session = database.session()
        session.execute("range of t is T retrieve (t.A) where t.B != 99").rows
        session.execute("append to T (A = 100, B = 1)")
        session.execute("range of t is T replace t (B = 9) where t.A = 0")
        session.execute("range of t is T delete t where t.A = 1")
        with session.transaction():
            session.execute("append to T (A = 101, B = 2)")
        parsed = parse_prometheus(registry.render_prometheus())

        def series(name, **labels):
            return parsed[(name, tuple(sorted(labels.items())))]

        assert series("repro_statements_total", kind="retrieve", outcome="ok") == 1
        assert series("repro_statements_total", kind="append", outcome="ok") == 2
        assert series("repro_statement_seconds_count", kind="retrieve") == 1
        assert series("repro_plan_cache_total", event="miss") >= 1
        assert series("repro_transactions_total", op="begin") == 1
        assert series("repro_transactions_total", op="commit") == 1
        assert series("repro_plans_total") >= 1
        assert series("repro_exec_rows_total") >= 20
        assert series("repro_exec_operator_rows_total", operator="TableScan") >= 20

    def test_join_choices_count_the_operators_actually_built(self):
        """The strategy counter follows the operator the builder made: an
        indexed join is counted as an index-nested-loop probe, not as a
        hash join."""
        from repro.quel.evaluator import compile_query
        from repro.quel.planner import Plan

        registry = MetricsRegistry()
        database = fresh_database(registry, rows=20)
        database.create_table("U", ["A", "C"]).insert_many(
            [(i, i % 3) for i in range(5)]
        )
        database.catalog.table("T").create_index(["A"])
        text = "range of u is U range of t is T retrieve (u.C, t.B) where u.A = t.A"
        query = compile_query(text, database).query

        def choices():
            parsed = parse_prometheus(registry.render_prometheus())
            return {
                strategy: parsed.get(
                    ("repro_plan_join_choices_total", (("strategy", strategy),)), 0
                )
                for strategy in ("index_nl", "hash")
            }

        plan = Plan(query, database)
        plan.execute()
        assert any("index-nested-loop join" in step for step in plan.steps)
        assert choices() == {"index_nl": 1, "hash": 0}

    def test_recent_traces_ring_buffer_and_phases(self):
        database = fresh_database(MetricsRegistry())
        from repro.api.session import Session
        session = Session(database, result_cache_size=0)
        session._traces = type(session._traces)(maxlen=3)
        for _ in range(5):
            session.execute("range of t is T retrieve (t.A)").rows
        traces = session.recent_traces()
        assert len(traces) == 3
        assert session.recent_traces(limit=2) == traces[-2:]
        trace = traces[-1]
        assert trace.kind == "retrieve"
        assert trace.outcome == "ok"
        assert set(trace.phases) >= {"parse", "analyze", "execute"}
        assert trace.rows_out == 5
        assert any(step["operator"] == "TableScan" for step in trace.operators)
        as_dict = trace.as_dict()
        assert as_dict["kind"] == "retrieve" and as_dict["rows_out"] == 5

    def test_retrieve_into_traces_and_counts_its_operators(self):
        """RETRIEVE INTO drains its tree eagerly; the trace and the exec
        counters still see every operator, as for a lazy retrieve."""
        registry = MetricsRegistry()
        session = fresh_database(registry).session()
        session.execute("range of t is T retrieve into U (t.A)")
        trace = session.recent_traces()[-1]
        assert [step["operator"] for step in trace.operators] == ["Project", "TableScan"]
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed[("repro_exec_operator_rows_total", (("operator", "TableScan"),))] == 5

    def test_repeated_retrieve_traces_mark_result_cache_hits(self):
        database = fresh_database(MetricsRegistry())
        session = database.session()
        for _ in range(3):
            session.execute("range of t is T retrieve (t.A)").rows
        trace = session.recent_traces()[-1]
        assert trace.kind == "retrieve"
        assert trace.outcome == "ok"
        assert trace.tags.get("result_cache") == "hit"
        assert trace.rows_out == 5

    def test_prepared_handle_is_traced_counted_and_cached(self):
        """An in-process ``PreparedStatement.execute`` takes the same
        path as a text or HTTP execution: a trace per call, the
        statement counters, and result-cache hits on a repeat."""
        registry = MetricsRegistry()
        session = fresh_database(registry).session()
        prepared = session.prepare("range of t is T retrieve (t.A) where t.B = $b")
        for b in (0, 1, 1):
            prepared.execute({"b": b}).rows
        traces = session.recent_traces()
        assert [trace.kind for trace in traces] == ["retrieve"] * 3
        assert traces[-1].tags.get("result_cache") == "hit"
        assert traces[0].rows_out == 2
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed[("repro_statements_total", (("kind", "retrieve"), ("outcome", "ok")))] == 3

    def test_slow_query_threshold_marks_and_counts(self, caplog):
        registry = MetricsRegistry()
        database = fresh_database(registry)
        session = database.session()
        session.slow_query_threshold = 0.0  # everything is slow
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow_query"):
            session.execute("range of t is T retrieve (t.A)").rows
        assert session.recent_traces()[-1].slow
        assert "slow query" in caplog.text
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed[("repro_slow_queries_total", ())] == 1

    def test_failed_statement_counted_by_outcome(self):
        registry = MetricsRegistry()
        database = fresh_database(registry)
        session = database.session()
        with pytest.raises(Exception):
            session.execute("range of t is NOPE retrieve (t.A)")
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed[("repro_statements_total", (("kind", "retrieve"), ("outcome", "error")))] == 1
        assert session.recent_traces()[-1].outcome == "error"


# ---------------------------------------------------------------------------
# checkpoint-worker failure surfacing (the WAL PR's latched error, exported)


class TestCheckpointWorkerSurfacing:
    def test_errors_surface_as_metrics_and_log_once_per_distinct(self, caplog):
        registry = MetricsRegistry()
        database = fresh_database(registry)
        worker = CheckpointWorker(database)
        boom = RuntimeError("disk full")
        with caplog.at_level(logging.WARNING, logger="repro.storage.wal"):
            worker._record_outcome(boom)
            worker._record_outcome(boom)  # same error: counted, not re-logged
        assert worker.last_error is boom
        assert sum("disk full" in r.message for r in caplog.records) == 1
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed[("repro_checkpoint_worker_errors_total", ())] == 2
        assert parsed[("repro_checkpoint_worker_failing", ())] == 1

        with caplog.at_level(logging.WARNING, logger="repro.storage.wal"):
            worker._record_outcome(RuntimeError("other"))  # distinct: logged
        assert sum("other" in r.message for r in caplog.records) == 1

        worker._record_outcome(None)  # recovery clears the gauge and dedup
        assert worker.last_error is None
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed[("repro_checkpoint_worker_failing", ())] == 0
        with caplog.at_level(logging.WARNING, logger="repro.storage.wal"):
            worker._record_outcome(RuntimeError("disk full"))  # re-logged after recovery
        assert sum("disk full" in r.message for r in caplog.records) == 2


# ---------------------------------------------------------------------------
# property-based invariants


STATEMENTS = {
    "retrieve": "range of t is T retrieve (t.A)",
    "append": "append to T (A = 50, B = 1)",
    "delete": "range of t is T delete t where t.A = 999",
    "replace": "range of t is T replace t (B = 7) where t.A = 0",
}


class TestProperties:
    @given(batch=st.lists(st.sampled_from(sorted(STATEMENTS)), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_statements_total_matches_executed_counts(self, batch):
        registry = MetricsRegistry()
        session = fresh_database(registry).session()
        for kind in batch:
            result = session.execute(STATEMENTS[kind])
            if kind == "retrieve":
                result.rows
        parsed = parse_prometheus(registry.render_prometheus())
        for kind, count in Tally(batch).items():
            labels = (("kind", kind), ("outcome", "ok"))
            assert parsed[("repro_statements_total", labels)] == count
            assert parsed[("repro_statement_seconds_count", (("kind", kind),))] == count

    @given(values=st.lists(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=50, deadline=None)
    def test_histogram_buckets_sum_to_observation_count(self, values):
        histogram = Histogram(LATENCY_BUCKETS)
        for value in values:
            histogram.observe(value)
        snapshot = histogram.snapshot()
        counts = [count for _, count in snapshot["buckets"]]
        assert counts == sorted(counts)  # cumulative buckets are monotone
        assert snapshot["buckets"][-1][0] == math.inf
        assert counts[-1] == len(values) == snapshot["count"]
        assert snapshot["sum"] == pytest.approx(sum(values))
        # each observation is counted by every bound that covers it
        for bound, count in snapshot["buckets"]:
            assert count == sum(1 for v in values if v <= bound)

    # label values exercise quote-escaping and brace/space edge cases
    # (backslash escaping is covered by the renderer unit tests; the
    # parser's job is only the subset the engine emits)
    label_values = st.text(alphabet='abz019 _"{},=', max_size=8)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_collect_round_trips_through_renderer(self, data):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total", "c", ("who",))
        for label, amount in data.draw(
            st.dictionaries(self.label_values, st.integers(0, 10**9), max_size=4)
        ).items():
            counter.labels(who=label).inc(amount)
        registry.gauge("repro_t_gauge", "g").set(
            data.draw(st.floats(-1e9, 1e9, allow_nan=False))
        )
        histogram = registry.histogram("repro_t_seconds", "h")
        for value in data.draw(st.lists(st.floats(0, 100, allow_nan=False), max_size=20)):
            histogram.observe(value)

        parsed = parse_prometheus(registry.render_prometheus())
        for family in registry.collect():
            for sample in family["samples"]:
                labels = tuple(sorted(sample["labels"].items()))
                if family["type"] == "histogram":
                    assert parsed[(family["name"] + "_count", labels)] == sample["count"]
                    assert parsed[(family["name"] + "_sum", labels)] == sample["sum"]
                    for bound, count in sample["buckets"]:
                        bucket_labels = tuple(sorted(
                            list(sample["labels"].items()) + [("le", _fmt(bound))]
                        ))
                        assert parsed[(family["name"] + "_bucket", bucket_labels)] == count
                else:
                    assert parsed[(family["name"], labels)] == sample["value"]


def _fmt(bound):
    from repro.obs.metrics import _format_bound

    return _format_bound(bound)
