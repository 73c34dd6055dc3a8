"""Unit and invariant tests for Optimizer v2's statistics layer.

Covers the equi-depth histograms (``repro.stats.histogram``): the
construction invariants (depths within one row of each other, sorted
bucket boundaries, full-domain range selectivity ≈ 1), the cost model's
data-driven range/``!=`` estimates on degenerate distributions (empty,
all-null, single-value), and the histograms' persistence through
snapshot/restore and WAL checkpoint recovery.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tuples import XTuple
from repro.stats import (
    CostModel,
    DEFAULT_BUCKETS,
    EquiDepthHistogram,
    TableStatistics,
)
from repro.storage.database import Database
from repro.storage.wal import CHECKPOINT_NAME


def rows(*specs):
    return [XTuple({a: v for a, v in spec.items() if v is not None}) for spec in specs]


counters = st.dictionaries(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=60,
)


class TestHistogramInvariants:
    @given(counter=counters, buckets=st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, derandomize=True)
    def test_depths_within_one_and_bounds_sorted(self, counter, buckets):
        histogram = EquiDepthHistogram.build(counter, buckets=buckets)
        assert histogram is not None
        total = sum(counter.values())
        depths = histogram.depths()
        # Every row lands in exactly one bucket.
        assert sum(depths) == total == histogram.total
        # Equi-depth: the deepest and shallowest bucket differ by <= 1.
        assert max(depths) - min(depths) <= 1
        # Boundaries are non-decreasing and end at the maximum.
        bounds = histogram.upper_bounds()
        assert list(bounds) == sorted(bounds)
        assert bounds[-1] == max(counter)
        assert histogram.minimum == min(counter)

    @given(counter=counters)
    @settings(max_examples=200, derandomize=True)
    def test_full_domain_range_selectivity_is_one(self, counter):
        histogram = EquiDepthHistogram.build(counter)
        low, high = min(counter), max(counter)
        assert histogram.selectivity(">=", low) == pytest.approx(1.0, abs=0.05)
        assert histogram.selectivity("<=", high) == pytest.approx(1.0)
        assert histogram.selectivity("<", low) == 0.0
        assert histogram.selectivity(">", high) == 0.0

    @given(
        counter=counters,
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        value=st.integers(min_value=-1200, max_value=1200),
    )
    @settings(max_examples=300, derandomize=True)
    def test_selectivity_always_in_unit_interval(self, counter, op, value):
        histogram = EquiDepthHistogram.build(counter)
        fraction = histogram.selectivity(op, value)
        assert fraction is not None
        assert 0.0 <= fraction <= 1.0

    @given(counter=counters, value=st.integers(min_value=-1200, max_value=1200))
    @settings(max_examples=200, derandomize=True)
    def test_range_estimates_track_true_fractions(self, counter, value):
        """<= estimates stay within one bucket's depth of the truth."""
        histogram = EquiDepthHistogram.build(counter)
        total = sum(counter.values())
        truth = sum(m for v, m in counter.items() if v <= value) / total
        estimate = histogram.selectivity("<=", value)
        slack = (max(histogram.depths()) + 1) / total
        assert abs(estimate - truth) <= slack

    def test_skewed_duplicates_split_across_buckets(self):
        # One value holding 90% of the rows must not collapse the
        # histogram into a single giant bucket.
        counter = {0: 900}
        counter.update({i: 2 for i in range(1, 51)})
        histogram = EquiDepthHistogram.build(counter, buckets=10)
        depths = histogram.depths()
        assert len(depths) == 10
        assert max(depths) - min(depths) <= 1

    def test_unorderable_values_yield_no_histogram(self):
        assert EquiDepthHistogram.build({}) is None
        assert EquiDepthHistogram.build({1: 2, "x": 3}) is None

    def test_string_domain_uses_half_bucket_interpolation(self):
        histogram = EquiDepthHistogram.build(
            {chr(ord("a") + i): 1 for i in range(26)}, buckets=4
        )
        fraction = histogram.selectivity("<=", "m")
        assert 0.0 < fraction < 1.0
        assert histogram.selectivity("=", "zz") == 0.0


class TestCostModelDegenerateDistributions:
    model = CostModel()

    def test_empty_table_estimates_zero(self):
        stats = TableStatistics()
        for op in ("=", "!=", "<", "<=", ">", ">="):
            assert self.model.selection_selectivity(stats, "A", op, 5) == 0.0
            assert self.model.estimate_selection(stats, "A", op, value=5) == 0.0

    def test_all_null_attribute_estimates_zero(self):
        # Under the lower-bound discipline no comparison against an
        # all-null attribute is ever TRUE — including "!=" and ranges.
        stats = TableStatistics(rows({"A": None}, {"A": None}, {"A": None}))
        for op in ("=", "!=", "<", "<=", ">", ">="):
            selectivity = self.model.selection_selectivity(stats, "A", op, 5)
            assert selectivity == 0.0

    def test_single_value_attribute(self):
        stats = TableStatistics(rows(*({"A": 7} for _ in range(10))))
        hit = self.model.selection_selectivity(stats, "A", "=", 7)
        assert hit == pytest.approx(1.0)
        assert self.model.selection_selectivity(stats, "A", "!=", 7) == 0.0
        # All rows are exactly 7: the data-driven range estimates follow.
        assert self.model.selection_selectivity(stats, "A", "<", 7) == 0.0
        assert self.model.selection_selectivity(stats, "A", ">=", 7) == pytest.approx(1.0)
        assert self.model.selection_selectivity(stats, "A", ">", 7) == 0.0

    def test_estimates_clamped_to_unit_interval(self):
        mixed = rows(
            {"A": 1}, {"A": 1}, {"A": 1}, {"A": 2}, {"A": None}, {"A": None}
        )
        stats = TableStatistics(mixed)
        for op in ("=", "!=", "<", "<=", ">", ">="):
            for value in (-10, 1, 2, 99):
                fraction = self.model.selection_selectivity(stats, "A", op, value)
                assert 0.0 <= fraction <= 1.0

    def test_valueless_calls_keep_constant_fallbacks(self):
        stats = TableStatistics(rows(*({"A": i} for i in range(30))))
        assert self.model.selection_selectivity(stats, "A", "<") == pytest.approx(
            self.model.theta_selectivity
        )

    def test_stale_statistics_fall_back_to_constants(self):
        stats = TableStatistics(rows(*({"A": i} for i in range(30))))
        assert stats.histogram("A") is not None
        stats.staleness_threshold = 0
        stats.add_rows(rows({"A": 99}))
        assert stats.stale
        assert stats.histogram("A") is None
        assert self.model.selection_selectivity(
            stats, "A", "<", 5
        ) == pytest.approx((31 / 31) * self.model.theta_selectivity)


class TestPersistenceRoundTrips:
    def make_database(self, name="histdb"):
        database = Database(name)
        table = database.create_table("T", ["A", "B"])
        table.insert_many(
            [(i % 50, i) for i in range(400)] + [(None, 1000), (None, 1001)]
        )
        database.analyze()
        return database

    def test_snapshot_restore_preserves_histograms(self):
        database = self.make_database()
        table = database.catalog.table("T")
        before_histogram = table.statistics.histogram("A")
        assert before_histogram is not None
        snapshot = database.snapshot()
        table.insert_many([(999, 999)] * 5)
        database.restore(snapshot)
        restored = database.catalog.table("T").statistics
        assert restored.histogram("A") == before_histogram

    def test_statistics_copy_round_trips_histograms(self):
        stats = TableStatistics(rows(*({"A": i % 9, "B": i} for i in range(100))))
        dup = stats.copy()
        assert dup.histogram("A") == stats.histogram("A")
        assert dup.histogram("B") == stats.histogram("B")
        # The copy is independent: re-analyzing it leaves the original.
        before = stats.histogram("A")
        assert before is not None
        dup.analyze(rows({"A": 1}))
        assert dup.histogram("A") != before
        assert stats.histogram("A") == before

    def test_checkpoint_recovery_preserves_histograms(self, tmp_path):
        directory = os.fspath(tmp_path / "wal")
        database = Database.open(directory, name="histwal")
        table = database.create_table("T", ["A", "B"])
        table.insert_many([(i % 25, i) for i in range(300)])
        database.analyze()
        expected_histogram = table.statistics.histogram("A")
        assert expected_histogram is not None
        assert database.checkpoint() is True
        database.close()

        recovered = Database.open(directory, name="recovered")
        try:
            stats = recovered.catalog.table("T").statistics
            assert stats.histogram("A") == expected_histogram
            assert stats.histogram("B") is not None
            # And the cost model actually consults the recovered data.
            model = CostModel()
            fraction = model.selection_selectivity(stats, "A", "<", 5)
            assert fraction == pytest.approx(5 / 25, rel=0.3)
        finally:
            recovered.close()

    def test_checkpoint_with_dropped_statistics_slots_still_opens(
        self, tmp_path, monkeypatch
    ):
        """Statistics used to carry an adaptive ``correction`` factor and
        a ``_signatures`` null-pattern counter, and checkpoints pickled
        both slots.  Such a checkpoint must still open, with the
        surviving counters intact."""

        def old_shape(stats):
            slots = {name: getattr(stats, name) for name in TableStatistics.__slots__}
            slots.update(correction=2.5, _signatures={("A", "B"): 300, ("B",): 1})
            return None, slots

        directory = os.fspath(tmp_path / "wal")
        database = Database.open(directory, name="oldwal")
        table = database.create_table("T", ["A", "B"])
        table.insert_many([(i % 25, i) for i in range(300)] + [(None, 1000)])
        database.analyze()
        expected = table.statistics.copy()
        monkeypatch.setattr(TableStatistics, "__getstate__", old_shape, raising=False)
        assert database.checkpoint() is True
        database.close()
        monkeypatch.undo()
        with open(os.path.join(directory, CHECKPOINT_NAME), "rb") as handle:
            assert b"_signatures" in handle.read()

        recovered = Database.open(directory, name="recovered")
        try:
            stats = recovered.catalog.table("T").statistics
            assert stats.same_counts_as(expected)
            assert stats.histogram("A") == expected.histogram("A")
            assert not hasattr(stats, "correction")
            assert len(recovered.catalog.table("T")) == 301
        finally:
            recovered.close()

    def test_default_bucket_count_is_bounded_by_rows(self):
        stats = TableStatistics(rows({"A": 1}, {"A": 2}, {"A": 3}))
        histogram = stats.histogram("A")
        assert histogram is not None
        assert len(histogram.buckets) == 3 <= DEFAULT_BUCKETS
