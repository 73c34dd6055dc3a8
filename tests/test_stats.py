"""Unit tests for the statistics/cost-model subsystem (``repro.stats``).

The property-level pinning — incremental maintenance ≡ ``analyze()`` from
scratch after arbitrary mutation interleavings — lives in
``tests/test_storage_properties.py``; these are the direct behavioural
tests for the counters and the null-aware estimation formulas.
"""

from __future__ import annotations

import pytest

from repro.core.tuples import XTuple
from repro.stats import CostModel, DEFAULT_COST_MODEL, TableStatistics
from repro.storage.table import Table


def rows(*specs):
    return [XTuple({a: v for a, v in spec.items() if v is not None}) for spec in specs]


class TestTableStatistics:
    def test_counts_rows_distincts_and_nulls(self):
        stats = TableStatistics(rows(
            {"A": 1, "B": "x"},
            {"A": 1, "B": "y"},
            {"A": 2, "B": None},
            {"A": None, "B": "x"},
        ))
        assert stats.row_count == 4
        assert stats.distinct_count("A") == 2
        assert stats.distinct_count("B") == 2
        assert stats.non_null_count("A") == 3
        assert stats.null_count("A") == 1
        assert stats.null_count("B") == 1
        assert stats.null_fraction("A") == pytest.approx(0.25)
        assert stats.distinct_count("C") == 0
        assert stats.null_count("C") == 4

    def test_incremental_add_remove_round_trip(self):
        batch = rows({"A": 1, "B": 2}, {"A": 1, "B": None}, {"A": 2, "B": 2})
        stats = TableStatistics()
        stats.add_rows(batch)
        assert stats == TableStatistics(batch)
        stats.remove_rows(batch[:1])
        assert stats == TableStatistics(batch[1:])
        stats.remove_rows(batch[1:])
        assert stats.row_count == 0
        assert stats == TableStatistics()

    def test_table_analyze_is_noop_on_counters(self):
        table = Table(["A", "B"], name="T")
        table.insert_many([(1, 2), (1, None), (3, 4)])
        table.delete((1, None))
        before = TableStatistics(table.rows())
        assert table.statistics == before
        table.analyze()
        assert table.statistics == before


class TestCostModel:
    @pytest.fixture
    def stats(self) -> TableStatistics:
        # 10 rows: A has 5 distinct values over 8 non-null rows (2 null);
        # B is always null.
        return TableStatistics(rows(
            *({"A": i % 5, "B": None} for i in range(8)),
            {"A": None, "B": None},
            {"A": None, "B": None},
        ))

    def test_equality_selectivity_discounts_nulls(self, stats):
        model = CostModel()
        # visible fraction 0.8, uniform over 5 distinct values
        assert model.selection_selectivity(stats, "A", "=") == pytest.approx(0.8 / 5)
        # an all-null attribute can never satisfy an equality
        assert model.selection_selectivity(stats, "B", "=") == 0.0

    def test_inequality_keeps_nonnull_complement(self, stats):
        model = CostModel()
        assert model.selection_selectivity(stats, "A", "!=") == pytest.approx(0.8 * 0.8)
        # nulls fail != too: ni is never TRUE
        assert model.selection_selectivity(stats, "B", "!=") == 0.0

    def test_range_selectivity_uses_theta_fraction(self, stats):
        model = CostModel(theta_selectivity=0.5)
        assert model.selection_selectivity(stats, "A", "<") == pytest.approx(0.8 * 0.5)
        assert model.estimate_selection(stats, "A", "<") == pytest.approx(10 * 0.4)
        assert model.estimate_selection(stats, "A", "<", cardinality=100) == pytest.approx(40)

    def test_empty_table_selects_nothing(self):
        model = CostModel()
        assert model.selection_selectivity(TableStatistics(), "A", "=") == 0.0

    def test_join_cardinality_divides_by_max_distinct(self):
        model = CostModel()
        assert model.join_cardinality(100, 200, [(10, 20)]) == pytest.approx(1000)
        # composite keys multiply the divisors
        assert model.join_cardinality(100, 200, [(10, 20), (4, 2)]) == pytest.approx(250)
        # zero distinct counts never divide by zero
        assert model.join_cardinality(10, 10, [(0, 0)]) == pytest.approx(100)
        assert model.join_cardinality(0, 10, [(3, 3)]) == 0.0

    def test_join_cardinality_discounts_null_fractions(self):
        model = CostModel()
        estimate = model.join_cardinality(100, 100, [(10, 10)], [(0.0, 0.5)])
        assert estimate == pytest.approx(500)

    def test_product_and_residual_defaults(self):
        model = DEFAULT_COST_MODEL
        assert model.product_cardinality(7, 9) == 63
        assert model.residual_selectivity(["="]) == pytest.approx(model.default_eq_selectivity)
        assert model.residual_selectivity(["<", ">"]) == pytest.approx(model.theta_selectivity ** 2)


class TestCostModelDegenerateDistributions:
    model = CostModel()

    def test_empty_table_estimates_zero(self):
        stats = TableStatistics()
        for op in ("=", "!=", "<", "<=", ">", ">="):
            assert self.model.selection_selectivity(stats, "A", op) == 0.0
            assert self.model.estimate_selection(stats, "A", op) == 0.0

    def test_all_null_attribute_estimates_zero(self):
        # Under the lower-bound discipline no comparison against an
        # all-null attribute is ever TRUE — including "!=" and ranges.
        stats = TableStatistics(rows({"A": None}, {"A": None}, {"A": None}))
        for op in ("=", "!=", "<", "<=", ">", ">="):
            assert self.model.selection_selectivity(stats, "A", op) == 0.0

    def test_single_value_attribute(self):
        stats = TableStatistics(rows(*({"A": 7} for _ in range(10))))
        assert self.model.selection_selectivity(stats, "A", "=") == pytest.approx(1.0)
        assert self.model.selection_selectivity(stats, "A", "!=") == 0.0
        # No value distribution is kept: a range keeps the 1/3 constant.
        for op in ("<", "<=", ">", ">="):
            assert self.model.selection_selectivity(stats, "A", op) == pytest.approx(
                self.model.theta_selectivity
            )

    def test_estimates_clamped_to_unit_interval(self):
        stats = TableStatistics(rows(
            {"A": 1}, {"A": 1}, {"A": 1}, {"A": 2}, {"A": None}, {"A": None}
        ))
        for model in (self.model, CostModel(theta_selectivity=5.0,
                                            default_eq_selectivity=5.0)):
            for op in ("=", "!=", "<", "<=", ">", ">="):
                fraction = model.selection_selectivity(stats, "A", op)
                assert 0.0 <= fraction <= 1.0

    def test_valueless_calls_keep_constant_fallbacks(self):
        stats = TableStatistics(rows(*({"A": i} for i in range(30))))
        assert self.model.selection_selectivity(stats, "A", "<") == pytest.approx(
            self.model.theta_selectivity
        )
        assert self.model.selection_selectivity(stats, "A", "!=") == pytest.approx(
            1.0 - 1.0 / 30
        )
