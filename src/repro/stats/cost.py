"""A System-R-flavoured cost model over :class:`TableStatistics`.

Estimation follows the classic selectivity formulas, adjusted for the
paper's three-valued semantics: under the Section 5 lower-bound
discipline a comparison touching ``ni`` evaluates to ``ni`` and is never
TRUE, so every estimate first discounts the null partition of the
compared attribute(s).  Concretely:

* selection ``A = k`` keeps ``non_null(A) / distinct(A)`` rows — the
  null partition contributes nothing, and each distinct value is assumed
  equally likely (the uniformity assumption);
* selection ``A != k`` keeps the complement *within the non-null
  partition* — null rows fail ``!=`` too (``ni`` is not TRUE);
* range selections keep a fixed fraction of the non-null partition
  (:data:`THETA_SELECTIVITY`, the textbook 1/3);
* an equi-join on ``(A₁=B₁, …, A_m=B_m)`` produces
  ``|L|·|R| / Π max(V(L,Aᵢ), V(R,Bᵢ))`` rows, each factor additionally
  scaled by the probability that both sides are non-null on the compared
  pair (the containment-of-value-sets assumption, null-discounted).

The statistics are counts only — no value distribution is kept — so a
range estimate never depends on the constant compared against.  All
estimates return floats ≥ 0; the planner only compares them, so
systematic bias cancels.  Exactness is never assumed — ``Plan.explain``
prints ``est=`` next to the measured ``rows=`` precisely so the two can
be compared.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .statistics import TableStatistics

#: Fraction of the non-null partition assumed to satisfy a range predicate.
THETA_SELECTIVITY = 1.0 / 3.0

#: Fallback equality selectivity when no distinct count is available.
DEFAULT_EQ_SELECTIVITY = 0.1


class CostModel:
    """Selectivity and cardinality estimation for the QUEL optimizer."""

    def __init__(
        self,
        theta_selectivity: float = THETA_SELECTIVITY,
        default_eq_selectivity: float = DEFAULT_EQ_SELECTIVITY,
    ):
        self.theta_selectivity = theta_selectivity
        self.default_eq_selectivity = default_eq_selectivity

    # -- selections -----------------------------------------------------------
    def selection_selectivity(
        self,
        stats: TableStatistics,
        attribute: str,
        op: str,
    ) -> float:
        """Estimated fraction of rows a ``A op constant`` selection keeps.

        The null partition of *attribute* is discounted first: a null is
        never TRUE under any comparison, equality and inequality alike.
        Equality and ``!=`` assume uniformity over the distinct values,
        ranges keep :data:`THETA_SELECTIVITY`; every path clamps to
        [0, 1].
        """
        if stats.row_count == 0:
            return 0.0
        visible = stats.non_null_count(attribute) / stats.row_count
        visible = min(1.0, max(0.0, visible))
        if visible == 0.0:
            return 0.0
        distinct = stats.distinct_count(attribute)
        if op in ("=", "=="):
            eq = (1.0 / distinct) if distinct else self.default_eq_selectivity
            return min(1.0, visible * min(1.0, eq))
        if op == "!=":
            eq = (1.0 / distinct) if distinct else self.default_eq_selectivity
            return min(1.0, visible * max(0.0, 1.0 - eq))
        return min(1.0, visible * self.theta_selectivity)

    def estimate_selection(
        self,
        stats: TableStatistics,
        attribute: str,
        op: str,
        cardinality: float = None,
    ) -> float:
        """Estimated output rows of a constant selection over *cardinality*
        rows (default: the table's own row count)."""
        base = stats.row_count if cardinality is None else cardinality
        return base * self.selection_selectivity(stats, attribute, op)

    # -- joins ----------------------------------------------------------------
    def join_cardinality(
        self,
        left_cardinality: float,
        right_cardinality: float,
        key_distincts: Iterable[Tuple[float, float]],
        null_fractions: Iterable[Tuple[float, float]] = (),
    ) -> float:
        """Estimated output rows of a (composite-key) equi-join.

        *key_distincts* pairs up the distinct-value counts of the compared
        attributes, one ``(V(L,Aᵢ), V(R,Bᵢ))`` entry per fused equality;
        *null_fractions* optionally pairs up the null fractions of the same
        attributes, discounting the rows invisible to the probe.
        """
        estimate = float(left_cardinality) * float(right_cardinality)
        if estimate == 0.0:
            return 0.0
        for left_distinct, right_distinct in key_distincts:
            estimate /= max(left_distinct, right_distinct, 1.0)
        for left_null, right_null in null_fractions:
            estimate *= max(0.0, 1.0 - left_null) * max(0.0, 1.0 - right_null)
        return estimate

    def product_cardinality(self, left_cardinality: float, right_cardinality: float) -> float:
        """A Cartesian product multiplies — which is why products go last."""
        return float(left_cardinality) * float(right_cardinality)

    # -- residual predicates ---------------------------------------------------
    def residual_selectivity(self, comparisons: Sequence[str]) -> float:
        """Crude selectivity of a residual predicate from its operator list:
        equality conjuncts count as the default equality selectivity, any
        other shape as the range fraction."""
        selectivity = 1.0
        for op in comparisons:
            if op in ("=", "=="):
                selectivity *= self.default_eq_selectivity
            else:
                selectivity *= self.theta_selectivity
        return selectivity

    def __repr__(self) -> str:
        return (
            f"CostModel(theta={self.theta_selectivity:.3f}, "
            f"eq_default={self.default_eq_selectivity:.3f})"
        )


#: The shared default instance the planner uses when none is supplied.
DEFAULT_COST_MODEL = CostModel()
