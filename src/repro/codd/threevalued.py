"""Codd's three-valued logic with MAYBE (Codd 1979), used as a baseline.

Codd's logic has the same truth tables as Table III (Kleene's strong
tables) but a different *interpretation* of the third value: MAYBE means
"the comparison might hold, because the null stands for some existing but
unknown value".  That reading is what creates the tautology problem the
paper's Appendix analyses (a disjunction like ``TEL# > k ∨ TEL# < k``
*should* be certainly true under the unknown interpretation, yet the
truth-table evaluation returns MAYBE) and what motivates the MAYBE
versions of the relational operators.

The truth values here are distinct objects from the core
:class:`~repro.core.threevalued.TruthValue` so the two systems cannot be
mixed up accidentally; conversion helpers are provided for the comparison
experiments.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from ..core.errors import AlgebraError
from ..core.nulls import is_null
from ..core.threevalued import comparison_function
from ..core import threevalued as core_tvl


class CoddTruth:
    """One of Codd's three truth values: TRUE, MAYBE, FALSE."""

    __slots__ = ("_name",)
    _instances: Dict[str, "CoddTruth"] = {}

    def __new__(cls, name: str):
        if name in cls._instances:
            return cls._instances[name]
        instance = super().__new__(cls)
        instance._name = name
        cls._instances[name] = instance
        return instance

    @property
    def name(self) -> str:
        return self._name

    def is_true(self) -> bool:
        return self._name == "TRUE"

    def is_false(self) -> bool:
        return self._name == "FALSE"

    def is_maybe(self) -> bool:
        return self._name == "MAYBE"

    def and_(self, other: "CoddTruth") -> "CoddTruth":
        if self.is_false() or other.is_false():
            return CODD_FALSE
        if self.is_true() and other.is_true():
            return CODD_TRUE
        return MAYBE

    def or_(self, other: "CoddTruth") -> "CoddTruth":
        if self.is_true() or other.is_true():
            return CODD_TRUE
        if self.is_false() and other.is_false():
            return CODD_FALSE
        return MAYBE

    def not_(self) -> "CoddTruth":
        if self.is_true():
            return CODD_FALSE
        if self.is_false():
            return CODD_TRUE
        return MAYBE

    def __and__(self, other: "CoddTruth") -> "CoddTruth":
        return self.and_(other)

    def __or__(self, other: "CoddTruth") -> "CoddTruth":
        return self.or_(other)

    def __invert__(self) -> "CoddTruth":
        return self.not_()

    def __bool__(self) -> bool:
        return self.is_true()

    def __repr__(self) -> str:
        return self._name

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, CoddTruth):
            return self._name == other._name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("CoddTruth", self._name))


CODD_TRUE = CoddTruth("TRUE")
CODD_FALSE = CoddTruth("FALSE")
MAYBE = CoddTruth("MAYBE")

CODD_TRUTH_VALUES = (CODD_TRUE, MAYBE, CODD_FALSE)


def codd_compare(left: Any, op: str, right: Any) -> CoddTruth:
    """Evaluate ``left θ right`` under Codd's unknown interpretation.

    Any null operand makes the result MAYBE (the value exists, so the
    comparison might hold); otherwise TRUE/FALSE as usual.
    """
    if is_null(left) or is_null(right):
        return MAYBE
    func = comparison_function(op)
    try:
        return CODD_TRUE if func(left, right) else CODD_FALSE
    except TypeError:
        import operator as _op
        if func in (_op.eq, _op.ne):
            return CODD_TRUE if func is _op.ne else CODD_FALSE
        raise AlgebraError(
            f"cannot compare {left!r} and {right!r} with {op!r}: incompatible types"
        ) from None


def to_core_truth(value: CoddTruth) -> core_tvl.TruthValue:
    """Map Codd's truth values onto the core ones (MAYBE ↦ ni).

    The truth *tables* coincide; only the interpretation differs
    (``tests/test_codd_baseline.py`` checks the tables cell by cell).
    """
    if value.is_true():
        return core_tvl.TRUE
    if value.is_false():
        return core_tvl.FALSE
    return core_tvl.NI_TRUTH


def from_core_truth(value: core_tvl.TruthValue) -> CoddTruth:
    """Map core truth values onto Codd's (ni ↦ MAYBE)."""
    if value.is_true():
        return CODD_TRUE
    if value.is_false():
        return CODD_FALSE
    return MAYBE


def conjunction(values: Iterable[CoddTruth]) -> CoddTruth:
    result = CODD_TRUE
    for v in values:
        result = result & v
        if result.is_false():
            return CODD_FALSE
    return result


def disjunction(values: Iterable[CoddTruth]) -> CoddTruth:
    result = CODD_FALSE
    for v in values:
        result = result | v
        if result.is_true():
            return CODD_TRUE
    return result
