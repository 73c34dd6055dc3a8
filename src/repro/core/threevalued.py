"""The three-valued logic of Section 5 (Table III).

Zaniolo's query-evaluation strategy keeps Codd's three truth values but
reinterprets the third one: instead of MAYBE ("the value exists, so the
comparison might hold") the third value is ``ni`` ("no information").  The
truth tables are the standard Kleene strong tables; what changes is the
*interpretation* and, crucially, the decision to return only the tuples
that evaluate to TRUE (the lower bound ``||Q||_*``).

This module defines:

* :class:`TruthValue` — ``TRUE``, ``FALSE``, ``NI_TRUTH`` with the Table III
  connectives (``&``, ``|``, ``~``) and convenience predicates;
* :func:`compare` — evaluation of a relational expression ``x θ y`` over
  extended-domain values: any null operand makes the result ``ni``
  (footnote 7: a nonexistent value satisfies no comparison, and an unknown
  one yields no information);
* the comparison-operator registry shared with the algebra, the QUEL
  evaluator and the Codd baseline.

The Codd baseline (``repro.codd.threevalued``) re-exports the same tables
under the MAYBE name so the two systems can be compared side by side
(``tests/test_codd_baseline.py``).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Iterable

from .errors import AlgebraError
from .nulls import is_null


class TruthValue:
    """One of the three truth values TRUE, FALSE, ni.

    Instances are singletons; use the module constants :data:`TRUE`,
    :data:`FALSE`, :data:`NI_TRUTH`.  The logical connectives follow
    Table III of the paper (Kleene's strong three-valued logic):

    ====== ======= ======= =======
    AND    TRUE    ni      FALSE
    ====== ======= ======= =======
    TRUE   TRUE    ni      FALSE
    ni     ni      ni      FALSE
    FALSE  FALSE   FALSE   FALSE
    ====== ======= ======= =======

    ====== ======= ======= =======
    OR     TRUE    ni      FALSE
    ====== ======= ======= =======
    TRUE   TRUE    TRUE    TRUE
    ni     TRUE    ni      ni
    FALSE  TRUE    ni      FALSE
    ====== ======= ======= =======

    NOT maps TRUE↔FALSE and fixes ni.
    """

    __slots__ = ("_name", "_rank")

    _instances: Dict[str, "TruthValue"] = {}

    def __new__(cls, name: str, rank: int):
        if name in cls._instances:
            return cls._instances[name]
        instance = super().__new__(cls)
        instance._name = name
        instance._rank = rank
        cls._instances[name] = instance
        return instance

    @property
    def name(self) -> str:
        return self._name

    # -- predicates -----------------------------------------------------------
    def is_true(self) -> bool:
        return self._name == "TRUE"

    def is_false(self) -> bool:
        return self._name == "FALSE"

    def is_ni(self) -> bool:
        return self._name == "ni"

    # -- connectives (Table III) -------------------------------------------------
    def and_(self, other: "TruthValue") -> "TruthValue":
        if self.is_false() or other.is_false():
            return FALSE
        if self.is_true() and other.is_true():
            return TRUE
        return NI_TRUTH

    def or_(self, other: "TruthValue") -> "TruthValue":
        if self.is_true() or other.is_true():
            return TRUE
        if self.is_false() and other.is_false():
            return FALSE
        return NI_TRUTH

    def not_(self) -> "TruthValue":
        if self.is_true():
            return FALSE
        if self.is_false():
            return TRUE
        return NI_TRUTH

    def __and__(self, other: "TruthValue") -> "TruthValue":
        return self.and_(other)

    def __or__(self, other: "TruthValue") -> "TruthValue":
        return self.or_(other)

    def __invert__(self) -> "TruthValue":
        return self.not_()

    # -- misc -----------------------------------------------------------------------
    def __bool__(self) -> bool:
        """Truthiness = "definitely true".

        This is the lower-bound discipline of Section 5: a tuple is kept
        only when its predicate is TRUE; FALSE and ni are both discarded.
        """
        return self.is_true()

    def __repr__(self) -> str:
        return self._name

    def __hash__(self) -> int:
        return hash(("TruthValue", self._name))

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, TruthValue):
            return self._name == other._name
        return NotImplemented


#: Definitely true.
TRUE = TruthValue("TRUE", 2)
#: Definitely false.
FALSE = TruthValue("FALSE", 0)
#: No information (the third truth value of Table III).
NI_TRUTH = TruthValue("ni", 1)

#: All three truth values, handy for exhaustive property tests.
TRUTH_VALUES = (TRUE, NI_TRUTH, FALSE)


def truth_of(value: Any) -> TruthValue:
    """Coerce a Python bool (or a TruthValue) to a :class:`TruthValue`."""
    if isinstance(value, TruthValue):
        return value
    return TRUE if value else FALSE


def conjunction(values: Iterable[TruthValue]) -> TruthValue:
    """Fold AND over an iterable; the empty conjunction is TRUE."""
    result = TRUE
    for v in values:
        result = result & v
        if result.is_false():
            return FALSE
    return result


def disjunction(values: Iterable[TruthValue]) -> TruthValue:
    """Fold OR over an iterable; the empty disjunction is FALSE."""
    result = FALSE
    for v in values:
        result = result | v
        if result.is_true():
            return TRUE
    return result


# ---------------------------------------------------------------------------
# Relational (comparison) expressions over extended domains
# ---------------------------------------------------------------------------

#: The comparison operators θ admitted in relational expressions (Sec. 5).
COMPARISON_OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "≠": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    "≤": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "≥": operator.ge,
}


def comparison_function(op: str) -> Callable[[Any, Any], bool]:
    """Look up the Python function implementing the comparison operator *op*."""
    try:
        return COMPARISON_OPERATORS[op]
    except KeyError:
        raise AlgebraError(f"unknown comparison operator {op!r}") from None


def compare(left: Any, op: str, right: Any) -> TruthValue:
    """Evaluate the relational expression ``left θ right`` in three-valued logic.

    If either operand is a null (of any interpretation) the expression
    evaluates to ``ni``; otherwise it evaluates to TRUE or FALSE as usual.
    A type mismatch between two non-null operands (e.g. comparing a string
    with an integer under ``<``) is reported as FALSE for equality-family
    operators and raises :class:`AlgebraError` for order operators, so
    silent nonsense never enters a query answer.
    """
    if is_null(left) or is_null(right):
        return NI_TRUTH
    func = comparison_function(op)
    try:
        return truth_of(func(left, right))
    except TypeError:
        if func in (operator.eq, operator.ne):
            return truth_of(func is operator.ne)
        raise AlgebraError(
            f"cannot compare {left!r} and {right!r} with {op!r}: incompatible types"
        ) from None
