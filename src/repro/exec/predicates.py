"""Predicate compilation for the operator tree's filters and joins.

The logical plan ships *conjuncts* — plain picklable core predicate AST
(:mod:`repro.core.query`); the tree builder turns each into the row
function its operator calls, through the three entry points here:

* :func:`single_variable_predicate` — a pushed conjunct confined to one
  range, evaluated over that range's *unrenamed* base rows;
* :func:`residual_predicate` — a conjunct over the combined stream,
  whose attributes carry their ``variable.`` prefixes;
* :func:`pair_predicate` — a conjunct fused into a join, evaluated over
  the ``(probe row, raw build row)`` pair before the joined tuple is
  built.  The planner calls it too: a conjunct is fused exactly when it
  compiles here.

Conjunctions of plain comparisons compile to direct value getters;
every other shape (Or / Not / exotic terms) goes through the generic
three-valued ``Predicate.evaluate``.  Either way a row is kept iff the
predicate is TRUE — the Section 5 lower-bound discipline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.query import And, AttributeRef, Comparison, Constant, Predicate
from ..core.threevalued import compare
from ..core.tuples import XTuple


def _term_getter(term, variable: Optional[str] = None):
    """A direct row-value getter for a comparison term, or ``None`` when
    the term shape needs the generic evaluation machinery.  With
    *variable* the rows carry bare attribute names (a pre-rename range
    filter); without it they carry ``variable.attribute`` names."""
    if isinstance(term, AttributeRef):
        if variable is not None and term.variable != variable:
            return None
        key = term.attribute if variable is not None else f"{term.variable}.{term.attribute}"
        return lambda row, _k=key: row[_k]
    if isinstance(term, Constant):
        value = term.literal
        return lambda row, _v=value: _v
    return None


def _compile_comparisons(predicate: Predicate, variable: Optional[str] = None):
    """Compile a conjunction of plain comparisons into one fast row
    predicate, or return ``None`` for shapes (Or / Not / exotic terms)
    that must go through the generic three-valued evaluator.  Keeping a
    row iff the conjunction is TRUE is exactly "every comparison TRUE"
    under the Table III AND semantics, so early exit is sound."""
    conjuncts = predicate.operands if isinstance(predicate, And) else (predicate,)
    compiled = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison):
            return None
        left = _term_getter(conjunct.left, variable)
        right = _term_getter(conjunct.right, variable)
        if left is None or right is None:
            return None
        compiled.append((left, conjunct.op, right))

    def predicate_fn(row: XTuple, _compiled=tuple(compiled)) -> bool:
        for left, op, right in _compiled:
            if not compare(left(row), op, right(row)).is_true():
                return False
        return True

    return predicate_fn


def single_variable_predicate(conjunct: Predicate, variable: str):
    """The filter for a pushed single-variable residual — evaluated over
    the *unrenamed* base rows."""
    fast = _compile_comparisons(conjunct, variable)
    if fast is not None:
        return fast

    def predicate(row: XTuple, _c=conjunct, _v=variable):
        return _c.evaluate({_v: row})

    return predicate


def residual_predicate(conjunct: Predicate, variables: Sequence[str]):
    """The filter for a residual conjunct over combined rows (attributes
    carry their ``variable.`` prefixes)."""
    fast = _compile_comparisons(conjunct)
    if fast is not None:
        return fast
    return _bind_residual(conjunct, variables)


def _pair_term_getter(term, new_variable: str):
    """A value getter over a join's ``(probe row, build row)`` pair.

    References to *new_variable* read the **unrenamed build row** under
    the bare attribute name (the probe loop evaluates the residual
    before the build row is renamed or joined — see
    :func:`repro.core.engine.joins.probe_join_block`); references to any
    already-combined variable read the probe row under its qualified
    ``variable.attribute`` name.  Returns ``None`` for term shapes that
    need the generic evaluator.
    """
    if isinstance(term, AttributeRef):
        if term.variable == new_variable:
            key = term.attribute
            return lambda probe, build, _k=key: build[_k]
        key = f"{term.variable}.{term.attribute}"
        return lambda probe, build, _k=key: probe[_k]
    if isinstance(term, Constant):
        value = term.literal
        return lambda probe, build, _v=value: _v
    return None


def pair_predicate(predicate: Predicate, new_variable: str):
    """Compile a residual conjunct into a fused join pair predicate.

    Returns a ``(probe row, raw build row) -> bool`` function keeping
    exactly the pairs on which the conjunction is TRUE (Table III AND
    semantics: every comparison TRUE, so early exit is sound), or
    ``None`` for shapes (Or / Not / exotic terms) that must stay a
    post-join :class:`~repro.exec.Filter`.  The planner fuses a conjunct
    only when this returns non-``None``.
    """
    conjuncts = predicate.operands if isinstance(predicate, And) else (predicate,)
    compiled = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison):
            return None
        left = _pair_term_getter(conjunct.left, new_variable)
        right = _pair_term_getter(conjunct.right, new_variable)
        if left is None or right is None:
            return None
        compiled.append((left, conjunct.op, right))

    def pair_fn(probe: XTuple, build: XTuple, _compiled=tuple(compiled)) -> bool:
        for left, op, right in _compiled:
            if not compare(left(probe, build), op, right(probe, build)).is_true():
                return False
        return True

    return pair_fn


def _bind_residual(predicate: Predicate, variables: Sequence[str]):
    """Turn a residual predicate into a row predicate over the combined
    (``variable.``-prefixed) schema, via the generic evaluator."""

    def row_predicate(row: XTuple):
        binding = {variable: _RowView(row, variable) for variable in variables}
        return predicate.evaluate(binding)

    return row_predicate


class _RowView:
    """Presents a combined row as if it were a row of a single range variable.

    The tree renames every attribute to ``variable.attribute``; this
    adapter lets the original predicate (written against bare attribute
    names) read the prefixed columns.
    """

    __slots__ = ("_row", "_variable")

    def __init__(self, row: XTuple, variable: str):
        self._row = row
        self._variable = variable

    def __getitem__(self, attribute: str):
        return self._row[f"{self._variable}.{attribute}"]
