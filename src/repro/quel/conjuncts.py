"""Conjunct classification: pure helpers over the core predicate AST.

The planner (:mod:`repro.quel.planner`) sorts a qualification's
top-level conjuncts into what each can drive — a pushed constant
selection, an equality link between two ranges (a join key), or a
residual — before it estimates anything.  These helpers read only the
:mod:`repro.core.query` AST; they hold no planner state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.query import (
    And,
    AttributeRef,
    Comparison,
    Constant,
    Predicate,
    TruthConstant,
)


def flatten(predicate: Optional[Predicate]) -> List[Predicate]:
    """Top-level conjuncts of a (possibly None) residual predicate."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        return list(predicate.operands)
    return [predicate]


def conjoin(predicates: List[Predicate]) -> Optional[Predicate]:
    """Fold a list of conjuncts back into a predicate (None when empty)."""
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(*predicates)


def is_equijoin(conjunct: Predicate) -> bool:
    """True for a top-level ``t.A = m.B`` equality between two ranges."""
    return (
        isinstance(conjunct, Comparison)
        and conjunct.op in ("=", "==")
        and isinstance(conjunct.left, AttributeRef)
        and isinstance(conjunct.right, AttributeRef)
        and conjunct.left.variable != conjunct.right.variable
    )


_FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "==": "==", "!=": "!="}


def constant_parts(conjunct: Comparison) -> Tuple[str, str, Any]:
    """The (attribute, operator, constant) of a pushable constant
    comparison, normalised so the attribute reads as the left side."""
    if isinstance(conjunct.left, AttributeRef):
        return conjunct.left.attribute, conjunct.op, conjunct.right.literal  # type: ignore[union-attr]
    return (
        conjunct.right.attribute,  # type: ignore[union-attr]
        _FLIPPED_OPS[conjunct.op],
        conjunct.left.literal,  # type: ignore[union-attr]
    )


def orient_links(
    links: Sequence[Comparison], included: Set[str]
) -> List[Tuple[AttributeRef, AttributeRef]]:
    """Orient each equality as (combined-side ref, new-range-side ref)."""
    pairs: List[Tuple[AttributeRef, AttributeRef]] = []
    for link in links:
        new_ref, old_ref = link.left, link.right
        if old_ref.variable not in included:
            new_ref, old_ref = old_ref, new_ref
        pairs.append((old_ref, new_ref))
    return pairs


def split_conjuncts(predicate: Predicate) -> Tuple[Dict[str, List[Comparison]], Optional[Predicate]]:
    """Separate pushable single-variable conjuncts from the residual predicate."""
    if isinstance(predicate, TruthConstant):
        return {}, None
    pushable: Dict[str, List[Comparison]] = {}
    residual: List[Predicate] = []
    for conjunct in flatten(predicate):
        if isinstance(conjunct, Comparison):
            variables = conjunct.references()
            constant_side = isinstance(conjunct.left, Constant) or isinstance(conjunct.right, Constant)
            if len(variables) == 1 and constant_side:
                pushable.setdefault(variables[0], []).append(conjunct)
                continue
        residual.append(conjunct)
    return pushable, conjoin(residual)


def pick_equijoins(joins: List[Comparison], included: Set[str], variable: str) -> List[Comparison]:
    """Every unused equality linking *variable* to the already-combined ranges.

    All of them are fused into one composite-key hash join; returning only
    the first would leave the rest as residual selections over a larger
    single-key join result.
    """
    picked: List[Comparison] = []
    for conjunct in joins:
        mentioned = {conjunct.left.variable, conjunct.right.variable}
        if variable in mentioned and (mentioned - {variable}) <= included:
            picked.append(conjunct)
    return picked
