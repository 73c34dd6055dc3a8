"""Certain and possible answers via possible-worlds enumeration.

Section 5 defines the two bounds of interest for a query Q over an
incomplete database:

* the lower bound ``||Q||_*`` — objects that satisfy Q in *every* possible
  world (certain answers);
* the upper bound ``||Q||^*`` — objects that satisfy Q in *some* possible
  world (possible answers).

Zaniolo's evaluation strategy computes a sound approximation of the lower
bound directly on the incomplete relations (in time linear in the number
of bindings); Vassiliou's and Lipski's approaches compute the exact bounds
under the "unknown" interpretation at much higher (co-NP / exponential)
cost.  This module implements the exact bounds by brute-force world
enumeration so that

* the three-valued lower bound can be *validated*: every answer it returns
  must be a certain answer under the unknown interpretation (tests), and
* the cost gap can be *shown*: world enumeration blows up exponentially
  in the number of nulls while the three-valued evaluation does not
  (``examples/codd_vs_zaniolo.py``).

The evaluation of a query in a single (total) world is ordinary two-valued
evaluation, reusing the same :class:`~repro.core.query.Query` AST.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.query import Query
from ..core.relation import Relation
from ..core.tuples import XTuple
from ..core.xrelation import XRelation
from .completions import CompletionSpace


def _evaluate_in_world(query: Query, world: Sequence[Relation], variables: Sequence[str]) -> Set[XTuple]:
    """Evaluate *query* classically in a total world; return the answer rows."""
    world_by_variable: Dict[str, Relation] = dict(zip(variables, world))
    answers: Set[XTuple] = set()
    # Rebuild the binding enumeration against the completed relations.
    from itertools import product as iter_product
    row_lists = [list(world_by_variable[v].tuples()) for v in variables]
    for combo in iter_product(*row_lists):
        binding = dict(zip(variables, combo))
        if query.where.evaluate(binding).is_true():
            answers.add(XTuple(
                (output_name, ref.value(binding)) for output_name, ref in query.target
            ))
    return answers


class WorldsResult:
    """The outcome of a possible-worlds evaluation."""

    def __init__(
        self,
        certain: Set[XTuple],
        possible: Set[XTuple],
        world_count: int,
        output_attributes: Tuple[str, ...],
    ):
        self.certain = certain
        self.possible = possible
        self.world_count = world_count
        self.output_attributes = output_attributes

    def certain_relation(self, name: str = "certain") -> XRelation:
        return XRelation(Relation(self.output_attributes, self.certain, name=name, validate=False))

    def possible_relation(self, name: str = "possible") -> XRelation:
        return XRelation(Relation(self.output_attributes, self.possible, name=name, validate=False))

    def __repr__(self) -> str:
        return (
            f"WorldsResult(certain={len(self.certain)}, possible={len(self.possible)}, "
            f"worlds={self.world_count})"
        )


def evaluate_bounds(
    query: Query,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
    cap: int = 50_000,
    fresh_values: int = 1,
) -> WorldsResult:
    """Compute the exact certain/possible answers by world enumeration.

    The nulls of all range relations are enumerated jointly; the returned
    certain set is the intersection, and the possible set the union, of
    the per-world answers.
    """
    variables = list(query.ranges)
    relations = [query.ranges[v] for v in variables]
    space = CompletionSpace(relations, domains=domains, fresh_values=fresh_values)
    certain: Optional[Set[XTuple]] = None
    possible: Set[XTuple] = set()
    count = 0
    for world in space.worlds(cap=cap):
        answers = _evaluate_in_world(query, world, variables)
        possible |= answers
        certain = answers if certain is None else (certain & answers)
        count += 1
        if certain is not None and not certain and len(possible) >= _possible_upper_bound(query):
            # Both bounds can no longer change; the remaining worlds are
            # enumerated only when the caller wants the exact world count.
            pass
    if certain is None:
        certain = set()
    return WorldsResult(certain, possible, count, query.output_attributes())


def _possible_upper_bound(query: Query) -> int:
    """A crude upper bound on the size of the possible-answer set."""
    size = 1
    for relation in query.ranges.values():
        size *= max(1, len(relation))
    return size


def certain_answers(
    query: Query,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
    cap: int = 50_000,
    fresh_values: int = 1,
) -> XRelation:
    """The exact lower bound ``||Q||_*`` under the unknown interpretation."""
    return evaluate_bounds(query, domains=domains, cap=cap, fresh_values=fresh_values).certain_relation()


def possible_answers(
    query: Query,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
    cap: int = 50_000,
    fresh_values: int = 1,
) -> XRelation:
    """The exact upper bound ``||Q||^*`` under the unknown interpretation."""
    return evaluate_bounds(query, domains=domains, cap=cap, fresh_values=fresh_values).possible_relation()


def lower_bound_is_sound(
    query: Query,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
    cap: int = 50_000,
    fresh_values: int = 1,
) -> bool:
    """Check that the three-valued lower bound only returns certain answers.

    Soundness here is the natural generalisation to answers that may
    themselves contain nulls: a row ``t`` returned by the three-valued
    evaluation is *certain* when in **every** possible world the (total)
    answer set contains a row more informative than ``t``.  The paper's
    argument is that a where clause evaluating to TRUE only looks at
    non-null values, which no completion can change, so the same binding
    qualifies in every world; this function verifies that argument
    experimentally and is asserted on randomised databases by the test
    suite.
    """
    from ..core.query import evaluate_lower_bound

    approx = list(evaluate_lower_bound(query).rows())
    if not approx:
        return True
    variables = list(query.ranges)
    relations = [query.ranges[v] for v in variables]
    space = CompletionSpace(relations, domains=domains, fresh_values=fresh_values)
    for world in space.worlds(cap=cap):
        answers = _evaluate_in_world(query, world, variables)
        for row in approx:
            if not any(answer.more_informative_than(row) for answer in answers):
                return False
    return True
