"""Set containment and equality under Codd's null substitution principle.

Section 1 of the paper shows that evaluating ``PS'' ⊇ PS'`` with Codd's
null substitution principle yields MAYBE even though ``PS''`` was obtained
from ``PS'`` by *adding* a tuple, and that ``PS' = PS'`` itself evaluates
to MAYBE — the three-valued reading destroys the most basic set-algebraic
expectations.  This module implements the substitution principle so the
example can be executed rather than asserted:

* every null occurrence is replaced, independently, by a value from the
  attribute's substitution domain;
* an expression that is true under every substitution is TRUE, false under
  every substitution is FALSE, and MAYBE otherwise.

The substitution domains default to the *active domain* of the attribute
across both operands plus one fresh value per null occurrence, which is
enough to realise every equality pattern the substitution principle can
distinguish (two nulls equal / different / equal to an existing value).
The number of substitutions is ``∏ |D_i|`` over the null occurrences, so
this is exponential — which is rather the point (the cap below raises
once the space outgrows it; ``tests/test_codd_baseline.py`` checks that).
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.domains import Domain
from ..core.nulls import is_ni
from ..core.relation import Relation
from ..core.tuples import XTuple
from .threevalued import CODD_FALSE, CODD_TRUE, MAYBE, CoddTruth


#: A null occurrence: (relation index, tuple, attribute).
NullSite = Tuple[int, XTuple, str]


def null_sites(relations: Sequence[Relation]) -> List[NullSite]:
    """Locate every null occurrence across the given relations."""
    sites: List[NullSite] = []
    for index, relation in enumerate(relations):
        for row in relation.sorted_rows():
            for attribute in relation.schema.attributes:
                if is_ni(row[attribute]):
                    sites.append((index, row, attribute))
    return sites


def _default_substitution_values(
    relations: Sequence[Relation],
    sites: Sequence[NullSite],
    domains: Optional[Mapping[str, Sequence[Any]]],
) -> List[List[Any]]:
    """Choose the candidate values for each null occurrence."""
    choices: List[List[Any]] = []
    fresh_counter = 0
    for index, row, attribute in sites:
        if domains is not None and attribute in domains:
            choices.append(list(domains[attribute]))
            continue
        active: List[Any] = []
        for relation in relations:
            if attribute in relation.schema:
                for r in relation.tuples():
                    value = r[attribute]
                    if not is_ni(value) and value not in active:
                        active.append(value)
        fresh_counter += 1
        active.append(f"⊥fresh{fresh_counter}")
        choices.append(active)
    return choices


def substituted_relations(
    relations: Sequence[Relation],
    sites: Sequence[NullSite],
    assignment: Sequence[Any],
) -> List[Relation]:
    """Apply one substitution assignment, returning total copies of the inputs."""
    per_row: Dict[Tuple[int, XTuple], Dict[str, Any]] = {}
    for (index, row, attribute), value in zip(sites, assignment):
        per_row.setdefault((index, row), {})[attribute] = value
    result: List[Relation] = []
    for index, relation in enumerate(relations):
        out = Relation(relation.schema, validate=False)
        new_rows = set()
        for row in relation.tuples():
            replacements = per_row.get((index, row))
            if replacements:
                data = row.as_dict()
                data.update(replacements)
                new_rows.add(XTuple(data))
            else:
                new_rows.add(row)
        out._rows = new_rows
        result.append(out)
    return result


def substitution_truth(
    relations: Sequence[Relation],
    expression: Callable[[Sequence[Relation]], bool],
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
    max_substitutions: int = 200_000,
) -> CoddTruth:
    """Evaluate a boolean expression over relations by the substitution principle.

    *expression* receives total (null-free) versions of the relations and
    must return a Python bool.  The result is TRUE / FALSE when the
    expression is constant across substitutions and MAYBE otherwise.
    Raises :class:`ValueError` when the substitution space exceeds
    *max_substitutions*, which is how the exponential blow-up surfaces.
    """
    sites = null_sites(relations)
    if not sites:
        return CODD_TRUE if expression(list(relations)) else CODD_FALSE
    choices = _default_substitution_values(relations, sites, domains)
    space = 1
    for values in choices:
        space *= max(1, len(values))
    if space > max_substitutions:
        raise ValueError(
            f"substitution space has {space} assignments, above the cap of {max_substitutions}"
        )
    saw_true = False
    saw_false = False
    for assignment in iter_product(*choices):
        outcome = expression(substituted_relations(relations, sites, assignment))
        if outcome:
            saw_true = True
        else:
            saw_false = True
        if saw_true and saw_false:
            return MAYBE
    if saw_true:
        return CODD_TRUE
    return CODD_FALSE


# ---------------------------------------------------------------------------
# The specific judgements the paper's Section 1 example uses
# ---------------------------------------------------------------------------

def _classical_contains(container: Relation, contained: Relation) -> bool:
    container_rows = set(container.tuples())
    return all(row in container_rows for row in contained.tuples())


def containment_truth(
    container: Relation,
    contained: Relation,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
) -> CoddTruth:
    """``container ⊇ contained`` under the null substitution principle."""
    return substitution_truth(
        [container, contained],
        lambda totals: _classical_contains(totals[0], totals[1]),
        domains=domains,
    )


def equality_truth(
    left: Relation,
    right: Relation,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
) -> CoddTruth:
    """``left = right`` (as sets) under the null substitution principle."""
    return substitution_truth(
        [left, right],
        lambda totals: set(totals[0].tuples()) == set(totals[1].tuples()),
        domains=domains,
    )


def union_contains_truth(
    r1: Relation,
    r2: Relation,
    target: Relation,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
) -> CoddTruth:
    """``(r1 ∪ r2) ⊇ target`` under the substitution principle.

    The paper notes that even ``PS' ∪ PS'' ⊇ PS'`` fails to evaluate to
    TRUE under Codd's treatment.
    """
    def expr(totals: Sequence[Relation]) -> bool:
        union_rows = set(totals[0].tuples()) | set(totals[1].tuples())
        return all(row in union_rows for row in totals[2].tuples())

    return substitution_truth([r1, r2, target], expr, domains=domains)


def intersection_contained_truth(
    r1: Relation,
    r2: Relation,
    target: Relation,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
) -> CoddTruth:
    """``(r1 ∩ r2) ⊆ target`` under the substitution principle."""
    def expr(totals: Sequence[Relation]) -> bool:
        inter_rows = set(totals[0].tuples()) & set(totals[1].tuples())
        target_rows = set(totals[2].tuples())
        return inter_rows <= target_rows

    return substitution_truth([r1, r2, target], expr, domains=domains)
