"""Schema-level semantic constraints used by the tautology analysis.

The Appendix's Figure 2 discussion turns on constraints the *schema*
implies but no tuple exhibits: an employee cannot be his own manager, nor
the manager of his own manager.  Deciding tautologies correctly under the
"unknown" interpretation requires the query processor to understand such
constraints; the paper's point is that this is expensive and, for
procedurally enforced constraints, impossible.

This module gives constraints a declarative, executable form:

* :class:`RowConstraint` — a predicate over a single row (e.g.
  ``E# ≠ MGR#``);
* :class:`BindingConstraint` — a predicate over a binding of several range
  variables (e.g. "no employee manages his own manager", which relates an
  ``e`` row and an ``m`` row);
* :func:`as_detector_constraints` — adapt either kind to the call shape
  expected by :class:`repro.tautology.TautologyDetector`, so the brute
  force layer only enumerates *legal* substitutions.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Optional, Sequence

from ..core.errors import ConstraintViolation
from ..core.relation import Relation
from ..core.tuples import XTuple


class RowConstraint:
    """A boolean predicate that every (total enough) row must satisfy.

    The predicate receives the row and returns True when the row is
    acceptable.  Rows on which the predicate raises or cannot decide
    (because of nulls) should return True — constraints restrict *known*
    information only.
    """

    def __init__(self, relation_name: str, predicate: Callable[[XTuple], bool], name: Optional[str] = None):
        self.relation_name = relation_name
        self.predicate = predicate
        self.name = name or f"row_constraint({relation_name})"

    def check_row(self, row: XTuple) -> None:
        if not self.predicate(row):
            raise ConstraintViolation(f"{self.name}: row {row!r} violates the constraint")

    def check(self, relation: Relation) -> None:
        for row in relation.tuples():
            self.check_row(row)

    def check_bulk_insert(self, relation: Relation, rows: Sequence[XTuple]) -> None:
        """Guard a batch of inserts (per-row; nothing to amortise)."""
        for row in rows:
            self.check_row(row)

    def __repr__(self) -> str:
        return f"RowConstraint({self.relation_name!r}, {self.name!r})"


class BindingConstraint:
    """A boolean predicate over a binding of range variables.

    Used to express cross-tuple semantic knowledge ("an employee is not the
    manager of his own manager") that the unknown-interpretation evaluator
    must respect when enumerating substitutions.
    """

    def __init__(self, variables: Sequence[str], predicate: Callable[[Mapping[str, XTuple]], bool], name: Optional[str] = None):
        self.variables = tuple(variables)
        self.predicate = predicate
        self.name = name or f"binding_constraint({', '.join(self.variables)})"

    def __call__(self, binding: Mapping[str, XTuple]) -> bool:
        if not all(variable in binding for variable in self.variables):
            return True
        return self.predicate(binding)

    def __repr__(self) -> str:
        return f"BindingConstraint({list(self.variables)}, {self.name!r})"


def as_detector_constraints(
    constraints: Iterable[object],
    variable_relations: Optional[Mapping[str, str]] = None,
) -> List[Callable[[Mapping[str, XTuple]], bool]]:
    """Adapt row/binding constraints to TautologyDetector constraint callables.

    *variable_relations* maps range-variable names to relation names so a
    :class:`RowConstraint` on relation R applies to every variable ranging
    over R.  Unknown constraint objects that are already callables are
    passed through.
    """
    adapted: List[Callable[[Mapping[str, XTuple]], bool]] = []
    variable_relations = dict(variable_relations or {})
    for constraint in constraints:
        if isinstance(constraint, BindingConstraint):
            adapted.append(constraint)
        elif isinstance(constraint, RowConstraint):
            relation_name = constraint.relation_name

            def row_adapter(binding: Mapping[str, XTuple], _constraint=constraint, _relation=relation_name) -> bool:
                for variable, row in binding.items():
                    if variable_relations.get(variable, _relation) != _relation:
                        continue
                    if not _constraint.predicate(row):
                        return False
                return True

            adapted.append(row_adapter)
        elif callable(constraint):
            adapted.append(constraint)  # type: ignore[arg-type]
        else:
            raise ConstraintViolation(f"cannot adapt constraint object {constraint!r}")
    return adapted
