"""Functional dependencies over relations with null values.

Section 8 of the paper is candid that, at the time of writing, no
generalisation of functional (or multivalued) dependencies was known that
preserves all their classical design-theoretic properties.  The library
therefore offers the two standard candidate semantics for an FD ``X → Y``
in the presence of nulls, so their behaviour can be compared:

* **strong satisfaction** — every pair of rows that is X-total and agrees
  on X must be Y-total and agree on Y; rows with nulls in X simply do not
  constrain anything (the "no information" reading: a null provides no
  evidence either way), but once the determinant is known the dependent
  must be known too;
* **weak satisfaction** — there exists a completion (possible world) of
  the relation in which the classical FD holds.  This is the
  Lien/Atzeni–Morfuni style notion; deciding it here is done by a direct
  combinatorial argument (chase-like merging of X-groups), not by
  enumerating worlds.

Classical Armstrong reasoning (closure of an attribute set, implication of
an FD set) is provided for *total* relations/schemas, since the design
algorithms of the classical theory remain the baseline the paper compares
its remarks against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.errors import ConstraintViolation
from ..core.nulls import is_ni
from ..core.relation import Relation
from ..core.tuples import XTuple


class FunctionalDependency:
    """An FD ``X → Y`` with both satisfaction notions."""

    def __init__(self, determinant: Sequence[str], dependent: Sequence[str], name: Optional[str] = None):
        self.determinant: Tuple[str, ...] = tuple(determinant)
        self.dependent: Tuple[str, ...] = tuple(dependent)
        if not self.determinant or not self.dependent:
            raise ConstraintViolation("an FD needs non-empty determinant and dependent sets")
        self.name = name or f"{','.join(self.determinant)} -> {','.join(self.dependent)}"

    # -- strong satisfaction -------------------------------------------------
    def violations(self, relation: Relation) -> List[Tuple[XTuple, XTuple]]:
        """Pairs of rows violating the FD under strong satisfaction."""
        result: List[Tuple[XTuple, XTuple]] = []
        rows = [r for r in relation.tuples() if r.is_total_on(self.determinant)]
        groups: Dict[Tuple, List[XTuple]] = {}
        for row in rows:
            key = tuple(row[a] for a in self.determinant)
            groups.setdefault(key, []).append(row)
        for group in groups.values():
            for i, first in enumerate(group):
                for second in group[i + 1:]:
                    if not self._dependents_compatible_strong(first, second):
                        result.append((first, second))
        return result

    def _dependents_compatible_strong(self, first: XTuple, second: XTuple) -> bool:
        for attribute in self.dependent:
            a, b = first[attribute], second[attribute]
            if is_ni(a) or is_ni(b) or a != b:
                return False
        return True

    def holds_strong(self, relation: Relation) -> bool:
        """Strong satisfaction: known determinants force equal, known dependents."""
        return not self.violations(relation)

    # -- weak satisfaction -----------------------------------------------------
    def holds_weak(self, relation: Relation) -> bool:
        """Weak satisfaction: some completion of the relation satisfies the FD.

        Rows that agree on their (total) determinant may be completed
        consistently iff their known dependent values do not conflict; rows
        with a null in the determinant can always be steered to a fresh
        determinant value, so they never create conflicts.
        """
        rows = [r for r in relation.tuples() if r.is_total_on(self.determinant)]
        groups: Dict[Tuple, List[XTuple]] = {}
        for row in rows:
            key = tuple(row[a] for a in self.determinant)
            groups.setdefault(key, []).append(row)
        for group in groups.values():
            for attribute in self.dependent:
                known = {row[attribute] for row in group if not is_ni(row[attribute])}
                if len(known) > 1:
                    return False
        return True

    def check(self, relation: Relation) -> None:
        """Raise :class:`ConstraintViolation` unless strongly satisfied."""
        violations = self.violations(relation)
        if violations:
            first, second = violations[0]
            raise ConstraintViolation(
                f"FD {self.name} violated by rows {first!r} and {second!r} "
                f"({len(violations)} violating pair(s) in total)"
            )

    def check_bulk_insert(self, relation: Relation, rows: Sequence[XTuple]) -> None:
        """Guard a batch of inserts — no new row may create a strong
        violation — with one determinant grouping pass.

        Equivalent to guarding the batch row by row against the relation as
        it grows, but the stored rows are grouped by determinant value once
        — O(|relation| + Σ group sizes) instead of a full scan per row.
        Batch rows also guard each other.
        """
        staged = [row for row in rows if row.is_total_on(self.determinant)]
        if not staged:
            return
        groups: Dict[Tuple, List[XTuple]] = {}
        for existing in relation.tuples():
            if not existing.is_total_on(self.determinant):
                continue
            key = tuple(existing[a] for a in self.determinant)
            groups.setdefault(key, []).append(existing)
        for row in staged:
            key = tuple(row[a] for a in self.determinant)
            group = groups.setdefault(key, [])
            for existing in group:
                if existing == row:
                    continue
                if not self._dependents_compatible_strong(existing, row):
                    raise ConstraintViolation(
                        f"FD {self.name}: inserting {row!r} conflicts with {existing!r}"
                    )
            group.append(row)

    def __repr__(self) -> str:
        return f"FunctionalDependency({list(self.determinant)} -> {list(self.dependent)})"


# ---------------------------------------------------------------------------
# Classical Armstrong machinery (total-relation design theory)
# ---------------------------------------------------------------------------

def attribute_closure(attributes: Iterable[str], fds: Sequence[FunctionalDependency]) -> FrozenSet[str]:
    """The closure X+ of an attribute set under a set of FDs (Armstrong axioms)."""
    closure: Set[str] = set(attributes)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if set(fd.determinant) <= closure and not set(fd.dependent) <= closure:
                closure |= set(fd.dependent)
                changed = True
    return frozenset(closure)


def implies(fds: Sequence[FunctionalDependency], candidate: FunctionalDependency) -> bool:
    """Does the FD set logically imply *candidate* (for total relations)?"""
    return set(candidate.dependent) <= attribute_closure(candidate.determinant, fds)


def is_superkey(attributes: Iterable[str], schema_attributes: Iterable[str], fds: Sequence[FunctionalDependency]) -> bool:
    """Is the attribute set a superkey of the (total) schema under the FDs?"""
    return set(schema_attributes) <= attribute_closure(attributes, fds)


def candidate_keys(schema_attributes: Sequence[str], fds: Sequence[FunctionalDependency]) -> List[FrozenSet[str]]:
    """All minimal keys of a (total) schema under the FDs — exponential scan.

    Intended for the small schemas of the examples and tests; a design
    tool would use a smarter algorithm.
    """
    from itertools import combinations

    universe = tuple(schema_attributes)
    keys: List[FrozenSet[str]] = []
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            if any(key <= set(combo) for key in keys):
                continue
            if is_superkey(combo, universe, fds):
                keys.append(frozenset(combo))
    return keys
