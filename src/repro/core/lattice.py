"""The lattice of x-relations (Sections 4 and 7).

Propositions 4.4–4.7 establish that union and x-intersection are the least
upper bound and greatest lower bound of the containment order ⊒, so the
x-relations over a universe of attributes form a lattice — a *distributive*
one ((4.4)/(4.5)) with a bottom (the empty x-relation) and, when every
domain is finite, a top ``TOP_U = DOM(A1) × ... × DOM(Ap)``.

Section 7 sharpens this: x-relations form a **pseudo-complemented
distributive (Brouwerian) lattice**, not a Boolean algebra.  The
pseudo-complement is ``R* = TOP_U − R̂`` (7.1); pseudo-complements of a
Brouwerian lattice themselves form a Boolean lattice (here: the total
x-relations with scope U), and the two structures share union but differ
in their meets — ordinary intersection versus x-intersection — which the
paper illustrates with the ``{(a,b1)} / {(a,b2)}`` example.

This module provides

* :class:`AttributeUniverse` — a finite universe U with finite domains,
  able to materialise ``TOP_U`` and enumerate all total tuples;
* :func:`bottom` / :func:`top` / :func:`pseudo_complement`;
* law-checking helpers (:func:`check_lattice_laws`,
  :func:`check_distributivity`, :func:`has_boolean_complement`) used by
  ``tests/test_lattice.py`` to *demonstrate* the paper's structural claims
  on concrete universes.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .domains import Domain, EnumeratedDomain
from .errors import DomainError, SchemaError
from .relation import Relation, RelationSchema
from .setops import difference, union, x_intersection
from .tuples import XTuple
from .xrelation import XRelation


class AttributeUniverse:
    """A finite universe of attributes U with a finite domain per attribute.

    Needed whenever ``TOP_U`` must be materialised (pseudo-complements,
    complement counter-examples, exhaustive law checks).  Keep the domains
    tiny — ``TOP_U`` has ``∏|DOM(Ai)|`` rows.
    """

    def __init__(self, domains: Mapping[str, Domain], name: str = "U"):
        if not domains:
            raise SchemaError("an attribute universe needs at least one attribute")
        for attribute, domain in domains.items():
            if not domain.is_finite():
                raise DomainError(
                    f"attribute {attribute!r} has an infinite domain; TOP_U would be infinite"
                )
        self.name = name
        self._domains: Dict[str, Domain] = dict(domains)
        self._attributes: Tuple[str, ...] = tuple(domains.keys())

    @classmethod
    def from_values(cls, values: Mapping[str, Sequence], name: str = "U") -> "AttributeUniverse":
        """Build a universe from explicit value lists per attribute."""
        return cls(
            {a: EnumeratedDomain(vs, name=f"DOM({a})") for a, vs in values.items()},
            name=name,
        )

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    def domain(self, attribute: str) -> Domain:
        return self._domains[attribute]

    def schema(self, name: str = "TOP") -> RelationSchema:
        return RelationSchema(self._attributes, self._domains, name=name)

    def cardinality(self) -> int:
        """Number of total tuples in ``TOP_U``."""
        size = 1
        for domain in self._domains.values():
            size *= len(domain)
        return size

    def total_tuples(self) -> Iterator[XTuple]:
        """Enumerate every total tuple over the universe."""
        value_lists = [list(self._domains[a]) for a in self._attributes]
        for combo in iter_product(*value_lists):
            yield XTuple.from_values(self._attributes, combo)

    def all_tuples(self) -> Iterator[XTuple]:
        """Enumerate every tuple of U*, i.e. with each cell either a value or ni.

        The count is ``∏(|DOM(Ai)| + 1)``; use only on tiny universes.
        """
        value_lists = [list(self._domains[a]) + [None] for a in self._attributes]
        for combo in iter_product(*value_lists):
            yield XTuple(
                (a, v) for a, v in zip(self._attributes, combo) if v is not None
            )

    def __repr__(self) -> str:
        parts = ", ".join(f"{a}:{len(self._domains[a])}" for a in self._attributes)
        return f"AttributeUniverse({self.name!r}, {parts})"


# ---------------------------------------------------------------------------
# Bottom, top, pseudo-complement
# ---------------------------------------------------------------------------

def bottom(attributes: Sequence[str] = ("A",)) -> XRelation:
    """The bottom element ∅̂ of the lattice, represented by an empty relation."""
    return XRelation(Relation.empty(attributes, name="∅"))


def top(universe: AttributeUniverse) -> XRelation:
    """``TOP_U``: the Cartesian product of all (extended-by-nothing) domains.

    Characterised by ``R̂ ∪ TOP_U = TOP_U`` for every R̂ over the universe.
    """
    relation = Relation(universe.schema("TOP_U"), validate=False)
    relation._rows = set(universe.total_tuples())
    return XRelation(relation)


def pseudo_complement(x: XRelation, universe: AttributeUniverse) -> XRelation:
    """The pseudo-complement ``R* = TOP_U − R̂`` of (7.1).

    ``R*`` is the smallest x-relation whose union with ``R̂`` yields
    ``TOP_U`` (Proposition 4.7 applied to the top).  It is always a *total*
    x-relation with scope U — that is how the Boolean lattice of
    pseudo-complements arises inside the Brouwerian lattice.
    """
    return top(universe).difference(x, name=f"{x.name}*")


def is_total_with_scope_u(x: XRelation, universe: AttributeUniverse) -> bool:
    """True when x is a total x-relation over the full universe (a pseudo-complement candidate)."""
    return all(t.is_total_on(universe.attributes) for t in x.rows())


# ---------------------------------------------------------------------------
# Law checking (used by tests/test_lattice.py)
# ---------------------------------------------------------------------------

def check_lattice_laws(a: XRelation, b: XRelation, c: XRelation) -> Dict[str, bool]:
    """Verify the lattice axioms on a concrete triple of x-relations.

    Returns a dict mapping law names to booleans; every value should be
    True.  The laws checked are idempotence, commutativity, associativity,
    absorption, and the lub/glb characterisations of Propositions 4.4/4.5.
    """
    results: Dict[str, bool] = {}
    results["union_idempotent"] = (a | a) == a
    results["meet_idempotent"] = (a & a) == a
    results["union_commutative"] = (a | b) == (b | a)
    results["meet_commutative"] = (a & b) == (b & a)
    results["union_associative"] = ((a | b) | c) == (a | (b | c))
    results["meet_associative"] = ((a & b) & c) == (a & (b & c))
    results["absorption_1"] = (a | (a & b)) == a
    results["absorption_2"] = (a & (a | b)) == a
    results["union_is_upper_bound"] = (a | b) >= a and (a | b) >= b
    results["meet_is_lower_bound"] = a >= (a & b) and b >= (a & b)
    return results


def check_distributivity(a: XRelation, b: XRelation, c: XRelation) -> Dict[str, bool]:
    """Verify the distributive laws (4.4) and (4.5) on a concrete triple."""
    return {
        "meet_over_union": (a & (b | c)) == ((a & b) | (a & c)),
        "union_over_meet": (a | (b & c)) == ((a | b) & (a | c)),
    }


def check_difference_laws(a: XRelation, b: XRelation) -> Dict[str, bool]:
    """Verify Propositions 4.6 and 4.7 on a concrete pair.

    * Prop. 4.6: if ``a ⊒ b`` then ``(a − b) ∪ b = a``.
    * Prop. 4.7: for any x with ``x ∪ b ⊒ a``(here x = a), ``x ⊒ a − b``.
    """
    results: Dict[str, bool] = {}
    if a >= b:
        results["difference_union_restores"] = ((a - b) | b) == a
    results["difference_minimality"] = a >= (a - b)
    results["difference_union_covers"] = ((a - b) | b) >= a if a >= b else True
    return results


def has_boolean_complement(x: XRelation, universe: AttributeUniverse) -> bool:
    """Does x have a true Boolean complement inside the lattice?

    A complement would satisfy ``x ∩̂ x' = ∅̂`` and ``x ∪ x' = TOP_U``.
    The paper shows that in general none exists (the Section 4 example with
    ``DOM(A) = {a1}``, ``DOM(B) = {b1, b2}``); the pseudo-complement only
    satisfies the union condition.  We check the pseudo-complement, which
    is the only candidate that can work (it is the largest element whose
    union with x is the top and the smallest that could avoid overlap).
    """
    candidate = pseudo_complement(x, universe)
    joins_to_top = (x | candidate) == top(universe)
    meets_to_bottom = (x & candidate).is_empty()
    return joins_to_top and meets_to_bottom


def complement_counterexample() -> Dict[str, object]:
    """Reproduce the paper's Section 4 counter-example to complementation.

    Universe ``U = {A, B}`` with ``DOM(A) = {a1}``, ``DOM(B) = {b1, b2}``;
    the x-relation ``R̂ = {(a1, b1)}`` has no complement: any x-relation
    whose union with R̂ reaches the top must x-contain ``(a1, b2)``, and
    then the tuple ``(a1, -)`` x-belongs to the x-intersection, which is
    therefore not empty.  Returns the ingredients so tests can assert each
    step.
    """
    universe = AttributeUniverse.from_values({"A": ["a1"], "B": ["b1", "b2"]})
    r = XRelation.from_rows(["A", "B"], [("a1", "b1")], name="R")
    r_star = pseudo_complement(r, universe)
    overlap = r & r_star
    return {
        "universe": universe,
        "r": r,
        "pseudo_complement": r_star,
        "union_is_top": (r | r_star) == top(universe),
        "intersection": overlap,
        "intersection_empty": overlap.is_empty(),
        "witness_in_both": XTuple(A="a1"),
    }


# ---------------------------------------------------------------------------
# The Boolean sublattice of pseudo-complements (Section 7)
# ---------------------------------------------------------------------------

def boolean_sublattice_elements(universe: AttributeUniverse) -> List[XRelation]:
    """All pseudo-complements over a (tiny!) universe.

    These are exactly the total x-relations with scope U; there are
    ``2^{|TOP_U|}`` of them, so keep the universe minuscule.  Used by tests
    that verify the Section 7 claim that the pseudo-complements form a
    Boolean lattice whose meet is plain set intersection.
    """
    top_rows = list(universe.total_tuples())
    if len(top_rows) > 16:
        raise DomainError("universe too large to enumerate the Boolean sublattice")
    elements: List[XRelation] = []
    for mask in range(2 ** len(top_rows)):
        rows = [t for i, t in enumerate(top_rows) if mask & (1 << i)]
        relation = Relation(universe.schema(f"B{mask}"), validate=False)
        relation._rows = set(rows)
        elements.append(XRelation(relation))
    return elements


def set_intersection_of_totals(a: XRelation, b: XRelation, universe: AttributeUniverse) -> XRelation:
    """Plain set intersection of two total x-relations with scope U.

    This is the meet of the Boolean sublattice; contrasting it with the
    x-intersection on the same operands exhibits the "two different meets"
    phenomenon the paper highlights at the end of Section 7.
    """
    rows = set(a.rows()) & set(b.rows())
    relation = Relation(universe.schema(f"({a.name} ∩ {b.name})"), validate=False)
    relation._rows = rows
    return XRelation(relation)
