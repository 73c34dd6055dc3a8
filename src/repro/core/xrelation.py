"""x-relations: equivalence classes of relations under ≅ (Definitions 4.3–4.5).

An *x-relation* is the class of all relations information-wise equivalent
to a given representation.  Working with the class rather than any single
representation is what restores clean set-theoretic behaviour in the
presence of nulls: containment, union, x-intersection and difference obey
the lattice laws of Section 4, and equality means "same information", not
"same table".

The class is implemented as a thin, immutable wrapper around a canonical
representation — the **minimal representation** (Definition 4.6), which the
paper proves unique over a given attribute set.  Two :class:`XRelation`
objects are equal iff their minimal representations carry the same rows,
i.e. iff the underlying relations are information-wise equivalent — this
is exactly Proposition 4.1 (mutual containment iff equality).

The arithmetic-style operators are available both as named methods
(:meth:`union`, :meth:`x_intersection`, :meth:`difference`, ...) and as
Python operators (``|``, ``&``, ``-``, ``<=``, ``in``), making x-relations
feel like ordinary sets — which is the paper's point.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple, Union

from . import setops
from .domains import Domain
from .relation import Relation, RelationSchema, RowLike
from .tuples import XTuple


class XRelation:
    """An x-relation, held by its minimal representation.

    Construct it from a :class:`Relation` (or via :meth:`from_rows`); the
    representation is immediately reduced to minimal form and frozen.
    """

    __slots__ = ("_relation", "_row_set", "_sorted")

    def __init__(self, representation: Relation):
        minimal = representation.minimal()
        self._relation = minimal
        self._row_set: FrozenSet[XTuple] = frozenset(minimal.tuples())
        self._sorted: Optional[Tuple[XTuple, ...]] = None

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        attributes: Sequence[str],
        rows: Iterable[RowLike],
        name: str = "R",
        domains: Optional[dict] = None,
    ) -> "XRelation":
        return cls(Relation.from_rows(attributes, rows, name=name, domains=domains))

    @classmethod
    def empty(cls, attributes: Sequence[str] = ("A",), name: str = "∅") -> "XRelation":
        """The bottom element of the lattice (representable by an empty relation)."""
        return cls(Relation.empty(attributes, name=name))

    # -- representation access ---------------------------------------------------
    @property
    def representation(self) -> Relation:
        """The (unique, minimal) canonical representation."""
        return self._relation

    @property
    def schema(self) -> RelationSchema:
        return self._relation.schema

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._relation.schema.attributes

    @property
    def name(self) -> str:
        return self._relation.name

    def scope(self) -> Tuple[str, ...]:
        """Definition 4.7: the smallest attribute set representing this x-relation."""
        return self._relation.scope()

    def rows(self) -> FrozenSet[XTuple]:
        """The rows of the minimal representation."""
        return self._row_set

    def sorted_rows(self) -> Tuple[XTuple, ...]:
        """The minimal rows in :meth:`Relation.sorted_rows` order, sorted
        once: the x-relation is immutable, so every reader shares it."""
        if self._sorted is None:
            self._sorted = tuple(self._relation.sorted_rows())
        return self._sorted

    def __iter__(self) -> Iterator[XTuple]:
        return iter(self._row_set)

    def __len__(self) -> int:
        """Number of rows in the minimal representation."""
        return len(self._row_set)

    def __bool__(self) -> bool:
        return bool(self._row_set)

    def is_empty(self) -> bool:
        """True when this is the bottom x-relation ∅̂."""
        return not self._row_set

    def is_total(self) -> bool:
        """True when the minimal representation has no nulls over its scope."""
        scope = self.scope()
        return all(t.is_total_on(scope) for t in self._row_set)

    # -- membership and ordering (Definitions 4.4, 4.5) ----------------------------------
    def x_contains(self, row: RowLike) -> bool:
        """Definition 4.5 / Proposition 4.2: ``t ∈̂ R̂``."""
        return self._relation.x_contains(row)

    def __contains__(self, row: RowLike) -> bool:
        return self.x_contains(row)

    def contains(self, other: "XRelation") -> bool:
        """Definition 4.4: ``self ⊒ other`` iff the representation subsumes other's."""
        return self._relation.subsumes(other._relation)

    def properly_contains(self, other: "XRelation") -> bool:
        return self.contains(other) and self != other

    def __ge__(self, other: "XRelation") -> bool:
        if not isinstance(other, XRelation):
            return NotImplemented
        return self.contains(other)

    def __le__(self, other: "XRelation") -> bool:
        if not isinstance(other, XRelation):
            return NotImplemented
        return other.contains(self)

    def __gt__(self, other: "XRelation") -> bool:
        if not isinstance(other, XRelation):
            return NotImplemented
        return self.properly_contains(other)

    def __lt__(self, other: "XRelation") -> bool:
        if not isinstance(other, XRelation):
            return NotImplemented
        return other.properly_contains(self)

    def __eq__(self, other: Any) -> bool:
        """Proposition 4.1: equality is mutual containment = same minimal rows."""
        if not isinstance(other, XRelation):
            return NotImplemented
        return self._row_set == other._row_set

    def __hash__(self) -> int:
        return hash(self._row_set)

    # -- lattice / set operations ------------------------------------------------------------------
    def union(self, other: "XRelation", name: Optional[str] = None) -> "XRelation":
        """(4.1)/(4.6): least upper bound in the lattice of x-relations."""
        return XRelation(setops.union(self._relation, other._relation, name=name))

    def x_intersection(self, other: "XRelation", name: Optional[str] = None) -> "XRelation":
        """(4.2)/(4.7): greatest lower bound (pairwise meets of rows)."""
        return XRelation(setops.x_intersection(self._relation, other._relation, name=name))

    def difference(self, other: "XRelation", name: Optional[str] = None) -> "XRelation":
        """(4.3)/(4.8): the smallest x-relation whose union with *other* covers self."""
        return XRelation(setops.difference(self._relation, other._relation, name=name))

    def __or__(self, other: "XRelation") -> "XRelation":
        return self.union(other)

    def __and__(self, other: "XRelation") -> "XRelation":
        return self.x_intersection(other)

    def __sub__(self, other: "XRelation") -> "XRelation":
        return self.difference(other)

    # -- algebra shortcuts (delegating to repro.core.algebra) ----------------------------------------
    def select_const(self, attribute: str, op: str, constant: Any) -> "XRelation":
        """Selection ``R[A θ k]`` (5.2)."""
        from .algebra import select_constant
        return select_constant(self, attribute, op, constant)

    def select_attrs(self, left: str, op: str, right: str) -> "XRelation":
        """Selection ``R[A θ B]`` (5.1)."""
        from .algebra import select_attributes
        return select_attributes(self, left, op, right)

    def project(self, attributes: Sequence[str]) -> "XRelation":
        """Projection ``R[X]`` (5.5)."""
        from .algebra import project
        return project(self, attributes)

    def product(self, other: "XRelation") -> "XRelation":
        """Cartesian product (5.3)."""
        from .algebra import product
        return product(self, other)

    def join(self, other: "XRelation", on: Sequence[str]) -> "XRelation":
        """Equi-join on X: ``R1 (·X) R2``."""
        from .algebra import join_on
        return join_on(self, other, on)

    def union_join(self, other: "XRelation", on: Sequence[str]) -> "XRelation":
        """Union-join (outer join) on X: ``R1 (*X) R2``."""
        from .algebra import union_join
        return union_join(self, other, on)

    def divide(self, other: "XRelation", by: Sequence[str]) -> "XRelation":
        """Division ``R (÷Y) S`` (6.1)–(6.5)."""
        from .algebra import divide
        return divide(self, other, by)

    def image(self, y: RowLike, y_attrs: Sequence[str], z_attrs: Sequence[str]) -> "XRelation":
        """The Z-image ``Z_R(y)`` of a Y-value (6.4)."""
        from .algebra import image_set
        return image_set(self, y, y_attrs, z_attrs)

    # -- presentation -------------------------------------------------------------------------------------
    def to_table(self) -> str:
        return self._relation.to_table()

    def __repr__(self) -> str:
        return f"XRelation({self._relation.schema.name!r}, rows={len(self._row_set)})"


def as_xrelation(value: Union[XRelation, Relation]) -> XRelation:
    """Coerce a :class:`Relation` (or pass through an :class:`XRelation`)."""
    if isinstance(value, XRelation):
        return value
    return XRelation(value)
