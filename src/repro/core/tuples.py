"""Tuples (X-values) and the information ordering of Section 3.

A tuple in the paper is an *X-value*: an assignment of values, drawn from
extended domains, to a finite set of attributes ``X``.  The crucial
convention (Section 3) is that a tuple is regarded as having the value
``ni`` on every attribute *outside* its own attribute set, so that tuples
over different attribute sets remain comparable.  :class:`XTuple`
implements exactly this: it stores only the attribute/value pairs it was
given, but ``t[A]`` returns ``ni`` for any unknown attribute ``A``.

On top of X-values the paper defines:

* the **more informative** quasi-order ``r ≥ t`` (Definition 3.1),
* information-wise **equivalence** ``r ≅ t`` (``r ≥ t`` and ``t ≥ r``),
* the **meet** ``r1 ∧ r2`` — always defined, the most informative tuple
  less informative than both,
* **joinability** and the **join** ``r1 ∨ r2`` — defined only when the
  two tuples agree on every attribute where both are non-null; the least
  informative tuple more informative than both.

Modulo equivalence these make the universe of tuples ``U*`` a meet
semilattice (footnote 5).  All of these are implemented here as module
functions as well as methods, so they can be used both on ad-hoc tuples
and from the relation layer.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .errors import NotJoinableError, SchemaError
from .nulls import NI, coerce_null, is_ni


class XTuple:
    """An immutable X-value: a partial assignment of attributes to values.

    Parameters
    ----------
    assignment:
        A mapping from attribute names to values, or an iterable of
        ``(attribute, value)`` pairs.  ``None`` values are normalised to
        the no-information null :data:`~repro.core.nulls.NI`.

    Notes
    -----
    * Attributes explicitly bound to ``ni`` are *dropped* from the stored
      assignment: by the Section 3 convention a tuple whose ``A``-value is
      ``ni`` is information-wise indistinguishable from the same tuple with
      no ``A`` attribute at all.  This gives each equivalence class of
      tuples a canonical stored form, so Python equality of
      :class:`XTuple` objects coincides with the paper's ``≅`` relation.
    * The object is hashable and usable in sets/dicts, which is how
      relations store their rows.
    """

    __slots__ = ("_items", "_lookup", "_hash")

    def __init__(self, assignment: Optional[Mapping[str, Any] | Iterable[Tuple[str, Any]]] = None, **kwargs: Any):
        pairs: Dict[str, Any] = {}
        if assignment is not None:
            items = assignment.items() if isinstance(assignment, Mapping) else assignment
            for attribute, value in items:
                self._check_attribute_name(attribute)
                pairs[attribute] = coerce_null(value)
        for attribute, value in kwargs.items():
            self._check_attribute_name(attribute)
            pairs[attribute] = coerce_null(value)
        # Canonical form: drop explicit ni bindings, sort by attribute name.
        nonnull_items = tuple(
            (attribute, value)
            for attribute, value in sorted(pairs.items())
            if not is_ni(value)
        )
        self._items: Tuple[Tuple[str, Any], ...] = nonnull_items
        self._lookup: Dict[str, Any] = dict(nonnull_items)
        self._hash = hash(nonnull_items)

    @staticmethod
    def _check_attribute_name(attribute: Any) -> None:
        if not isinstance(attribute, str) or not attribute:
            raise SchemaError(f"attribute names must be non-empty strings, got {attribute!r}")

    # -- pickling ------------------------------------------------------------
    def __reduce__(self):
        # The stored items are already canonical (sorted, ni-free), so a
        # pickled tuple round-trips through :meth:`_restore` without the
        # validating/normalising ``__init__`` — the payload is one tuple
        # of pairs, and reconstruction is three slot writes.  This is
        # what keeps checkpoints cheap to load.
        return (XTuple._restore, (self._items,))

    @classmethod
    def _restore(cls, items: Tuple[Tuple[str, Any], ...]) -> "XTuple":
        self = cls.__new__(cls)
        self._items = items
        self._lookup = dict(items)
        self._hash = hash(items)
        return self

    # -- construction helpers ---------------------------------------------
    @classmethod
    def from_values(cls, attributes: Sequence[str], values: Sequence[Any]) -> "XTuple":
        """Build a tuple from parallel sequences of attributes and values."""
        if len(attributes) != len(values):
            raise SchemaError(
                f"{len(attributes)} attributes but {len(values)} values"
            )
        return cls(zip(attributes, values))

    @classmethod
    def null_tuple(cls) -> "XTuple":
        """The (canonical) null tuple: all values are ``ni``."""
        return cls()

    # -- basic accessors ----------------------------------------------------
    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attributes on which this tuple is non-null, sorted."""
        return tuple(attribute for attribute, _ in self._items)

    def __getitem__(self, attribute: str) -> Any:
        """Return the value on *attribute*; ``ni`` if the tuple does not bind it."""
        return self._lookup.get(attribute, NI)

    def get(self, attribute: str, default: Any = NI) -> Any:
        return self._lookup.get(attribute, default)

    def items(self) -> Tuple[Tuple[str, Any], ...]:
        """The non-null ``(attribute, value)`` pairs, sorted by attribute."""
        return self._items

    def as_dict(self) -> Dict[str, Any]:
        """A fresh dict of the non-null bindings."""
        return dict(self._items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._lookup

    # -- classification -----------------------------------------------------
    def is_null_tuple(self) -> bool:
        """True when every value is ``ni`` (Section 3: a *null tuple*)."""
        return not self._items

    def is_total_on(self, attributes: Iterable[str]) -> bool:
        """True when this tuple is *X-total*: non-null on every attribute in X."""
        return all(attribute in self._lookup for attribute in attributes)

    def is_total(self, attributes: Iterable[str]) -> bool:
        """Alias of :meth:`is_total_on` for readability at call sites."""
        return self.is_total_on(attributes)

    # -- projection / padding ------------------------------------------------
    def project(self, attributes: Iterable[str]) -> "XTuple":
        """The restriction ``r[X]`` of this tuple to the attributes in *X*.

        Attributes of *X* on which the tuple is null simply disappear from
        the canonical form, as the convention dictates.
        """
        wanted = set(attributes)
        return XTuple(
            (attribute, value) for attribute, value in self._items if attribute in wanted
        )

    def drop(self, attributes: Iterable[str]) -> "XTuple":
        """The restriction of this tuple to attributes *not* in the given set."""
        unwanted = set(attributes)
        return XTuple(
            (attribute, value) for attribute, value in self._items if attribute not in unwanted
        )

    def extend(self, other: Mapping[str, Any] | "XTuple") -> "XTuple":
        """Return a new tuple with *other*'s bindings added.

        Overlapping attributes must agree (otherwise the result would not
        be more informative than both inputs); use :func:`tuple_join` when
        you want the paper's joinability check and error.
        """
        other_items = other.items() if isinstance(other, XTuple) else other.items()
        merged = dict(self._items)
        for attribute, value in other_items:
            value = coerce_null(value)
            if is_ni(value):
                continue
            if attribute in merged and merged[attribute] != value:
                raise NotJoinableError(
                    f"conflicting values for {attribute}: {merged[attribute]!r} vs {value!r}"
                )
            merged[attribute] = value
        return XTuple(merged)

    def rename(self, mapping: Mapping[str, str]) -> "XTuple":
        """Return a copy with attributes renamed according to *mapping*."""
        return XTuple(
            (mapping.get(attribute, attribute), value) for attribute, value in self._items
        )

    # -- the information ordering -------------------------------------------
    def more_informative_than(self, other: "XTuple") -> bool:
        """Definition 3.1: ``self ≥ other``.

        ``self`` must match ``other`` on every attribute where ``other`` is
        non-null.
        """
        for attribute, value in other._items:
            if self._lookup.get(attribute, NI) != value:
                return False
        return True

    def less_informative_than(self, other: "XTuple") -> bool:
        """``self ≤ other`` — the converse of :meth:`more_informative_than`."""
        return other.more_informative_than(self)

    def equivalent_to(self, other: "XTuple") -> bool:
        """Information-wise equivalence ``self ≅ other``.

        Because the stored form is canonical, this coincides with ``==``.
        """
        return self._items == other._items

    # -- meet / join ----------------------------------------------------------
    def joinable_with(self, other: "XTuple") -> bool:
        """True when the two tuples agree wherever both are non-null (Sec. 3)."""
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        for attribute, value in small._items:
            other_value = large._lookup.get(attribute)
            if other_value is not None and other_value != value:
                return False
        return True

    def meet(self, other: "XTuple") -> "XTuple":
        """The meet ``self ∧ other``: keep exactly the agreeing bindings."""
        if len(self) > len(other):
            self, other = other, self
        return XTuple(
            (attribute, value)
            for attribute, value in self._items
            if other._lookup.get(attribute) == value
        )

    def join(self, other: "XTuple") -> "XTuple":
        """The join ``self ∨ other``; raises :class:`NotJoinableError` otherwise."""
        merged = dict(self._items)
        for attribute, value in other._items:
            existing = merged.get(attribute)
            if existing is not None and existing != value:
                raise NotJoinableError(
                    f"tuples disagree on {attribute}: {existing!r} vs {value!r}"
                )
            merged[attribute] = value
        return XTuple(merged)

    # -- dunder plumbing -------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, XTuple):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    # Ordering operators follow the *information* ordering, not any value
    # ordering: r1 <= r2 means "r1 is less informative than r2".
    def __le__(self, other: "XTuple") -> bool:
        if not isinstance(other, XTuple):
            return NotImplemented
        return other.more_informative_than(self)

    def __ge__(self, other: "XTuple") -> bool:
        if not isinstance(other, XTuple):
            return NotImplemented
        return self.more_informative_than(other)

    def __lt__(self, other: "XTuple") -> bool:
        if not isinstance(other, XTuple):
            return NotImplemented
        return self <= other and self._items != other._items

    def __gt__(self, other: "XTuple") -> bool:
        if not isinstance(other, XTuple):
            return NotImplemented
        return self >= other and self._items != other._items

    def __repr__(self) -> str:
        inner = ", ".join(f"{attribute}={value!r}" for attribute, value in self._items)
        return f"XTuple({inner})"

    def format_row(self, attributes: Sequence[str]) -> str:
        """Render this tuple as a table row over the given attribute order."""
        return "  ".join(str(self[attribute]) for attribute in attributes)


# ---------------------------------------------------------------------------
# Module-level functional forms (convenient for map/filter pipelines and for
# property-based tests that quantify over pairs of tuples).
# ---------------------------------------------------------------------------

def more_informative(r: XTuple, t: XTuple) -> bool:
    """Definition 3.1 as a function: ``r ≥ t``."""
    return r.more_informative_than(t)


def equivalent(r: XTuple, t: XTuple) -> bool:
    """Information-wise equivalence of two tuples."""
    return r.equivalent_to(t)


def joinable(r: XTuple, t: XTuple) -> bool:
    """True when the tuple join ``r ∨ t`` exists."""
    return r.joinable_with(t)


def tuple_meet(r: XTuple, t: XTuple) -> XTuple:
    """The meet ``r ∧ t`` of two tuples."""
    return r.meet(t)


def tuple_join(r: XTuple, t: XTuple) -> XTuple:
    """The join ``r ∨ t`` of two joinable tuples."""
    return r.join(t)


def try_join(r: XTuple, t: XTuple) -> Optional[XTuple]:
    """The join ``r ∨ t`` or ``None`` when the tuples are not joinable."""
    if not r.joinable_with(t):
        return None
    return r.join(t)


#: The canonical null tuple (all attributes ``ni``).
NULL_TUPLE = XTuple()
