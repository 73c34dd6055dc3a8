"""Null values and their interpretations.

The paper's central move is to replace the zoo of null interpretations
("value unknown", "value does not exist", marked nulls, probabilistic
nulls, ...) by a single, weaker *no-information* null, written ``ni`` and
printed as ``-`` in tables.  The ``ni`` null is a placeholder for *either*
an unknown *or* a nonexistent value: it asserts nothing.

This module provides:

* :data:`NI` — the singleton no-information null used throughout the
  extended relational model of Sections 3–7;
* :func:`is_null` / :func:`is_nonnull` — the canonical tests, which also
  recognise Python ``None`` as a convenience spelling of ``ni`` on input;
* the richer null taxonomy needed by the *baselines* the paper compares
  against: :class:`UnknownNull` (Codd 1979), :class:`NonexistentNull`
  (Lien 1979), and :class:`MarkedNull` (Imielinski–Lipski style marked
  nulls, used in the Section 2 discussion of "Bob Smith's manager is a
  woman");
* :func:`coerce_null` — normalisation of any null spelling to the
  canonical object used by the core model.

Only :data:`NI` ever appears inside core x-relations; the other classes
live in the ``repro.codd``, ``repro.lien`` and ``repro.worlds`` baselines.
"""

from __future__ import annotations

from typing import Any, Optional


class NoInformationNull:
    """The unique no-information null value ``ni``.

    There is exactly one instance, exported as :data:`NI`.  It is falsy,
    hashable, compares equal only to itself (and to ``None`` for input
    convenience via :func:`is_null`, *not* via ``==``), and prints as
    ``-`` to match the paper's tables.

    Footnote 4 of the paper notes that for the tuple-meet definition it is
    immaterial whether ``ni == ni`` holds; we choose reflexive equality so
    that tuples and relations can be hashed and deduplicated, but *no
    relational comparison* ever treats two nulls as matching: the
    three-valued logic layer (``repro.core.threevalued``) evaluates any
    comparison involving ``ni`` to the truth value ``ni``.
    """

    _instance: Optional["NoInformationNull"] = None

    def __new__(cls) -> "NoInformationNull":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ni"

    def __str__(self) -> str:
        return "-"

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("ni-no-information-null")

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, NoInformationNull)

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)

    def __copy__(self) -> "NoInformationNull":
        return self

    def __deepcopy__(self, memo) -> "NoInformationNull":
        return self

    def __reduce__(self):
        # Pickling must preserve the singleton property.
        return (NoInformationNull, ())


#: The no-information null, written ``-`` in the paper's tables.
NI = NoInformationNull()


class UnknownNull:
    """An "unknown" null: a value exists but is not known (Codd 1979).

    Used only by the Codd three-valued-logic baseline and by the
    possible-worlds evaluator, where an unknown null ranges over the whole
    attribute domain when completions are enumerated.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "unknown"

    def __str__(self) -> str:
        return "ω"  # Codd's omega

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("unknown-null")

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, UnknownNull)


class NonexistentNull:
    """A "nonexistent" null: the value does not exist (Lien 1979).

    Used only by the Lien baseline.  A nonexistent value satisfies no
    relational comparison (footnote 7 of the paper), exactly like ``ni``.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "nonexistent"

    def __str__(self) -> str:
        return "⊥"  # bottom

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("nonexistent-null")

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, NonexistentNull)


class MarkedNull:
    """A marked (labelled) null, as in Imielinski–Lipski v-tables.

    Two marked nulls with the same label denote the same unknown value, so
    they join with each other but evaluate to "maybe" against constants.
    The paper's Section 2 example — "Bob Smith's manager is a woman" —
    needs a marked null to tie the unknown manager's ``E#`` to Smith's
    ``MGR#``.  Marked nulls are supported by the possible-worlds baseline
    (``repro.worlds``), never by core x-relations.
    """

    __slots__ = ("label",)

    def __init__(self, label: str):
        if not isinstance(label, str) or not label:
            raise ValueError("MarkedNull label must be a non-empty string")
        self.label = label

    def __repr__(self) -> str:
        return f"MarkedNull({self.label!r})"

    def __str__(self) -> str:
        return f"@{self.label}"

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash(("marked-null", self.label))

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, MarkedNull) and other.label == self.label


#: All classes that the library recognises as "some kind of null".
NULL_TYPES = (NoInformationNull, UnknownNull, NonexistentNull, MarkedNull)

#: The same classes plus ``None``'s, as a set: ``v.__class__ in
#: NULL_CLASSES`` is :func:`is_null` as one set probe (no null class is
#: ever subclassed), which is what the comparison kernels' per-row null
#: test costs.
NULL_CLASSES = frozenset(NULL_TYPES + (type(None),))


def is_null(value: Any) -> bool:
    """Return ``True`` when *value* is a null of any interpretation.

    ``None`` is accepted as an input spelling of the no-information null so
    that data loaded from CSV/JSON or typed by hand reads naturally; it is
    normalised to :data:`NI` by :func:`coerce_null` before storage.
    """
    return value is None or isinstance(value, NULL_TYPES)


def is_nonnull(value: Any) -> bool:
    """Return ``True`` when *value* is an ordinary (total) domain value."""
    return not is_null(value)


def is_ni(value: Any) -> bool:
    """Return ``True`` when *value* is the no-information null (or ``None``)."""
    return value is None or isinstance(value, NoInformationNull)


def coerce_null(value: Any) -> Any:
    """Normalise the input spelling of nulls.

    ``None`` becomes :data:`NI`; every other value (including the richer
    null objects used by baselines) is returned unchanged.
    """
    if value is None:
        return NI
    return value
