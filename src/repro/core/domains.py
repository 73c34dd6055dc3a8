"""Attribute domains and their extension by the no-information null.

Section 3 of the paper: "Underlying each attribute ``A`` there is a domain
``DOM(A)``.  We extend each domain to include the distinguished symbol
``ni``."  This module provides the domain abstraction used by schemas,
integrity checking, the possible-worlds completion enumerator (which must
know what the legal substitutions for a null are), and the data
generators.

Three concrete domain families cover everything the paper's examples use:

* :class:`EnumeratedDomain` — an explicit finite set of values (part
  numbers, supplier numbers, ``SEX`` codes).  Finite domains are what the
  Appendix's brute-force tautology checker and the possible-worlds
  enumerator iterate over.
* :class:`IntegerRangeDomain` — integers in an inclusive range (employee
  numbers, telephone numbers).  Still finite, but typically too large to
  enumerate, which is exactly the paper's point about the brute-force
  approach being infeasible.
* :class:`TypedDomain` — an "open" domain constrained only by a Python
  type (strings for ``NAME``).  Infinite for enumeration purposes.

Every domain answers membership questions about *nonnull* values; the
extended domain additionally admits :data:`~repro.core.nulls.NI`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import DomainError
from .nulls import NI, is_ni


class Domain:
    """Abstract base class of attribute domains.

    Subclasses implement :meth:`contains`, and — when the domain is finite
    and small enough to iterate — :meth:`__iter__` and :meth:`__len__`.
    """

    #: Human-readable name used in error messages and catalogs.
    name: str = "domain"

    def contains(self, value: Any) -> bool:
        """Return ``True`` when *value* is a legal **nonnull** domain value."""
        raise NotImplementedError

    def contains_extended(self, value: Any) -> bool:
        """Return ``True`` when *value* is legal in the *extended* domain.

        The extended domain is ``DOM(A) ∪ {ni}`` (Section 3).
        """
        return is_ni(value) or self.contains(value)

    def validate(self, value: Any, attribute: str = "?") -> Any:
        """Normalise and check *value*, raising :class:`DomainError` if illegal.

        ``None`` is normalised to :data:`NI`.  Returns the value to store.
        """
        if value is None:
            return NI
        if not self.contains_extended(value):
            raise DomainError(
                f"value {value!r} is not in the extended domain {self.name} "
                f"of attribute {attribute}"
            )
        return value

    # -- finiteness -------------------------------------------------------
    def is_finite(self) -> bool:
        """Return ``True`` when the domain can be exhaustively enumerated."""
        return False

    def __iter__(self) -> Iterator[Any]:
        raise DomainError(f"domain {self.name} is not enumerable")

    def __len__(self) -> int:
        raise DomainError(f"domain {self.name} has no finite cardinality")

    def sample(self, n: int, rng) -> list:
        """Return *n* values drawn uniformly (with replacement) using *rng*.

        Used by ``repro.datagen``.  Subclasses with natural sampling
        strategies override this.
        """
        raise DomainError(f"domain {self.name} does not support sampling")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class EnumeratedDomain(Domain):
    """A small, explicitly enumerated finite domain.

    Parameters
    ----------
    values:
        The nonnull values of the domain.  Order is preserved (first
        occurrence wins) so iteration and sampling are deterministic.
    name:
        Optional label for error messages.
    """

    def __init__(self, values: Iterable[Any], name: str = "enum"):
        seen = []
        seen_set = set()
        for v in values:
            if v is None or is_ni(v):
                raise DomainError("enumerated domains may not list the null value")
            if v not in seen_set:
                seen.append(v)
                seen_set.add(v)
        if not seen:
            raise DomainError("an enumerated domain needs at least one value")
        self._values: Tuple[Any, ...] = tuple(seen)
        self._value_set = frozenset(seen)
        self.name = name

    @property
    def values(self) -> Tuple[Any, ...]:
        """The nonnull values, in declaration order."""
        return self._values

    def contains(self, value: Any) -> bool:
        return value in self._value_set

    def is_finite(self) -> bool:
        return True

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def sample(self, n: int, rng) -> list:
        return [self._values[rng.randrange(len(self._values))] for _ in range(n)]

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._values[:4])
        if len(self._values) > 4:
            preview += ", ..."
        return f"EnumeratedDomain([{preview}], name={self.name!r})"


class IntegerRangeDomain(Domain):
    """Integers in the inclusive range ``[low, high]``.

    Finite, but potentially huge — the paper's Appendix argues that
    enumerating such domains to detect tautologies is infeasible, which is
    why brute-force substitution takes an explicit cap.
    """

    def __init__(self, low: int, high: int, name: str = "int-range"):
        if not isinstance(low, int) or not isinstance(high, int):
            raise DomainError("integer range bounds must be integers")
        if low > high:
            raise DomainError(f"empty integer range [{low}, {high}]")
        self.low = low
        self.high = high
        self.name = name

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and self.low <= value <= self.high

    def is_finite(self) -> bool:
        return True

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.low, self.high + 1))

    def __len__(self) -> int:
        return self.high - self.low + 1

    def sample(self, n: int, rng) -> list:
        return [rng.randint(self.low, self.high) for _ in range(n)]

    def __repr__(self) -> str:
        return f"IntegerRangeDomain({self.low}, {self.high}, name={self.name!r})"


class TypedDomain(Domain):
    """An open domain constrained only by a Python type (e.g. ``str``).

    Not enumerable; the possible-worlds evaluator refuses to enumerate
    completions over such a domain unless given an explicit
    *active domain* restriction.
    """

    def __init__(self, pytype: type, name: Optional[str] = None):
        if not isinstance(pytype, type):
            raise DomainError("TypedDomain requires a Python type object")
        self.pytype = pytype
        self.name = name or pytype.__name__

    def contains(self, value: Any) -> bool:
        if self.pytype is int and isinstance(value, bool):
            return False
        return isinstance(value, self.pytype)

    def __repr__(self) -> str:
        return f"TypedDomain({self.pytype.__name__}, name={self.name!r})"


class AnyDomain(Domain):
    """The unconstrained domain: every nonnull Python value is legal.

    This is the default when a schema does not declare domains; it keeps
    the core model usable without ceremony, exactly as the paper's
    definitions never require domain declarations except for ``TOP_U``.
    """

    name = "any"

    def contains(self, value: Any) -> bool:
        return True


#: Shared default instance of the unconstrained domain.
ANY = AnyDomain()


def active_domain(values: Iterable[Any], name: str = "active") -> EnumeratedDomain:
    """Build the *active domain* of a collection of values.

    The active domain — the set of nonnull values actually occurring in a
    database column — is the standard finite substitute for an open domain
    when enumerating completions (Reiter's closed-world flavour).  Nulls in
    *values* are skipped.
    """
    nonnull = [v for v in values if not is_ni(v) and v is not None]
    if not nonnull:
        raise DomainError(f"cannot build an active domain from only nulls for {name}")
    return EnumeratedDomain(nonnull, name=name)
