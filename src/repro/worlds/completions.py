"""Possible worlds of an incomplete relation: completion enumeration.

Under the "unknown" interpretation, a relation with nulls stands for the
set of total relations obtained by substituting a legal value for every
null occurrence — its *possible worlds* (the representation-system view of
Lipski and Imielinski–Lipski that Section 5 cites when defining the lower
bound ``||Q||_*`` and upper bound ``||Q||^*``).

This module enumerates completions:

* each ``ni``/unknown null occurrence ranges over the attribute's
  substitution domain (an explicit finite domain, or the active domain of
  the column plus a fresh value);
* marked nulls with the same label are substituted consistently — all of
  their occurrences receive the same value;
* the world count is the product of the per-site domain sizes, so the
  enumerators take (and enforce) an explicit cap; exceeding the cap is the
  signal for the exponential cost the paper contrasts with its linear
  lower-bound evaluation (``tests/test_worlds.py`` checks the cap).

The answers module builds certain/possible answers on top of this.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.domains import Domain, EnumeratedDomain, active_domain
from ..core.errors import DomainError
from ..core.nulls import MarkedNull, is_ni
from ..core.relation import Relation
from ..core.tuples import XTuple


class WorldSpaceTooLarge(DomainError):
    """Raised when the number of possible worlds exceeds the requested cap."""

    def __init__(self, world_count: int, cap: int):
        self.world_count = world_count
        self.cap = cap
        super().__init__(f"{world_count} possible worlds exceed the cap of {cap}")


#: One substitution site: either an anonymous null occurrence (row, attribute)
#: or a marked-null label shared by several occurrences.
AnonymousSite = Tuple[int, XTuple, str]


class CompletionSpace:
    """The space of completions of one or more relations.

    Parameters
    ----------
    relations:
        The incomplete relations, enumerated jointly (their nulls vary
        independently, except for shared marked-null labels).
    domains:
        Optional mapping from attribute name to a sequence of candidate
        values; attributes not listed fall back to their active domain
        across all the relations plus one fresh value.
    fresh_values:
        How many fresh (not-currently-present) values to add to each
        defaulted domain.  One is enough to distinguish "equal to some
        existing value" from "different from all of them"; more gives the
        enumeration finer resolution at exponential cost.
    """

    def __init__(
        self,
        relations: Sequence[Relation],
        domains: Optional[Mapping[str, Sequence[Any]]] = None,
        fresh_values: int = 1,
    ):
        self.relations = list(relations)
        self._domains = dict(domains or {})
        self._fresh_values = max(0, fresh_values)
        self._anonymous_sites: List[AnonymousSite] = []
        self._marked_labels: Dict[str, List[AnonymousSite]] = {}
        self._site_choices: List[List[Any]] = []
        self._collect_sites()

    # -- site discovery -----------------------------------------------------
    def _column_values(self, attribute: str) -> List[Any]:
        if attribute in self._domains:
            return list(self._domains[attribute])
        values: List[Any] = []
        for relation in self.relations:
            if attribute in relation.schema:
                for row in relation.tuples():
                    value = row[attribute]
                    if not is_ni(value) and not isinstance(value, MarkedNull) and value not in values:
                        values.append(value)
        for i in range(self._fresh_values):
            values.append(f"⊥{attribute}.{i}")
        if not values:
            raise DomainError(
                f"no substitution values available for attribute {attribute!r}; "
                f"provide an explicit domain"
            )
        return values

    def _collect_sites(self) -> None:
        marked_sites: Dict[str, List[AnonymousSite]] = {}
        marked_attribute: Dict[str, str] = {}
        for index, relation in enumerate(self.relations):
            for row in relation.sorted_rows():
                for attribute in relation.schema.attributes:
                    value = row[attribute]
                    if is_ni(value):
                        self._anonymous_sites.append((index, row, attribute))
                        self._site_choices.append(self._column_values(attribute))
                    elif isinstance(value, MarkedNull):
                        marked_sites.setdefault(value.label, []).append((index, row, attribute))
                        marked_attribute.setdefault(value.label, attribute)
        self._marked_labels = marked_sites
        self._marked_choices: Dict[str, List[Any]] = {
            label: self._column_values(marked_attribute[label]) for label in marked_sites
        }

    # -- size accounting ------------------------------------------------------
    def world_count(self) -> int:
        count = 1
        for choices in self._site_choices:
            count *= len(choices)
        for choices in self._marked_choices.values():
            count *= len(choices)
        return count

    def null_site_count(self) -> int:
        return len(self._anonymous_sites) + len(self._marked_labels)

    # -- enumeration -------------------------------------------------------------
    def worlds(self, cap: int = 100_000) -> Iterator[List[Relation]]:
        """Yield total versions of the relations, one list per possible world."""
        count = self.world_count()
        if count > cap:
            raise WorldSpaceTooLarge(count, cap)
        anonymous_choices = self._site_choices
        marked_labels = list(self._marked_labels)
        marked_choice_lists = [self._marked_choices[label] for label in marked_labels]
        for anon_assignment in iter_product(*anonymous_choices) if anonymous_choices else [()]:
            for marked_assignment in iter_product(*marked_choice_lists) if marked_choice_lists else [()]:
                yield self._materialise(anon_assignment, dict(zip(marked_labels, marked_assignment)))

    def _materialise(
        self, anon_assignment: Sequence[Any], marked_assignment: Mapping[str, Any]
    ) -> List[Relation]:
        per_row: Dict[Tuple[int, XTuple], Dict[str, Any]] = {}
        for (index, row, attribute), value in zip(self._anonymous_sites, anon_assignment):
            per_row.setdefault((index, row), {})[attribute] = value
        for label, sites in self._marked_labels.items():
            for index, row, attribute in sites:
                per_row.setdefault((index, row), {})[attribute] = marked_assignment[label]
        result: List[Relation] = []
        for index, relation in enumerate(self.relations):
            out = Relation(relation.schema, validate=False)
            rows = set()
            for row in relation.tuples():
                replacements = per_row.get((index, row))
                if replacements:
                    data = row.as_dict()
                    data.update(replacements)
                    # Marked nulls in unrelated columns of the same row also
                    # need replacing; as_dict keeps them, the update above
                    # already covered every site of this row.
                    rows.add(XTuple(data))
                else:
                    rows.add(row)
            out._rows = rows
            result.append(out)
        return result


def completions(
    relation: Relation,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
    cap: int = 100_000,
    fresh_values: int = 1,
) -> Iterator[Relation]:
    """Enumerate the possible worlds of a single relation."""
    space = CompletionSpace([relation], domains=domains, fresh_values=fresh_values)
    for world in space.worlds(cap=cap):
        yield world[0]


def world_count(
    relation: Relation,
    domains: Optional[Mapping[str, Sequence[Any]]] = None,
    fresh_values: int = 1,
) -> int:
    """The number of possible worlds of a relation (without enumerating them)."""
    return CompletionSpace([relation], domains=domains, fresh_values=fresh_values).world_count()
