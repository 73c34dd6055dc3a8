"""Named views over the generalised algebra, with dependency tracking.

References [26, 27] of the paper are Zaniolo's own work on supporting
relational *views* (in particular over network schemas), which is one of
the applications the introduction says null values make possible: a view
that outer-joins record types preserves the records that have no partner,
padding them with nulls instead of dropping them.  This module provides
the minimal machinery to make those views first-class:

* :class:`View` — a named algebra expression with a docstring;
* :class:`ViewCatalog` — registration, lookup, dependency queries
  ("which views read EMP?"), evaluation against any database mapping, and
  optional materialisation with an :meth:`~ViewCatalog.is_stale` check;
* :func:`network_to_relational` — the canonical example from [26]: an
  owner record type and a member record type linked by a set type are
  presented as a single relation via the union-join, losing no records.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..core.errors import StorageError
from ..core.relation import Relation
from ..core.xrelation import XRelation
from .expressions import Base, DatabaseLike, Expression, UnionJoin


class View:
    """A named, documented algebra expression."""

    def __init__(self, name: str, expression: Expression, description: str = ""):
        if not name:
            raise StorageError("a view needs a non-empty name")
        self.name = name
        self.expression = expression
        self.description = description

    def references(self) -> Set[str]:
        return self.expression.references()

    def evaluate(self, database: DatabaseLike) -> XRelation:
        return self.expression.evaluate(database)

    def explain(self) -> str:
        return self.expression.explain()

    def __repr__(self) -> str:
        return f"View({self.name!r}, reads={sorted(self.references())})"


class ViewCatalog:
    """A registry of views with evaluation, dependencies and materialisation."""

    def __init__(self) -> None:
        self._views: Dict[str, View] = {}
        self._materialised: Dict[str, XRelation] = {}

    # -- registration -----------------------------------------------------------
    def define(self, name: str, expression: Expression, description: str = "") -> View:
        if name in self._views:
            raise StorageError(f"view {name!r} is already defined")
        view = View(name, expression, description)
        self._views[name] = view
        return view

    def drop(self, name: str) -> None:
        if name not in self._views:
            raise StorageError(f"no view named {name!r}")
        dependants = [v.name for v in self._views.values() if name in v.references()]
        if dependants:
            raise StorageError(f"cannot drop view {name!r}: referenced by {dependants}")
        del self._views[name]
        self._materialised.pop(name, None)

    def view(self, name: str) -> View:
        try:
            return self._views[name]
        except KeyError:
            raise StorageError(
                f"no view named {name!r}; available: {', '.join(sorted(self._views))}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    # -- dependencies --------------------------------------------------------------
    def views_reading(self, relation_name: str) -> List[View]:
        """The views whose expressions read the given base relation or view."""
        return [view for view in self._views.values() if relation_name in view.references()]

    # -- evaluation ------------------------------------------------------------------
    def _resolving_database(self, database: DatabaseLike) -> Dict[str, Union[Relation, XRelation]]:
        """Base relations plus already-defined views, so views can stack."""
        resolved: Dict[str, Union[Relation, XRelation]] = dict(database)
        # Resolve views iteratively; views may reference other views as long
        # as there is no cycle (guarded by a pass limit).
        remaining = dict(self._views)
        for _ in range(len(remaining) + 1):
            progressed = False
            for name, view in list(remaining.items()):
                if all(ref in resolved for ref in view.references()):
                    resolved[name] = view.expression.evaluate(resolved)
                    del remaining[name]
                    progressed = True
            if not remaining:
                break
            if not progressed:
                unresolved = sorted(remaining)
                raise StorageError(f"cyclic or unresolvable view definitions: {unresolved}")
        return resolved

    def evaluate(self, name: str, database: DatabaseLike) -> XRelation:
        view = self.view(name)
        resolved = self._resolving_database(database)
        return resolved[name] if name in resolved else view.evaluate(resolved)

    # -- materialisation -----------------------------------------------------------------
    def materialise(self, name: str, database: DatabaseLike) -> XRelation:
        result = self.evaluate(name, database)
        self._materialised[name] = result
        return result

    def materialised(self, name: str) -> Optional[XRelation]:
        return self._materialised.get(name)

    def is_stale(self, name: str, database: DatabaseLike) -> bool:
        """True when re-evaluating the view would change its materialisation."""
        cached = self._materialised.get(name)
        if cached is None:
            return True
        return self.evaluate(name, database) != cached

    def invalidate_readers_of(self, relation_name: str) -> List[str]:
        """Drop materialisations of every view reading *relation_name*."""
        invalidated = []
        for view in self.views_reading(relation_name):
            if view.name in self._materialised:
                del self._materialised[view.name]
                invalidated.append(view.name)
        return sorted(invalidated)

    def __repr__(self) -> str:
        return f"ViewCatalog(views={self.names()}, materialised={sorted(self._materialised)})"


def network_to_relational(
    owner: str,
    member: str,
    link: Sequence[str],
    name: Optional[str] = None,
) -> View:
    """The [26]-style mapping of a network set type to a single relation.

    The owner and member record types are combined with the information-
    preserving union-join on the link attributes: owners without members
    and members without owners survive, padded with nulls, instead of
    silently disappearing as they would under an inner join.
    """
    expression = UnionJoin(Base(owner), Base(member), on=tuple(link))
    view_name = name or f"{owner}_{member}_set"
    return View(
        view_name,
        expression,
        description=(
            f"Network set type {owner} ↔ {member} presented relationally via the "
            f"union-join on {list(link)}; information-preserving by construction."
        ),
    )
