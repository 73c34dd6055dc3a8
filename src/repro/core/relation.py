"""Relations with null values (Section 3) and their schemas.

A relation ``R(W)`` is a set of W-values.  In this library a
:class:`Relation` couples a :class:`RelationSchema` — an ordered list of
attributes with (optionally) their domains — with a set of
:class:`~repro.core.tuples.XTuple` rows.  Because :class:`XTuple` already
treats unnamed attributes as ``ni``, a relation happily stores rows that
bind only part of its schema; this is what makes the Table I / Table II
schema-evolution example of Section 2 work without touching the data.

The relation layer provides:

* **subsumption** ``R1 ⊒ R2`` (Definition 4.1) and **information-wise
  equivalence** ``R1 ≅ R2`` (Definition 4.2);
* **x-membership** ``t ∈̂ R`` (Definition 4.5 / Proposition 4.2);
* the **minimal representation** (Definition 4.6) and **scope**
  (Definition 4.7);
* classification helpers (total relation, Y-total rows) used by the
  algebra and the division operator.

The set-algebraic operators live in :mod:`repro.core.setops`; the
equivalence-class view lives in :mod:`repro.core.xrelation`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .domains import ANY, Domain
from .engine.dominance import DominanceIndex, bulk_reduce
from .errors import AttributeNotFound, SchemaError
from .nulls import NI, is_ni
from .tuples import XTuple


RowLike = Union[XTuple, Mapping[str, Any], Sequence[Any]]


class RelationSchema:
    """An ordered attribute list with optional domain declarations.

    Parameters
    ----------
    attributes:
        Attribute names in display order.  Names must be unique.
    domains:
        Optional mapping from attribute name to :class:`Domain`.  Missing
        attributes default to the unconstrained domain.
    name:
        Optional relation name, used for printing and by the catalog.
    """

    __slots__ = ("name", "_attributes", "_index", "_domains")

    def __init__(
        self,
        attributes: Sequence[str],
        domains: Optional[Mapping[str, Domain]] = None,
        name: str = "R",
    ):
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a relation schema needs at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in schema: {attrs}")
        for attribute in attrs:
            if not isinstance(attribute, str) or not attribute:
                raise SchemaError(f"attribute names must be non-empty strings, got {attribute!r}")
        self.name = name
        self._attributes = attrs
        self._index = {attribute: i for i, attribute in enumerate(attrs)}
        self._domains: Dict[str, Domain] = dict(domains or {})
        for attribute in self._domains:
            if attribute not in self._index:
                raise SchemaError(f"domain declared for unknown attribute {attribute!r}")

    # -- accessors -----------------------------------------------------------
    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._index

    def position(self, attribute: str) -> int:
        try:
            return self._index[attribute]
        except KeyError:
            raise AttributeNotFound(attribute, self._attributes) from None

    def domain(self, attribute: str) -> Domain:
        if attribute not in self._index:
            raise AttributeNotFound(attribute, self._attributes)
        return self._domains.get(attribute, ANY)

    def domains(self) -> Dict[str, Domain]:
        return {attribute: self.domain(attribute) for attribute in self._attributes}

    def require(self, attributes: Iterable[str]) -> None:
        """Raise :class:`AttributeNotFound` unless every attribute is declared."""
        for attribute in attributes:
            if attribute not in self._index:
                raise AttributeNotFound(attribute, self._attributes)

    # -- derivation ------------------------------------------------------------
    def project(self, attributes: Sequence[str], name: Optional[str] = None) -> "RelationSchema":
        """A schema restricted to *attributes* (kept in the order given)."""
        self.require(attributes)
        return RelationSchema(
            tuple(attributes),
            {a: self._domains[a] for a in attributes if a in self._domains},
            name=name or self.name,
        )

    def extend(
        self,
        attributes: Sequence[str],
        domains: Optional[Mapping[str, Domain]] = None,
        name: Optional[str] = None,
    ) -> "RelationSchema":
        """A schema with new attributes appended (schema evolution, Sec. 2)."""
        merged_domains = dict(self._domains)
        if domains:
            merged_domains.update(domains)
        return RelationSchema(
            self._attributes + tuple(a for a in attributes if a not in self._index),
            merged_domains,
            name=name or self.name,
        )

    def union(self, other: "RelationSchema", name: Optional[str] = None) -> "RelationSchema":
        """The attribute union of two schemas (used by product / union-join)."""
        extra = tuple(a for a in other._attributes if a not in self._index)
        merged_domains = dict(self._domains)
        for a in extra:
            if a in other._domains:
                merged_domains[a] = other._domains[a]
        return RelationSchema(self._attributes + extra, merged_domains, name=name or self.name)

    def rename(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "RelationSchema":
        """A schema with attributes renamed according to *mapping*."""
        new_attrs = tuple(mapping.get(a, a) for a in self._attributes)
        new_domains = {mapping.get(a, a): d for a, d in self._domains.items()}
        return RelationSchema(new_attrs, new_domains, name=name or self.name)

    # -- equality / printing ----------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def same_attributes(self, other: "RelationSchema") -> bool:
        """Union compatibility in the classical sense: same attribute *set*."""
        return set(self._attributes) == set(other._attributes)

    def __repr__(self) -> str:
        return f"RelationSchema({self.name!r}, {list(self._attributes)})"


class Relation:
    """A relation with null values: a set of tuples over a schema.

    The rows are stored as a set of canonical :class:`XTuple` objects, so
    duplicate rows (and rows equivalent to each other) collapse
    automatically — relations are sets, exactly as in the paper.

    A :class:`Relation` is *mutable* through :meth:`add` / :meth:`discard`
    (that is what the storage layer builds on), but every algebraic
    operation returns a fresh relation.
    """

    def __init__(
        self,
        schema: Union[RelationSchema, Sequence[str]],
        rows: Iterable[RowLike] = (),
        name: Optional[str] = None,
        validate: bool = True,
    ):
        if isinstance(schema, RelationSchema):
            self.schema = schema if name is None else RelationSchema(
                schema.attributes, schema.domains(), name=name
            )
        else:
            self.schema = RelationSchema(tuple(schema), name=name or "R")
        self._rows: Set[XTuple] = set()
        self._validate = validate
        # Lazily-built dominance index over the current rows; see
        # _dominance_index().  Invalidated by every mutation (the version
        # counter) and by wholesale rebinding of _rows (the identity and
        # length checks in _fresh_dominance).
        self._version = 0
        self._dominance: Optional[Tuple[Set[XTuple], int, int, DominanceIndex]] = None
        for row in rows:
            self.add(row)

    # -- constructors -------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        attributes: Sequence[str],
        rows: Iterable[Sequence[Any]],
        name: str = "R",
        domains: Optional[Mapping[str, Domain]] = None,
    ) -> "Relation":
        """Build a relation from positional rows (the way the paper draws tables)."""
        schema = RelationSchema(attributes, domains, name=name)
        return cls(schema, rows, name=name)

    @classmethod
    def empty(cls, attributes: Sequence[str], name: str = "R") -> "Relation":
        return cls(RelationSchema(attributes, name=name))

    # -- row conversion --------------------------------------------------------------
    def _coerce_row(self, row: RowLike) -> XTuple:
        return self._coerce_rows((row,))[0]

    def _coerce_rows(self, rows: Iterable[RowLike]) -> List[XTuple]:
        """Coerce and validate a batch of rows (the one coercion implementation).

        :meth:`_coerce_row` delegates here with a singleton batch.  The
        schema width, attribute table and the (usually empty) set of
        declared domains are bound once for the whole batch, so loading
        n rows costs n tuple constructions plus one validation pass —
        the entry point of the storage layer's bulk-mutation fast path.
        """
        attributes = self.schema.attributes
        width = len(attributes)
        known = self.schema._index
        declared = self.schema._domains if self._validate else {}
        validate = self._validate
        from_values = XTuple.from_values
        out: List[XTuple] = []
        for row in rows:
            if isinstance(row, XTuple):
                candidate = row
            elif isinstance(row, Mapping):
                candidate = XTuple(row)
            else:
                values = tuple(row)
                if len(values) != width:
                    raise SchemaError(
                        f"row has {len(values)} values but schema {self.schema.name} "
                        f"has {len(self.schema)} attributes"
                    )
                candidate = from_values(attributes, values)
            if validate:
                if declared:
                    for attribute in candidate.attributes:
                        if attribute not in known:
                            raise AttributeNotFound(attribute, attributes)
                        domain = declared.get(attribute)
                        if domain is not None:
                            domain.validate(candidate[attribute], attribute)
                elif not candidate._lookup.keys() <= known.keys():
                    for attribute in candidate.attributes:
                        if attribute not in known:
                            raise AttributeNotFound(attribute, attributes)
            out.append(candidate)
        return out

    # -- mutation ------------------------------------------------------------------------
    def add(self, row: RowLike) -> XTuple:
        """Insert a row (given as an XTuple, mapping or positional sequence)."""
        t = self._coerce_row(row)
        self._rows.add(t)
        self._version += 1
        return t

    def add_all(self, rows: Iterable[RowLike]) -> None:
        for row in rows:
            self.add(row)

    def discard(self, row: RowLike) -> bool:
        """Remove a row if present; returns whether a row was removed."""
        t = self._coerce_row(row)
        if t in self._rows:
            self._rows.remove(t)
            self._version += 1
            return True
        return False

    def clear(self) -> None:
        self._rows.clear()
        self._version += 1

    # -- basic container behaviour ----------------------------------------------------------
    @property
    def attributes(self) -> Tuple[str, ...]:
        return self.schema.attributes

    @property
    def name(self) -> str:
        return self.schema.name

    def tuples(self) -> Set[XTuple]:
        """The underlying set of rows (a copy is *not* made; do not mutate)."""
        return self._rows

    def __iter__(self) -> Iterator[XTuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __contains__(self, row: RowLike) -> bool:
        """Exact (equivalence-class) membership of a row — *not* x-membership."""
        try:
            t = self._coerce_row(row)
        except (SchemaError, AttributeNotFound):
            return False
        return t in self._rows

    def copy(self, name: Optional[str] = None) -> "Relation":
        out = Relation(self.schema, name=name or self.schema.name, validate=False)
        out._rows = set(self._rows)
        return out

    def with_schema(self, schema: RelationSchema) -> "Relation":
        """Re-house the same rows under a (typically wider) schema.

        This is the Section 2 schema-evolution operation: the rows are
        untouched, only the attribute universe changes, and the result is
        information-wise equivalent to the original.
        """
        out = Relation(schema, validate=False)
        out._rows = set(self._rows)
        return out

    # -- x-membership and subsumption (Section 4) ------------------------------------------------
    def _fresh_dominance(self) -> Optional[DominanceIndex]:
        """The cached dominance index, or ``None`` when stale/absent.

        Freshness requires the same row-set object (wholesale rebinding of
        ``_rows`` is the internal fast-construction idiom), the same
        mutation version (:meth:`add` / :meth:`discard` / :meth:`clear`
        bump it), and — belt and braces against direct in-place edits of
        the set — the same length.
        """
        cached = self._dominance
        if (
            cached is not None
            and cached[0] is self._rows
            and cached[1] == self._version
            and cached[2] == len(self._rows)
        ):
            return cached[3]
        return None

    def _dominance_index(self) -> DominanceIndex:
        """The dominance engine's index over the current rows, built lazily."""
        index = self._fresh_dominance()
        if index is None:
            index = DominanceIndex(self._rows)
            self._dominance = (self._rows, self._version, len(self._rows), index)
        return index

    def x_contains(self, row: RowLike) -> bool:
        """Proposition 4.2: ``t ∈̂ R`` iff some row of R is more informative than t.

        Uses the cached dominance index when one is already built (a probe
        is a handful of dict lookups); otherwise a single linear scan — a
        one-off probe cannot beat O(n) anyway, so the index is only built
        by the batch operations (:meth:`subsumes`, :meth:`equivalent_to`).
        """
        t = row if isinstance(row, XTuple) else self._coerce_row(row)
        index = self._fresh_dominance()
        if index is not None:
            return index.has_dominator(t)
        return any(r.more_informative_than(t) for r in self._rows)

    def subsumes(self, other: "Relation") -> bool:
        """Definition 4.1: every non-null row of *other* is x-contained in *self*.

        Batch form: *self* is indexed once by the dominance engine, then
        every row of *other* is a signature-superset probe, exiting early
        on the first miss.
        """
        if not other._rows:
            return True
        index = self._dominance_index()
        for t in other._rows:
            if t.is_null_tuple():
                continue
            if not index.has_dominator(t):
                return False
        return True

    def equivalent_to(self, other: "Relation") -> bool:
        """Definition 4.2: mutual subsumption."""
        return self.subsumes(other) and other.subsumes(self)

    def properly_subsumes(self, other: "Relation") -> bool:
        """Strict subsumption: subsumes but is not equivalent."""
        return self.subsumes(other) and not other.subsumes(self)

    # -- classification -----------------------------------------------------------------------------
    def is_total(self) -> bool:
        """True when every row is total on the whole schema (a Codd relation)."""
        return all(t.is_total_on(self.schema.attributes) for t in self._rows)

    def total_rows(self, attributes: Optional[Iterable[str]] = None) -> List[XTuple]:
        """The rows that are total on *attributes* (default: the full schema).

        ``R_Y`` in the paper's division definition (Section 6) is
        ``total_rows(Y)``.
        """
        attrs = tuple(attributes) if attributes is not None else self.schema.attributes
        return [t for t in self._rows if t.is_total_on(attrs)]

    def null_fraction(self) -> float:
        """Fraction of cells (over the full schema) holding ``ni``.

        A convenience statistic for synthetic data.
        """
        total_cells = len(self._rows) * len(self.schema)
        if total_cells == 0:
            return 0.0
        null_cells = sum(
            1 for t in self._rows for a in self.schema.attributes if is_ni(t[a])
        )
        return null_cells / total_cells

    # -- minimal representation and scope (Definitions 4.6, 4.7) -----------------------------------------
    def is_minimal(self) -> bool:
        """True when no row could be dropped without changing the x-relation.

        Reduction via the dominance engine drops exactly the null tuple
        and the subsumed rows, so the relation is minimal iff reduction
        keeps everything.
        """
        return len(bulk_reduce(self._rows)) == len(self._rows)

    def minimal(self, name: Optional[str] = None) -> "Relation":
        """The minimal representation: drop null rows and subsumed rows."""
        from .minimal import reduce_rows  # local import to avoid a cycle

        out = Relation(self.schema, name=name or self.schema.name, validate=False)
        out._rows = set(reduce_rows(self._rows))
        return out

    def scope(self) -> Tuple[str, ...]:
        """Definition 4.7: the smallest attribute set able to represent R.

        An attribute belongs to the scope iff some row is non-null on it.
        The result preserves schema order.
        """
        used: Set[str] = set()
        for t in self._rows:
            used.update(t.attributes)
        return tuple(a for a in self.schema.attributes if a in used)

    def projected_to_scope(self) -> "Relation":
        """A copy of the relation whose schema is exactly its scope."""
        scope = self.scope()
        if not scope:
            # Degenerate case: only null tuples.  Keep one attribute so the
            # schema stays legal; the relation is equivalent to the empty one.
            scope = self.schema.attributes[:1]
        out = Relation(self.schema.project(scope), validate=False)
        out._rows = {t.project(scope) for t in self._rows}
        return out

    # -- equality and printing -----------------------------------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        """Set equality of rows over the same attribute set.

        Note this is *representation* equality; use :meth:`equivalent_to`
        for the paper's information-wise equality of x-relations.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        return set(self.schema.attributes) == set(other.schema.attributes) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((frozenset(self.schema.attributes), frozenset(self._rows)))

    def sorted_rows(self) -> List[XTuple]:
        """Rows in a deterministic order (for printing and test assertions)."""
        def key(t: XTuple):
            return tuple(
                (0, "") if is_ni(t[a]) else (1, repr(t[a])) for a in self.schema.attributes
            )
        return sorted(self._rows, key=key)

    def to_table(self) -> str:
        """Render the relation in the paper's tabular style, with ``-`` for nulls."""
        headers = list(self.schema.attributes)
        rows = [[str(t[a]) for a in headers] for t in self.sorted_rows()]
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"{self.schema.name}(" + ", ".join(headers) + ")"]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Relation({self.schema.name!r}, attributes={list(self.schema.attributes)}, rows={len(self._rows)})"
