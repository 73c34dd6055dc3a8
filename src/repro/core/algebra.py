"""The generalised relational algebra over x-relations (Sections 5–7).

Every operator of Codd's complete relational algebra — selection,
Cartesian product, projection, union, difference — plus the derived
θ-joins, the equi-join on X, the information-preserving **union-join**
(outer join) and **division** are defined here for relations with nulls,
following the paper's definitions:

* ``R[A θ B]`` (5.1) and ``R[A θ k]`` (5.2): keep the rows that are total
  on the compared attributes and satisfy the comparison — the TRUE-only
  (lower-bound) discipline of Section 5;
* Cartesian product (5.3): tuple joins of non-null operand rows (operand
  schemas must be disjoint — rename first otherwise);
* θ-join (5.4): a selection over the product;
* join on X ``R1 (·X) R2``: tuple joins of X-total rows agreeing on X;
* union-join ``R1 (*X) R2``: the join plus the rows of either operand that
  do not participate — the paper's reading of the outer join;
* projection ``R[X]`` (5.5);
* division ``R (÷Y) S`` (6.1), with the equivalent image-set formulation
  (6.3)/(6.5) also implemented so the two can be cross-checked;
* the Z-image ``Z_R(y)`` (6.4).

All functions accept either a :class:`~repro.core.relation.Relation` or an
:class:`~repro.core.xrelation.XRelation` and return an
:class:`XRelation`; results are reduced to minimal form.  Union and
difference live in :mod:`repro.core.setops` and are re-exported here so
``repro.core.algebra`` exposes the complete algebra.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Union

from . import setops
from .errors import AlgebraError, AttributeNotFound
from .relation import Relation, RelationSchema
from .threevalued import compare
from .tuples import XTuple
from .xrelation import XRelation, as_xrelation

RelationLike = Union[Relation, XRelation]


def _rep(value: RelationLike) -> Relation:
    """The representation (minimal for XRelation input) behind *value*."""
    if isinstance(value, XRelation):
        return value.representation
    if isinstance(value, Relation):
        return value
    raise AlgebraError(f"expected a Relation or XRelation, got {type(value).__name__}")


def _wrap(schema: RelationSchema, rows: Iterable[XTuple]) -> XRelation:
    relation = Relation(schema, validate=False)
    relation._rows = set(rows)
    return XRelation(relation)


# ---------------------------------------------------------------------------
# Selection (5.1), (5.2) — row-level kernels first, relation wrappers below
# ---------------------------------------------------------------------------

def constant_predicate(attribute: str, op: str, constant: Any):
    """The row predicate of ``A θ k`` (5.2): TRUE iff the row is A-total
    and the comparison holds.  A null constant satisfies nothing — the
    comparison is ``ni`` on every row.  This is THE shared kernel for
    constant selections: :func:`select_constant_rows` and the streaming
    executor's :class:`repro.exec.Filter` nodes both evaluate through
    it, so the TRUE-only null discipline cannot diverge between them."""
    from .nulls import is_ni
    if is_ni(constant):
        return lambda row: False

    def predicate(row: XTuple, _a=attribute, _op=op, _k=constant) -> bool:
        value = row._lookup.get(_a)  # _lookup stores only non-null bindings
        return value is not None and compare(value, _op, _k).is_true()

    return predicate


def select_constant_rows(rows: Iterable[XTuple], attribute: str, op: str, constant: Any) -> List[XTuple]:
    """The row-level kernel of ``R[A θ k]``: keep the rows that are
    A-total and satisfy the comparison (see :func:`constant_predicate`)."""
    predicate = constant_predicate(attribute, op, constant)
    return [r for r in rows if predicate(r)]


def select_predicate_rows(rows: Iterable[XTuple], predicate) -> List[XTuple]:
    """The row-level kernel of the generalised selection: keep the rows on
    which *predicate* evaluates to TRUE (a :class:`TruthValue` or bool)."""
    from .threevalued import truth_of
    return [r for r in rows if truth_of(predicate(r)).is_true()]


def rename_rows(rows: Iterable[XTuple], mapping) -> List[XTuple]:
    """The row-level kernel of :func:`rename` — one fresh tuple per row."""
    return [r.rename(mapping) for r in rows]


def select_constant(relation: RelationLike, attribute: str, op: str, constant: Any) -> XRelation:
    """``R[A θ k]`` (5.2): rows that are A-total and satisfy ``r[A] θ k``.

    The constant must be a nonnull domain value; comparing against the
    null symbol is meaningless under every interpretation the paper
    discusses and is rejected.
    """
    rep = _rep(relation)
    if attribute not in rep.schema:
        raise AttributeNotFound(attribute, rep.schema.attributes)
    from .nulls import is_null
    if is_null(constant):
        raise AlgebraError("selection constants must be nonnull domain values")
    rows = select_constant_rows(rep.tuples(), attribute, op, constant)
    schema = RelationSchema(
        rep.schema.attributes, rep.schema.domains(),
        name=f"{rep.name}[{attribute}{op}{constant!r}]",
    )
    return _wrap(schema, rows)


def select_attributes(relation: RelationLike, left: str, op: str, right: str) -> XRelation:
    """``R[A θ B]`` (5.1): rows that are A-total and B-total and satisfy ``r[A] θ r[B]``."""
    rep = _rep(relation)
    for attribute in (left, right):
        if attribute not in rep.schema:
            raise AttributeNotFound(attribute, rep.schema.attributes)
    rows = [
        r for r in rep.tuples()
        if r.is_total_on((left, right)) and compare(r[left], op, r[right]).is_true()
    ]
    schema = RelationSchema(
        rep.schema.attributes, rep.schema.domains(),
        name=f"{rep.name}[{left}{op}{right}]",
    )
    return _wrap(schema, rows)


def select_predicate(relation: RelationLike, predicate) -> XRelation:
    """Generalised selection by an arbitrary three-valued predicate.

    *predicate* is called with each row and must return a
    :class:`~repro.core.threevalued.TruthValue` (or a bool); only rows
    evaluating to TRUE are kept, in line with the lower-bound discipline.
    Used by the QUEL evaluator for compound ``where`` clauses.
    """
    rep = _rep(relation)
    rows = select_predicate_rows(rep.tuples(), predicate)
    schema = RelationSchema(
        rep.schema.attributes, rep.schema.domains(), name=f"{rep.name}[σ]"
    )
    return _wrap(schema, rows)


# ---------------------------------------------------------------------------
# Cartesian product (5.3) and joins (5.4)
# ---------------------------------------------------------------------------

def _check_disjoint(s1: RelationSchema, s2: RelationSchema) -> None:
    overlap = [a for a in s1.attributes if a in s2]
    if overlap:
        raise AlgebraError(
            f"Cartesian product requires disjoint attribute sets; "
            f"both operands declare {overlap} — rename one side first"
        )


def product(left: RelationLike, right: RelationLike) -> XRelation:
    """Cartesian product (5.3): tuple joins ``r1 ∨ r2`` of non-null operand rows.

    Null rows (rows consisting only of ``ni``) are excluded, per the
    definition; the operand attribute sets must be disjoint, so the tuple
    join always exists.
    """
    rep1, rep2 = _rep(left), _rep(right)
    _check_disjoint(rep1.schema, rep2.schema)
    schema = rep1.schema.union(rep2.schema, name=f"({rep1.name} × {rep2.name})")
    rows: List[XTuple] = []
    for r1 in rep1.tuples():
        if r1.is_null_tuple():
            continue
        for r2 in rep2.tuples():
            if r2.is_null_tuple():
                continue
            rows.append(r1.join(r2))
    return _wrap(schema, rows)


def theta_join(left: RelationLike, right: RelationLike, left_attr: str, op: str, right_attr: str) -> XRelation:
    """θ-join (5.4): ``R1[A θ B]R2 = (R1 × R2)[A θ B]``."""
    return select_attributes(product(left, right), left_attr, op, right_attr)


def join_on(left: RelationLike, right: RelationLike, on: Sequence[str]) -> XRelation:
    """Equi-join on X, ``R1 (·X) R2``: join X-total rows that agree on X.

    Unlike the product, the join columns are shared rather than repeated,
    so the operand schemas overlap exactly on X.
    """
    rep1, rep2 = _rep(left), _rep(right)
    on = tuple(on)
    if not on:
        raise AlgebraError("join_on requires at least one join attribute")
    for attribute in on:
        if attribute not in rep1.schema:
            raise AttributeNotFound(attribute, rep1.schema.attributes)
        if attribute not in rep2.schema:
            raise AttributeNotFound(attribute, rep2.schema.attributes)
    extra_overlap = [
        a for a in rep1.schema.attributes
        if a in rep2.schema and a not in on
    ]
    if extra_overlap:
        raise AlgebraError(
            f"operands share attributes {extra_overlap} outside the join set {list(on)}; "
            f"rename one side first"
        )
    schema = rep1.schema.union(rep2.schema, name=f"({rep1.name} ⋈{list(on)} {rep2.name})")
    # Hash-join via the storage layer's index: X-total rows of the right
    # operand land in the value buckets, rows null on X land in the
    # unindexed bucket — which the inner join ignores, since only X-total
    # rows participate by definition.
    from ..storage.index import HashIndex  # local import: storage builds on core
    index = HashIndex(on)
    for r2 in rep2.tuples():
        index.insert(r2)
    rows: List[XTuple] = []
    for r1 in rep1.tuples():
        if not r1.is_total_on(on):
            continue
        for r2 in index.lookup([r1[a] for a in on]):  # same X-value → joinable on X
            rows.append(r1.join(r2))
    return _wrap(schema, rows)


def union_join(left: RelationLike, right: RelationLike, on: Sequence[str]) -> XRelation:
    """Union-join (outer join) on X, ``R1 (*X) R2``.

    Definition: the equi-join on X **union** the rows of either operand
    (padded with nulls on the other side's attributes, which the XTuple
    convention does implicitly).  This is the information-preserving join
    of Section 5: rows that do not participate in the join are kept rather
    than lost.
    """
    rep1, rep2 = _rep(left), _rep(right)
    inner = join_on(rep1, rep2, on)
    schema = RelationSchema(
        inner.schema.attributes, inner.schema.domains(),
        name=f"({rep1.name} ∪⋈{list(on)} {rep2.name})",
    )
    rows = list(inner.rows()) + list(rep1.tuples()) + list(rep2.tuples())
    return _wrap(schema, rows)


# ---------------------------------------------------------------------------
# Projection (5.5)
# ---------------------------------------------------------------------------

def project(relation: RelationLike, attributes: Sequence[str]) -> XRelation:
    """Projection ``R[X]`` (5.5): restrict every row to X.

    The result may contain rows subsumed by others (and even null rows)
    even when the input was minimal — the paper notes this is where
    re-reduction to minimal form is needed, and :func:`_wrap` performs it.
    """
    rep = _rep(relation)
    attributes = tuple(attributes)
    rep.schema.require(attributes)
    schema = rep.schema.project(attributes, name=f"{rep.name}[{', '.join(attributes)}]")
    rows = [r.project(attributes) for r in rep.tuples()]
    return _wrap(schema, rows)


def rename(relation: RelationLike, mapping) -> XRelation:
    """Rename attributes (needed before products/joins of a relation with itself)."""
    rep = _rep(relation)
    schema = rep.schema.rename(mapping, name=f"{rep.name}ρ")
    rows = rename_rows(rep.tuples(), mapping)
    return _wrap(schema, rows)


# ---------------------------------------------------------------------------
# Union / difference re-exports (Section 4)
# ---------------------------------------------------------------------------

def union(left: RelationLike, right: RelationLike) -> XRelation:
    """Generalised union (4.6)."""
    return XRelation(setops.union(_rep(left), _rep(right)))


def difference(left: RelationLike, right: RelationLike) -> XRelation:
    """Generalised difference (4.8)."""
    return XRelation(setops.difference(_rep(left), _rep(right)))


def x_intersection(left: RelationLike, right: RelationLike) -> XRelation:
    """x-intersection (4.7)."""
    return XRelation(setops.x_intersection(_rep(left), _rep(right)))


# ---------------------------------------------------------------------------
# Images and division (Section 6)
# ---------------------------------------------------------------------------

def image_set(relation: RelationLike, y: Union[XTuple, dict], y_attrs: Sequence[str], z_attrs: Sequence[str]) -> XRelation:
    """The Z-image ``Z_R(y)`` of a Y-value y under R (6.4).

    ``Z_R(y) = {z | for some r ∈̂ R, r[Y] = y and r[Z] = z}``.  Following
    the x-membership reading, a row contributes iff it is more informative
    than ``y`` on Y (i.e. matches y's non-null values); its Z-projection is
    the contributed z.
    """
    rep = _rep(relation)
    y_tuple = y if isinstance(y, XTuple) else XTuple(y)
    y_attrs = tuple(y_attrs)
    z_attrs = tuple(z_attrs)
    rep.schema.require(y_attrs)
    rep.schema.require(z_attrs)
    schema = rep.schema.project(z_attrs, name=f"{rep.name}.image")
    wanted = y_tuple.project(y_attrs)
    rows = [
        r.project(z_attrs)
        for r in rep.tuples()
        if r.project(y_attrs).more_informative_than(wanted)
    ]
    return _wrap(schema, rows)


def divide(dividend: RelationLike, divisor: RelationLike, by: Sequence[str]) -> XRelation:
    """Division ``R (÷Y) S`` by the algebraic definition (6.2).

    ``R (÷Y) S = R_Y[Y] − ((R_Y[Y] × S) − R_Y)[Y]`` where ``R_Y`` is the
    set of Y-total rows of R.  Only Y-total rows contribute to the
    quotient; the divisor's scope must be disjoint from Y (the "only case
    of practical interest", per the paper) — the attributes of S are the
    ones the quotient candidates must cover.
    """
    rep_r, rep_s = _rep(dividend), _rep(divisor)
    by = tuple(by)
    rep_r.schema.require(by)
    overlap = [a for a in rep_s.scope() if a in by]
    if overlap:
        raise AlgebraError(
            f"division requires the divisor's scope to be disjoint from Y; shares {overlap}"
        )

    # R_Y: the Y-total rows of R, as a relation over R's schema.
    r_y = Relation(rep_r.schema, validate=False)
    r_y._rows = set(rep_r.total_rows(by))

    # R_Y[Y]
    quotient_candidates = project(r_y, by)

    # (R_Y[Y] × S): pair every candidate with every divisor row.
    divisor_scope = rep_s.scope()
    if not divisor_scope:
        # Dividing by an (equivalent-to-)empty divisor: every Y-total
        # candidate trivially qualifies.
        return quotient_candidates
    shared = [a for a in divisor_scope if a in rep_r.schema.attributes]
    if set(shared) != set(divisor_scope):
        missing = [a for a in divisor_scope if a not in rep_r.schema.attributes]
        raise AlgebraError(f"divisor attributes {missing} do not appear in the dividend")
    pairs = product(quotient_candidates, project(rep_s, divisor_scope)) \
        if not shared else _pairing_product(quotient_candidates, project(rep_s, divisor_scope))

    # ((R_Y[Y] × S) − R_Y)[Y]: the candidates missing at least one divisor row.
    missing_pairs = XRelation(setops.difference(pairs.representation, r_y))
    disqualified = project(missing_pairs, by)

    # R_Y[Y] − disqualified
    return XRelation(setops.difference(quotient_candidates.representation, disqualified.representation))


def _pairing_product(left: XRelation, right: XRelation) -> XRelation:
    """Cartesian product that tolerates overlapping schemas by construction.

    In the division formula the candidate set (over Y) and the divisor
    (over Z) always have disjoint *scopes*, but their declared schemas may
    overlap textually after projections; this helper pairs the joinable
    rows.  The right operand is hashed on the textually-shared attributes
    with the :class:`~repro.storage.index.HashIndex` null-bucket protocol:
    a left row total on the shared attributes can only join the exact
    matches plus the null bucket (rows null somewhere on the shared set),
    so the disagreeing pairs are never visited.
    """
    schema = left.schema.union(right.schema, name=f"({left.name} × {right.name})")
    shared = tuple(a for a in left.schema.attributes if a in right.schema)
    rows: List[XTuple] = []
    if not shared:
        # Disjoint schemas: every non-null pair is joinable.
        right_rows = [r2 for r2 in right.rows() if not r2.is_null_tuple()]
        for r1 in left.rows():
            if r1.is_null_tuple():
                continue
            for r2 in right_rows:
                rows.append(r1.join(r2))
        return _wrap(schema, rows)

    from itertools import chain

    from ..storage.index import HashIndex  # local import: storage builds on core
    index = HashIndex(shared)
    all_right: Optional[List[XTuple]] = None
    for r2 in right.rows():
        if not r2.is_null_tuple():
            index.insert(r2)
    for r1 in left.rows():
        if r1.is_null_tuple():
            continue
        if r1.is_total_on(shared):
            exact, null_bucket = index.probe([r1[a] for a in shared])
            candidates: Iterable[XTuple] = chain(exact, null_bucket)
        else:
            if all_right is None:
                all_right = [r2 for r2 in right.rows() if not r2.is_null_tuple()]
            candidates = all_right
        for r2 in candidates:
            if r1.joinable_with(r2):
                rows.append(r1.join(r2))
    return _wrap(schema, rows)


def divide_by_images(dividend: RelationLike, divisor: RelationLike, by: Sequence[str]) -> XRelation:
    """Division by the image-set characterisation (6.5).

    ``R (÷Y) S = {y | y is Y-total and S ⊑ Z_R(y)}`` where Z is the scope
    of the divisor.  Equivalent to :func:`divide`; both are exercised by
    the tests and by benchmark E6 to confirm they agree.
    """
    rep_r, rep_s = _rep(dividend), _rep(divisor)
    by = tuple(by)
    rep_r.schema.require(by)
    divisor_scope = rep_s.scope()
    divisor_x = as_xrelation(rep_s) if divisor_scope else XRelation(rep_s)

    candidates = {r.project(by) for r in rep_r.total_rows(by)}
    schema = rep_r.schema.project(by, name=f"({rep_r.name} ÷ {rep_s.name})")
    if not divisor_scope:
        return _wrap(schema, candidates)
    rows: List[XTuple] = []
    for y in candidates:
        image = image_set(rep_r, y, by, divisor_scope)
        if image.contains(divisor_x):
            rows.append(y)
    return _wrap(schema, rows)
