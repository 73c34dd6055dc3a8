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

from typing import Any, Iterable, List, Sequence, Union

from . import setops
from .engine.joins import equi_join_rows
from .errors import AlgebraError, AttributeNotFound
from .relation import Relation, RelationSchema
from .nulls import NULL_CLASSES
from .threevalued import compare, comparison_function
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

def comparison_holds(left: Any, func, right: Any, op: str) -> bool:
    """Whether ``left θ right`` is TRUE — THE comparison kernel.

    *func* is *op* resolved once (:func:`comparison_function`).  A null
    of any kind on either side is never TRUE (Section 5); otherwise the
    native operator decides, and a ``TypeError`` defers to
    :func:`~repro.core.threevalued.compare`'s mismatch rule (FALSE for
    ``=``, TRUE for ``!=``, :class:`AlgebraError` for an order operator).
    :func:`constant_selection` is the same test inlined over a block."""
    if left.__class__ in NULL_CLASSES or right.__class__ in NULL_CLASSES:
        return False
    try:
        return bool(func(left, right))
    except TypeError:
        return compare(left, op, right).is_true()


def constant_selection(rows: Sequence[XTuple], attribute: str, func, constant: Any, op: str) -> List[XTuple]:
    """The rows of a block on which ``A θ k`` (5.2) is TRUE, in order.

    :func:`comparison_holds` as one comprehension: a row is kept iff it
    binds *attribute* to a non-null ``v`` (``_lookup`` holds no ``ni``,
    but a stored marked or unknown null is present, hence the class
    test) and ``func(v, constant)`` holds.  A ``TypeError`` redoes the
    block row by row through :func:`comparison_holds`.  The executor's
    leaves run every pushed constant comparison through this."""
    if constant.__class__ in NULL_CLASSES:
        return []
    try:
        return [
            r for r in rows
            if (v := r._lookup.get(attribute)).__class__ not in NULL_CLASSES
            and func(v, constant)
        ]
    except TypeError:
        return [
            r for r in rows
            if comparison_holds(r._lookup.get(attribute), func, constant, op)
        ]


def select_constant_rows(rows: Iterable[XTuple], attribute: str, op: str, constant: Any) -> List[XTuple]:
    """The row-level kernel of ``R[A θ k]``: keep the rows that are
    A-total and satisfy the comparison (see :func:`constant_selection`)."""
    return constant_selection(list(rows), attribute, comparison_function(op), constant, op)


def select_predicate_rows(rows: Iterable[XTuple], predicate) -> List[XTuple]:
    """The row-level kernel of the generalised selection: keep the rows on
    which *predicate* evaluates to TRUE.  It may return a bool or a
    :class:`~repro.core.threevalued.TruthValue`, whose truthiness is
    "definitely TRUE", so FALSE and ``ni`` both drop the row."""
    return [r for r in rows if predicate(r)]


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
    func = comparison_function(op)
    rows = [
        r for r in rep.tuples()
        if comparison_holds(r._lookup.get(left), func, r._lookup.get(right), op)
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
    so the operand schemas overlap exactly on X.  The hash join is
    :func:`~repro.core.engine.joins.equi_join_rows`, so a row holding a
    null of any kind on X joins nothing — the answer of
    :func:`theta_join`'s ``=`` over renamed operands.
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
    return _wrap(schema, equi_join_rows(rep1.tuples(), rep2.tuples(), on, on))


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

    # (R_Y[Y] × S): pair every candidate with every divisor row — a plain
    # product, since the divisor's scope is disjoint from Y (checked above).
    divisor_scope = rep_s.scope()
    if not divisor_scope:
        # Dividing by an (equivalent-to-)empty divisor: every Y-total
        # candidate trivially qualifies.
        return quotient_candidates
    missing = [a for a in divisor_scope if a not in rep_r.schema.attributes]
    if missing:
        raise AlgebraError(f"divisor attributes {missing} do not appear in the dividend")
    pairs = product(quotient_candidates, project(rep_s, divisor_scope))

    # ((R_Y[Y] × S) − R_Y)[Y]: the candidates missing at least one divisor row.
    missing_pairs = XRelation(setops.difference(pairs.representation, r_y))
    disqualified = project(missing_pairs, by)

    # R_Y[Y] − disqualified
    return XRelation(setops.difference(quotient_candidates.representation, disqualified.representation))


def divide_by_images(dividend: RelationLike, divisor: RelationLike, by: Sequence[str]) -> XRelation:
    """Division by the image-set characterisation (6.5).

    ``R (÷Y) S = {y | y is Y-total and S ⊑ Z_R(y)}`` where Z is the scope
    of the divisor.  Equivalent to :func:`divide`;
    ``tests/test_algebra_division.py`` confirms they agree.
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
