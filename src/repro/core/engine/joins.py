"""Candidate-pairing and hash-join kernels over X-tuples.

Two observations turn the quadratic pair loops of the set operations and
the planner into hash probes:

* **Meets** (x-intersection, 4.7): the meet ``r1 ∧ r2`` keeps exactly the
  bindings both tuples agree on, so a pair whose meet is *not* the null
  tuple must agree on at least one ``(attribute, value)`` item.  Indexing
  one side by its bound items makes "all pairs with a non-null meet"
  enumerable without touching the disagreeing pairs
  (:func:`pair_candidates`).
* **Equi-joins** (Section 5's TRUE-only discipline): a comparison
  ``t.A = m.B`` can only be TRUE when both sides are non-null and equal,
  so bucketing one operand on its ``B`` values and probing with the other
  operand's ``A`` values enumerates exactly the TRUE combinations.  This
  is the one hash equi-join of the library: :func:`build_join_buckets`
  builds, :func:`probe_join_block` probes, and every equality join —
  the executor's :class:`~repro.exec.HashJoin` and
  :class:`~repro.exec.IndexNLJoin`, :func:`repro.core.algebra.join_on`,
  and the whole-input :func:`equi_join_rows` — goes through the pair.

The kernels are pure row-level functions; schema handling stays with the
callers in :mod:`repro.core.setops`, :mod:`repro.core.algebra` and
:mod:`repro.exec.operators`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..nulls import NULL_CLASSES
from ..tuples import XTuple


def pair_candidates(
    left_rows: Iterable[XTuple], right_rows: Iterable[XTuple]
) -> Iterator[Tuple[XTuple, XTuple]]:
    """Yield every pair ``(l, r)`` agreeing on at least one bound item.

    These are exactly the pairs whose meet ``l ∧ r`` is not the null
    tuple, i.e. the only pairs that can contribute a row to a *minimised*
    x-intersection (4.7).  Each qualifying pair is yielded once, even when
    it agrees on several items.
    """
    inverted: Dict[Tuple[str, Any], List[XTuple]] = {}
    for right in right_rows:
        for item in right.items():
            inverted.setdefault(item, []).append(right)
    if not inverted:
        return
    for left in left_rows:
        seen: set = set()
        for item in left.items():
            bucket = inverted.get(item)
            if not bucket:
                continue
            for right in bucket:
                marker = id(right)
                if marker not in seen:
                    seen.add(marker)
                    yield left, right


def meet_candidates(
    left_rows: Iterable[XTuple], right_rows: Iterable[XTuple]
) -> set:
    """The set of non-null meets ``{l ∧ r}`` over all candidate pairs.

    Equivalent to ``{l.meet(r) for l, r in full product} - {null tuple}``;
    used by :func:`repro.core.setops.x_intersection` ahead of reduction to
    minimal form (the null tuple never survives reduction, so skipping the
    disagreeing pairs loses nothing).
    """
    meets: set = set()
    for left, right in pair_candidates(left_rows, right_rows):
        meets.add(left.meet(right))
    return meets


def equi_join_rows(
    left_rows: Iterable[XTuple],
    right_rows: Iterable[XTuple],
    left_attr: Union[str, Sequence[str]],
    right_attr: Union[str, Sequence[str]],
) -> List[XTuple]:
    """Hash equi-join: tuple joins of row pairs with ``l[Aᵢ] = r[Bᵢ]`` for all i.

    *left_attr* / *right_attr* name the key attributes — a single
    attribute or parallel sequences of attributes, all fused into one
    composite key.  The whole-input form of the two kernels below:
    *right_rows* are bucketed by :func:`build_join_buckets`, *left_rows*
    probe them through :func:`probe_join_block`, so a key holding a null
    of any kind joins nothing (the Section 5 TRUE-only discipline, as in
    :func:`repro.core.algebra.comparison_holds`).  Two joined rows must
    agree wherever their attributes overlap — disjoint schemas, or an
    overlap on the key itself as in :func:`repro.core.algebra.join_on`.
    """
    left_key = (left_attr,) if isinstance(left_attr, str) else tuple(left_attr)
    right_key = (right_attr,) if isinstance(right_attr, str) else tuple(right_attr)
    if len(left_key) != len(right_key):
        raise ValueError(
            f"join keys must pair up: {len(left_key)} left vs {len(right_key)} right attributes"
        )
    if not left_key:
        raise ValueError("an equi-join needs at least one attribute pair")
    buckets = build_join_buckets(right_rows, right_key)
    if not buckets:
        return []
    empty: Tuple[XTuple, ...] = ()
    return probe_join_block(
        left_rows, left_key, lambda key: buckets.get(key, empty), lambda row: row, {}
    )


def build_join_buckets(
    rows: Iterable[XTuple], key_attrs: Sequence[str]
) -> Dict[Tuple, List[XTuple]]:
    """The build phase of a hash equi-join, as a reusable kernel.

    Buckets *rows* by their value tuple on *key_attrs*; rows ``ni`` on
    any key attribute are dropped (they can never satisfy the equality
    under the Section 5 TRUE-only discipline).  A stored marked or
    unknown null does get a bucket, but no probe reaches it:
    :func:`probe_join_block` skips every key holding a null, and a null
    object equals only a null object.  The build phase of
    :class:`repro.exec.HashJoin` and :func:`equi_join_rows`.
    """
    key_attrs = tuple(key_attrs)
    buckets: Dict[Tuple, List[XTuple]] = {}
    for row in rows:
        lookup = row._lookup
        key = tuple(lookup.get(a) for a in key_attrs)
        if None in key:  # _lookup stores only non-null bindings
            continue
        buckets.setdefault(key, []).append(row)
    return buckets


def probe_join_block(
    block: Iterable[XTuple],
    probe_attrs: Sequence[str],
    lookup: Callable[[Tuple], Iterable[XTuple]],
    transform: Callable[[XTuple], XTuple],
    cache: Dict[XTuple, XTuple],
    residual: Optional[Callable[[XTuple, XTuple], bool]] = None,
) -> List[XTuple]:
    """The probe phase of a hash/index equi-join, one block at a time.

    For each row of *block* whose key on *probe_attrs* holds no null of
    any kind (:func:`repro.core.algebra.comparison_holds`'s rule: an
    equality touching a null is never TRUE), probes *lookup* with its
    key values and joins the matches after passing them through
    *transform* (the planner's ``variable.``-prefix rename).
    *cache* memoises the transform per distinct matched row; the caller
    owns it so the memoisation spans every block of one join.  This is
    the block-level entry point the executor's :class:`repro.exec.HashJoin`
    and :class:`repro.exec.IndexNLJoin` pull on: *lookup* is a per-query
    bucket table for the former, the bound exact lookup of a live
    persistent index (:mod:`repro.storage.index`) for the latter, which
    keys no row holding a null, so the TRUE-only discipline holds on
    both sides.

    *residual* is the fused-residual hook: a predicate over the
    ``(probe row, raw build row)`` pair, evaluated **before** the joined
    tuple is constructed (and before the build row is renamed), so a
    residual conjunct the planner attached to the join rejects a
    non-qualifying pair at the cost of two dict reads instead of a tuple
    construction the next operator would immediately discard.  The build
    row arrives *unrenamed* (bare attribute names) — the planner's pair
    predicates are compiled against exactly that convention.
    """
    out: List[XTuple] = []
    probe_key = tuple(probe_attrs)
    for left in block:
        bindings = left._lookup
        key = tuple(bindings.get(a) for a in probe_key)
        # An absent binding reads None, whose class is in NULL_CLASSES too.
        if not NULL_CLASSES.isdisjoint(map(type, key)):
            continue
        for right in lookup(key):
            if residual is not None and not residual(left, right):
                continue
            renamed = cache.get(right)
            if renamed is None:
                renamed = cache[right] = transform(right)
            out.append(left.join(renamed))
    return out
