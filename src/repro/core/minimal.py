"""Minimal-form reduction of relations (Definition 4.6).

A relation is a *minimal representation* of its x-relation when no proper
subset of its rows represents the same x-relation.  The reduction removes

* the null tuple, and
* every tuple that is less informative than some other tuple,

which the paper describes as "an extension of the process of removing
duplicate tuples in tables representing conventional relations".

Two algorithms are provided (``tests/test_minimal.py`` checks they agree):

* :func:`reduce_rows_naive` — the textbook O(n²) pairwise scan, a direct
  transliteration of the definition, kept as the oracle the property tests
  compare against;
* :func:`reduce_rows_hashed` — the production path, delegating to the
  signature-superset strategy of the dominance engine
  (:func:`repro.core.engine.bulk_reduce`): a tuple can only be subsumed by
  a tuple whose non-null attribute set is a *superset* of its own, so rows
  are partitioned by attribute-set signature and candidate dominators are
  found by hashing the superset partitions' projections — a handful of
  dict probes per row instead of a scan (and instead of the retired
  strategy that indexed all ``2^k`` attribute subsets of every row).

Both return the same set of rows; property-based tests
(``tests/test_engine_properties.py``) assert agreement.
"""

from __future__ import annotations

from typing import Iterable, List

from .engine.dominance import bulk_reduce
from .tuples import XTuple


def reduce_rows_naive(rows: Iterable[XTuple]) -> List[XTuple]:
    """Quadratic reduction to minimal form.

    Keeps a row iff it is not the null tuple and no distinct row is more
    informative than it.  Equivalent duplicate rows are already collapsed
    by the canonical :class:`XTuple` representation, so "distinct" here is
    plain set distinctness.
    """
    unique = list(set(rows))
    result: List[XTuple] = []
    for candidate in unique:
        if candidate.is_null_tuple():
            continue
        dominated = False
        for other in unique:
            if other != candidate and other.more_informative_than(candidate):
                dominated = True
                break
        if not dominated:
            result.append(candidate)
    return result


def reduce_rows_hashed(rows: Iterable[XTuple], max_subset_width: int = 12) -> List[XTuple]:
    """Signature-partitioned reduction to minimal form.

    A row with attribute set ``S`` can only be dominated by a row whose
    attribute set is a *superset* of ``S`` and whose projection onto ``S``
    equals the row exactly, so reduction only needs, per signature present
    in the data, the pooled projections of the strictly-wider partitions —
    see :func:`repro.core.engine.bulk_reduce`, which this delegates to.

    The *max_subset_width* parameter is retained for backward
    compatibility but ignored: the engine's strategy enumerates only the
    signatures actually present, never the ``2^k`` subsets of each row, so
    wide tuples need no special-casing.
    """
    return bulk_reduce(rows)


def reduce_rows(rows: Iterable[XTuple]) -> List[XTuple]:
    """Default reduction strategy used by :meth:`Relation.minimal`.

    Chooses the engine's signature-partitioned strategy for collections
    large enough for it to pay off, otherwise the naive scan (whose
    constant factor wins on tiny inputs).
    """
    materialised = rows if isinstance(rows, (list, set, tuple, frozenset)) else list(rows)
    if len(materialised) > 32:
        return bulk_reduce(materialised)
    return reduce_rows_naive(materialised)


def is_minimal_rows(rows: Iterable[XTuple]) -> bool:
    """True when the collection is already in minimal form."""
    unique = list(set(rows))
    for candidate in unique:
        if candidate.is_null_tuple():
            return False
        for other in unique:
            if other != candidate and other.more_informative_than(candidate):
                return False
    return True
