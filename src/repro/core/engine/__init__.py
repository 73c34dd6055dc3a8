"""The dominance/containment engine: fast kernels for the information ordering.

Section 4 of the paper points out that the naive implementations of the
generalised set operations and of reduction to minimal form cost
``O(|R1| · |R2|)`` and ``O(n²)`` respectively, and that "more sophisticated
techniques, such as combinatorial hashing, can provide more efficient
solutions".  This subpackage is that technique, shared by every hot path
in the library:

* :class:`~repro.core.engine.dominance.DominanceIndex` — rows partitioned
  by attribute-set *signature* and hash-indexed on their bound values, so
  "find rows more informative than ``t``" is a handful of dict probes over
  the signature-superset partitions instead of a full scan.  Used by
  :meth:`Relation.subsumes <repro.core.relation.Relation.subsumes>`,
  :func:`setops.difference <repro.core.setops.difference>` and the storage
  layer's live per-table index.  The batch entry points ``bulk_add`` /
  ``bulk_discard`` / ``bulk_probe_dominated`` partition once per batch
  (one set union and one invalidation per touched partition, one
  C-speed ``itemgetter`` per signature pair) — they are what makes
  :meth:`Table.insert_many <repro.storage.table.Table.insert_many>` /
  ``delete_many`` / ``load`` amortise index maintenance instead of paying
  it per row.
* :func:`~repro.core.engine.dominance.bulk_reduce` — one-shot minimal-form
  reduction (Definition 4.6) with the same signature-superset strategy;
  the backend of :func:`repro.core.minimal.reduce_rows`.
* :func:`~repro.core.engine.joins.pair_candidates` — the candidate-pair
  generator behind :func:`setops.x_intersection
  <repro.core.setops.x_intersection>`: only row pairs that agree on at
  least one bound attribute value can have a non-null meet, so the full
  ``n × m`` meet product is never enumerated.
* :func:`~repro.core.engine.joins.build_join_buckets` /
  :func:`~repro.core.engine.joins.probe_join_block` — the one hash
  equi-join: the build and block-at-a-time probe phases behind the
  executor's hash and index-nested-loop join operators (when a
  persistent table index already covers the fused join key, each outer
  row probes the live index instead of rebuilding hash buckets per
  query) and behind :func:`repro.core.algebra.join_on`.  Keys fuse every
  equality conjunct linking two ranges into one composite probe, and a
  key holding a null of any kind joins nothing.
  :func:`~repro.core.engine.joins.equi_join_rows` is their whole-input
  composition.

The naive, definitional forms are retained throughout the library as
oracles; the property tests in ``tests/test_engine_properties.py`` assert
exact agreement, so routing through the engine cannot drift from
Definitions 3.1 / 4.1–4.8.
"""

from .dominance import DominanceIndex, bulk_reduce
from .joins import (
    build_join_buckets,
    equi_join_rows,
    pair_candidates,
    probe_join_block,
)

__all__ = [
    "DominanceIndex",
    "build_join_buckets",
    "bulk_reduce",
    "equi_join_rows",
    "pair_candidates",
    "probe_join_block",
]
