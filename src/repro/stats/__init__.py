"""Table statistics and the cost model behind the QUEL optimizer.

Section 8 of the paper argues that preserving the calculus/algebra
correspondence "is what makes query evaluation efficient"; an efficient
algebraic strategy, however, needs to *choose* between equivalent plans.
This package supplies the choosing machinery, System-R style:

``repro.stats.statistics``
    :class:`TableStatistics` — per-table row counts and per-attribute
    distinct-value and null counts, maintained incrementally through
    every :class:`~repro.storage.table.Table` mutation path with an
    :meth:`~TableStatistics.analyze` full-refresh fallback.
``repro.stats.cost``
    :class:`CostModel` — selectivity and cardinality estimation over
    those statistics, null-aware: under the Section 5 lower-bound
    discipline a comparison touching ``ni`` is never TRUE, so null
    partitions are discounted from every estimate.

The QUEL planner (:mod:`repro.quel.planner`) consumes these to order
joins by estimated cardinality and to decide when probing a persistent
:class:`~repro.storage.index.HashIndex` beats rebuilding hash buckets.
"""

from .statistics import TableStatistics
from .cost import CostModel, DEFAULT_COST_MODEL

__all__ = ["TableStatistics", "CostModel", "DEFAULT_COST_MODEL"]
