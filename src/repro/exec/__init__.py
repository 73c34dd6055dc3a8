"""The streaming operator-tree executor (Volcano-style, batch-at-a-time).

This subpackage decouples *execution* from *planning*: the QUEL planner
(:mod:`repro.quel.planner`) produces a logical plan — a list of
picklable :class:`LogicalOp` — and :func:`build_tree` here is the one
function that turns it into a tree of the physical operators defined
here.  The tree pulls fixed-size blocks of tuples from leaf to root —
non-blocking operators stream rows through without ever constructing an
intermediate
:class:`~repro.core.xrelation.XRelation`, while the blocking ones
(:class:`Reduce`, :class:`Materialize`, the join build sides, the DML
sinks) break the pipeline exactly where the semantics require it.

Every operator records its actual row count and wall time while the tree
drains, so ``ResultSet.explain(analyze=True)`` turns the optimizer's
``est=`` annotations into a measurable per-node audit.

The exported surface:

* operators — :class:`TableScan`, :class:`IndexProbe`, :class:`Filter`,
  :class:`Rename`, :class:`Project`, :class:`HashJoin`,
  :class:`IndexNLJoin`, :class:`Product`, :class:`Reduce`,
  :class:`Materialize`;
* DML sinks — :class:`AppendSink`, :class:`DeleteSink`,
  :class:`ReplaceSink`;
* :class:`LogicalOp` / :func:`build_tree` — the logical plan as data
  and its single interpreter (:mod:`repro.exec.predicates` compiles the
  conjuncts it carries into row functions);
* :class:`Pipeline` / :class:`TraceStep` / :class:`StalenessGuard` /
  :func:`render_tree` — the compiled-tree wrapper, the shared step-trace
  rendering, the execute-time stamp that makes an undrained live-index
  probe fail loudly after a mutation, and the ``EXPLAIN (ANALYZE)`` tree
  formatter.
"""

from .builder import LogicalOp, build_tree
from .operators import (
    BLOCK_SIZE,
    Filter,
    HashJoin,
    IndexNLJoin,
    IndexProbe,
    Materialize,
    PhysicalOperator,
    Product,
    Project,
    Reduce,
    Rename,
    TableScan,
)
from .pipeline import Pipeline, StalenessGuard, TraceStep, render_tree
from .sinks import AppendSink, DeleteSink, ReplaceSink, Sink

__all__ = [
    "BLOCK_SIZE",
    "AppendSink",
    "DeleteSink",
    "Filter",
    "HashJoin",
    "IndexNLJoin",
    "IndexProbe",
    "LogicalOp",
    "Materialize",
    "PhysicalOperator",
    "Pipeline",
    "Product",
    "Project",
    "Reduce",
    "Rename",
    "ReplaceSink",
    "Sink",
    "StalenessGuard",
    "TableScan",
    "TraceStep",
    "build_tree",
    "render_tree",
]
