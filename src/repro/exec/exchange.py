"""Exchange/Merge: parallel partitioned execution over shard workers.

The classic Volcano exchange-operator design (Graefe, "Volcano — An
Extensible and Parallel Query Evaluation System"), adapted to this
executor's block streams and to the paper's information ordering:

* :class:`PlanFragment` is the **picklable recipe** for one partition's
  operator subtree.  Physical operators themselves close over lambdas
  (predicates, rename transforms) and cannot cross a process boundary,
  so the coordinator ships the planner's logical ops as they are —
  plain data over the picklable core predicate AST — and each worker
  builds the real operator tree with the same
  :func:`~repro.exec.builder.build_tree` the coordinator uses for a
  serial plan.
* :func:`execute_fragment` is the worker entry point: build, drain,
  **locally reduce** the shard to minimal form (Definition 4.6), return
  the reduced rows plus per-step actuals.  Workers are shared-nothing:
  they receive pickled rows and the fragment, never a live ``Database``
  or index, so every join in a fragment is a hash join.
* :func:`partition_sources` splits the coordinator-resolved leaf rows
  (by fused join key for the plan's first hash join, by signature for
  reduce-heavy single-range plans).
* :class:`Exchange` dispatches one fragment per partition to a
  shared-nothing :mod:`multiprocessing` worker process (fork context
  where available; in this process when the platform offers no
  multiprocessing), and re-emits the shard results as ordinary blocks.
  After the drain it exposes per-partition actuals — rows in/out, wall
  time, skew — as stub child nodes, so ``explain(analyze=True)`` renders
  the per-worker audit under the Exchange node.
* :class:`Merge` reconciles the shard frontier:
  :func:`repro.core.engine.dominance.merge_reduced` over the
  locally-reduced shards restores the *global* minimal form — correct
  for any partition function, because reduction only removes dominated
  rows and dominance is transitive
  (``reduce(reduce(S1) ∪ reduce(S2)) = reduce(S1 ∪ S2)``).

Partitioning correctness, briefly: the plan's start range is sharded
and every other range is either co-partitioned (the first join's build
side, hashed on the same fused key, so equal keys meet in the same
worker) or broadcast whole.  Each output row of the serial plan derives
from exactly one start-range row, so the shard outputs cover the serial
output; per-worker projection dedup and local reduction may differ from
the serial path row-for-row, which is exactly what the final Merge
reduce reconciles.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..core.engine.dominance import (
    bulk_reduce,
    merge_reduced,
    partition_rows_by_signature,
)
from ..core.tuples import XTuple
from .builder import LogicalOp, build_tree
from .operators import Block, PhysicalOperator

__all__ = [
    "Exchange",
    "Merge",
    "PlanFragment",
    "exchange_tree",
    "execute_fragment",
    "partition_rows_by_key",
    "partition_sources",
]


def partition_rows_by_key(
    rows: Sequence[XTuple], key_attrs: Sequence[str], partitions: int
) -> List[List[XTuple]]:
    """Shard *rows* by the hash of their value tuple on *key_attrs*.

    Equal keys land in the same shard, so hashing both sides of an
    equi-join on the fused key co-partitions them: every matching pair
    meets inside one worker.  Rows null on any key attribute can never
    satisfy the equality (the Section 5 TRUE-only discipline) and the
    join this partitioning serves gates the whole downstream plan, so
    they are dropped here instead of being shipped and dropped in every
    worker's build/probe phase.
    """
    if partitions < 1:
        raise ValueError(f"need at least one partition, got {partitions}")
    key = tuple(key_attrs)
    shards: List[List[XTuple]] = [[] for _ in range(partitions)]
    for row in rows:
        lookup = row._lookup
        values = tuple(lookup.get(a) for a in key)
        if None in values:  # _lookup stores only non-null bindings
            continue
        shards[hash(values) % partitions].append(row)
    return shards


class PlanFragment(NamedTuple):
    """One partition's plan, as picklable data: the planner's logical
    ops verbatim (so per-step actuals align by index with the
    coordinator's trace), each range's ``attribute → variable.attribute``
    renaming, and the start range.  A worker hands these to
    :func:`~repro.exec.builder.build_tree` with its shard as *sources*
    and no indexes."""

    ops: Tuple[LogicalOp, ...]
    mappings: Dict[str, Dict[str, str]]
    start: str


def partition_sources(
    ops: Sequence[LogicalOp],
    start: str,
    sources: Dict[str, Sequence[XTuple]],
    partitions: int,
) -> Tuple[List[Dict[str, Sequence[XTuple]]], List[int], str]:
    """Split *sources* into per-partition source mappings.

    * When the plan's first combining step is an equi-join, both its
      sides are **co-partitioned** on the fused key — start-range rows
      by their key values, the joined range's rows by theirs — so every
      matching pair meets inside one worker, and rows null on a key
      attribute (which the join would drop anyway) are never shipped;
    * otherwise (single-range or product-first plans) the start range is
      partitioned by null-pattern **signature**, which groups identical
      rows — maximal local reduction per worker;
    * every other range is broadcast whole.

    Returns the mappings, the partitioned (non-broadcast) row count of
    each, and the scheme's description.  Correctness does not depend on
    the scheme: each serial output row derives from exactly one
    start-range row, so the shard outputs cover the serial output, and
    the final :class:`Merge` reduction restores global minimal form for
    *any* partition function (reduction only removes dominated rows;
    dominance is transitive).
    """
    first_combine = next(
        (op for op in ops if op.kind in ("join", "product")), None
    )
    sharded: Dict[str, List[List[XTuple]]] = {}
    if first_combine is not None and first_combine.kind == "join":
        # At the plan's first join the combined side is exactly the
        # start range, so every pair's old ref names a bare start
        # attribute — both sides hash the same key values.
        pairs = first_combine.pairs
        start_key = [old.attribute for old, _ in pairs]
        sharded[start] = partition_rows_by_key(
            sources[start], start_key, partitions
        )
        sharded[first_combine.variable] = partition_rows_by_key(
            sources[first_combine.variable],
            [new.attribute for _, new in pairs], partitions,
        )
        scheme = "co-partitioned on " + "+".join(
            f"{start}.{a}" for a in start_key
        )
    else:
        sharded[start] = partition_rows_by_signature(sources[start], partitions)
        scheme = "signature-partitioned"
    shards = [
        {
            variable: sharded[variable][i] if variable in sharded else rows
            for variable, rows in sources.items()
        }
        for i in range(partitions)
    ]
    counts = [
        sum(len(parts[i]) for parts in sharded.values())
        for i in range(partitions)
    ]
    return shards, counts, scheme


def execute_fragment(payload) -> Tuple[int, List[XTuple], Dict[str, Any]]:
    """The worker entry point: build, drain, locally reduce one shard.

    *payload* is ``(index, fragment, sources, block_size)``.  Returns
    the partition index, the shard's **minimal-form** rows (local
    reduction — the Merge side of the exchange only has to reconcile
    across shards), and a stats mapping: ``raw_rows`` (pre-reduction
    output), ``rows_out``, ``seconds`` and the per-step ``step_rows``
    aligned with the fragment's step list (``None`` for no-op steps).
    """
    index, fragment, sources, block_size = payload
    begin = perf_counter()
    root, nodes = build_tree(
        fragment.ops, sources, {}, fragment.mappings, fragment.start, block_size
    )
    staged: List[XTuple] = []
    for block in root.blocks():
        staged.extend(block)
    reduced = bulk_reduce(staged)
    stats = {
        "raw_rows": len(staged),
        "rows_out": len(reduced),
        "seconds": perf_counter() - begin,
        "step_rows": [
            node.actual_rows if node is not None else None for node in nodes
        ],
    }
    return index, reduced, stats


def _fork_context():
    """The worker context: fork where the platform offers it (cheap
    worker start, inherited modules), the default context otherwise."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _fragment_worker(result_queue, payload) -> None:
    """Per-process wrapper around :func:`execute_fragment`: every
    outcome — result or exception — travels back through the queue, so
    the coordinator never has to infer what happened from an exit code
    (except for deaths by signal, which cannot report)."""
    try:
        result = execute_fragment(payload)
    except BaseException as exc:  # noqa: BLE001 — transported, re-raised
        try:
            result_queue.put(("error", exc))
        except Exception:
            # The exception itself would not pickle; ship its repr.
            result_queue.put(("error", RuntimeError(repr(exc))))
        return
    result_queue.put(("ok", result))


class Exchange(PhysicalOperator):
    """Run one plan fragment per partition in worker processes.

    *fragment* is the shared :class:`PlanFragment`; *partitions* the
    per-worker source mappings (variable → rows: a shard of the
    partitioned ranges, the full rows of broadcast ranges).  Each
    partition runs in its own :mod:`multiprocessing` process (fork
    context where available); where the platform cannot provide one the
    fragments run sequentially in this process instead.

    Results are yielded as ordinary blocks as partitions complete
    (whichever worker reports first).  A worker exception propagates
    out of the block iterator — the owning
    :class:`~repro.exec.pipeline.Pipeline` latches it — and every
    worker is always terminated and joined with a bounded wait, so a
    failed query leaves no orphaned processes.

    After the drain the operator carries the per-partition audit:
    :attr:`partition_stats` (rows in/out, seconds per worker),
    :attr:`skew` (max/mean of the partitioned input rows), stub child
    nodes for ``render_tree`` so ``explain(analyze=True)`` shows each
    worker's actuals, and the aligned :attr:`trace_steps` get their
    aggregated row counts.
    """

    def __init__(
        self,
        fragment: PlanFragment,
        partitions: Sequence[Dict[str, Sequence[XTuple]]],
        *,
        partitioned_rows: Optional[Sequence[int]] = None,
        trace_steps: Sequence = (),
        **kwargs: Any,
    ):
        kwargs.setdefault("label", f"Exchange [{len(partitions)} partitions]")
        super().__init__((), **kwargs)
        self.fragment = fragment
        self.partitions = list(partitions)
        #: Partitioned (non-broadcast) input rows per partition — the
        #: numbers the skew is computed over.
        self.partitioned_rows = list(
            partitioned_rows
            if partitioned_rows is not None
            else [
                sum(len(rows) for rows in sources.values())
                for sources in self.partitions
            ]
        )
        self.trace_steps = tuple(trace_steps)
        #: Per-partition worker stats, filled while the exchange drains.
        self.partition_stats: List[Optional[Dict[str, Any]]] = [
            None for _ in self.partitions
        ]
        #: max/mean of the partitioned input rows (1.0 = perfectly even).
        self.skew: Optional[float] = None
        self._audited = False

    # -- dispatch --------------------------------------------------------------
    def _payloads(self) -> List[Tuple]:
        return [
            (i, self.fragment, sources, self.block_size)
            for i, sources in enumerate(self.partitions)
        ]

    def _results(self) -> Iterator[Tuple[int, List[XTuple], Dict[str, Any]]]:
        payloads = self._payloads()
        if len(payloads) <= 1:
            for payload in payloads:
                yield execute_fragment(payload)
            return
        try:
            ctx = _fork_context()
        except (ImportError, NotImplementedError, OSError):
            for payload in payloads:
                yield execute_fragment(payload)
            return
        # One bare Process per partition, results through one queue.
        # Deliberately NOT multiprocessing.Pool: its coordinator-side
        # handler threads have shutdown races under a fork start method
        # that can deadlock terminate()/join(); plain processes keep the
        # coordinator single-threaded and every wait bounded.
        from queue import Empty

        result_queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_fragment_worker, args=(result_queue, payload),
                daemon=True,
            )
            for payload in payloads
        ]
        for worker in workers:
            worker.start()
        try:
            pending = len(workers)
            while pending:
                try:
                    kind, value = result_queue.get(timeout=0.1)
                except Empty:
                    # No result yet: a worker killed by a signal can
                    # never report, so poll for silent deaths (exitcode
                    # 0 with results still in flight is fine).
                    dead = [
                        w for w in workers
                        if not w.is_alive() and w.exitcode not in (0, None)
                    ]
                    if dead:
                        raise RuntimeError(
                            f"exchange worker died with exit code "
                            f"{dead[0].exitcode}"
                        )
                    continue
                pending -= 1
                if kind == "error":
                    raise value
                yield value
        finally:
            # Always reached — normal exit, a worker error, or the
            # consumer abandoning the generator (GeneratorExit): every
            # worker is terminated and joined with a bounded wait, never
            # orphaned.
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            for worker in workers:
                worker.join(timeout=5)
                if worker.is_alive():
                    worker.kill()
                    worker.join(timeout=5)
            result_queue.close()

    def _blocks(self) -> Iterator[Block]:
        for index, rows, stats in self._results():
            self.partition_stats[index] = stats
            yield from self._reblock(rows)
        self._record_audit()

    # -- the post-drain audit --------------------------------------------------
    def _record_audit(self) -> None:
        if self._audited:
            return
        self._audited = True
        counts = self.partitioned_rows
        if counts:
            mean = sum(counts) / len(counts)
            self.skew = (max(counts) / mean) if mean > 0 else 1.0
            self.label += f" skew={self.skew:.2f}"
        stubs: List[PhysicalOperator] = []
        for i, stats in enumerate(self.partition_stats):
            rows_in = counts[i] if i < len(counts) else 0
            if stats is None:
                stub = PhysicalOperator(
                    (), label=f"partition {i} [rows_in={rows_in}, not run]"
                )
            else:
                stub = PhysicalOperator(
                    (),
                    label=(
                        f"partition {i} [rows_in={rows_in}, "
                        f"raw={stats['raw_rows']}, reduced={stats['rows_out']}]"
                    ),
                )
                stub.started = True
                stub.finished = True
                stub.actual_rows = stats["rows_out"]
                stub.seconds = stats["seconds"]
            stubs.append(stub)
        self.children = tuple(stubs)
        # Aggregate per-step actuals into the coordinator's trace: the
        # sum over workers (shard streams may overlap on rows a serial
        # run would deduplicate earlier; the counts are honest per-worker
        # work, which is what a parallel trace should report).
        for i, step in enumerate(self.trace_steps):
            total: Optional[int] = None
            for stats in self.partition_stats:
                if stats is None:
                    continue
                step_rows = stats["step_rows"]
                if i < len(step_rows) and step_rows[i] is not None:
                    total = (total or 0) + step_rows[i]
            if total is not None:
                step.fixed_rows = total


class Merge(PhysicalOperator):
    """Reconcile the shard frontier: the blocking end of an exchange.

    Drains the child (an :class:`Exchange`) and applies
    :func:`repro.core.engine.dominance.merge_reduced` over the collected
    shard blocks — each worker already reduced its own shard to minimal
    form, so this single pass restores the *global* minimal form and
    removes cross-shard duplicates, discharging the pipeline contract
    that the root operator de-duplicates.
    """

    def __init__(self, child: PhysicalOperator, **kwargs: Any):
        kwargs.setdefault("label", "Merge [reduce shard frontier]")
        super().__init__((child,), **kwargs)
        self.child = child

    def _blocks(self) -> Iterator[Block]:
        def merged() -> Iterator[XTuple]:
            # Inside the generator so the blocking drain + reduction run
            # under this node's timing, not the caller's.
            shards: List[Block] = list(self.child.blocks())
            yield from merge_reduced(shards)

        return self._reblock(merged())


def exchange_tree(
    ops: Sequence[LogicalOp],
    sources: Dict[str, Sequence[XTuple]],
    mappings: Dict[str, Dict[str, str]],
    start: str,
    partitions: int,
    block_size: int,
    trace_steps: Sequence = (),
) -> Tuple[Merge, str]:
    """The parallel counterpart of :func:`~repro.exec.builder.build_tree`:
    shard *sources* (:func:`partition_sources`), put one
    :class:`PlanFragment` of *ops* per shard under an :class:`Exchange`,
    and a :class:`Merge` on top.  *sources* must be snapshots — the
    fragments are built only when the tree drains.  Returns the root and
    the partition scheme's description; *trace_steps* are the op-aligned
    trace steps the Exchange audit fills with the workers' row counts.
    """
    shards, counts, scheme = partition_sources(ops, start, sources, partitions)
    exchange = Exchange(
        PlanFragment(tuple(ops), mappings, start), shards,
        partitioned_rows=counts, trace_steps=trace_steps,
        label=f"Exchange [{partitions} partitions, {scheme}]",
        block_size=block_size,
    )
    return Merge(exchange, block_size=block_size), scheme
