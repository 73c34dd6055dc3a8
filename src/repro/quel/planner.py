"""The cost-based logical planner for QUEL queries.

Section 8 of the paper stresses that the generalised model keeps "the
well-known correspondence between the relational calculus and the
relational algebra", which is what makes query evaluation efficient.
The planner makes that correspondence concrete, and *chooses between*
the equivalent algebraic strategies with a System-R-style cost model
(:mod:`repro.stats`).  It plans; :mod:`repro.exec` executes:

1. **Planning** (:meth:`Plan.logical_plan`) is a pure phase driven by
   estimates only — rename ranges (lazily), push single-variable
   selections (persistent-index equality probes first), order the joins
   greedily (estimated-smallest range first, then the linked range with
   the smallest estimated join output: O(n²) estimates for n ranges),
   fuse all equality conjuncts linking the next range into one
   composite key (an index-nested-loop join when that range is an
   unfiltered stored table carrying a
   :class:`~repro.storage.index.HashIndex` on exactly the fused key;
   Cartesian products, smallest first, last), push residual conjuncts
   through the joins (applied as soon as their ranges are combined),
   project onto the target list.  No rows are touched; the result is a
   list of picklable :class:`~repro.exec.builder.LogicalOp`.
2. **Compilation** (:meth:`Plan.compile`) binds the ``$name``
   placeholders, then hands the ops, the live tables' rows and the live
   indexes to the one tree builder,
   :func:`repro.exec.builder.build_tree`.  The tree pulls fixed-size
   tuple blocks and builds no intermediate
   :class:`~repro.core.xrelation.XRelation`.

Estimates come from the tables' statistics alone and never read a
constant's value, so a plan depends on the data and the physical
design, never on what earlier executions observed nor on the values
bound to its placeholders.  A prepared statement therefore plans its
``$name`` template once (a *generic plan*) and calls
``compile(params)`` per execution; a ``$name`` plans exactly as the
constant it will be bound to.

Every step is annotated with the optimizer's estimated and the measured
row count (``est=…, rows=…``), so ``Plan.explain()`` doubles as a
cost-model audit.

The planner handles every query the front end accepts; the optimisation
changes strategy only, and the produced result is always information-wise
equal to the tuple-at-a-time evaluation of
:func:`repro.core.query.evaluate_lower_bound` (asserted by the
differential harness in ``tests/test_differential_planner.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.errors import StaleResultError
from ..core.query import (
    AttributeRef,
    Comparison,
    Parameter,
    Predicate,
    Query,
    bind_parameter,
    collect_parameters,
    substitute_parameters,
)
from ..core.relation import Relation
from ..core.xrelation import XRelation
from ..exec.builder import LogicalOp, build_tree, join_on_text
from ..exec.operators import BLOCK_SIZE, IndexNLJoin, PhysicalOperator
from ..exec.pipeline import Pipeline, StalenessGuard, TraceStep
from ..exec.predicates import pair_predicate
from ..obs import registry_for
from ..stats import DEFAULT_COST_MODEL, TableStatistics
from .conjuncts import (
    conjoin,
    constant_parts,
    flatten,
    is_equijoin,
    orient_links,
    pick_equijoins,
    split_conjuncts,
)


class _RangeContext:
    """Per-range planning state: the relation, its stored table (when it
    has one), its statistics and the running cardinality estimate.
    Planning reads only these — no rows are touched."""

    __slots__ = ("variable", "relation", "table", "filtered", "est", "_stats")

    def __init__(self, variable: str, relation: Relation, table) -> None:
        self.variable = variable
        self.relation = relation
        self.table = table
        #: True once a selection has been pushed onto this range.
        self.filtered = False
        #: The optimizer's running cardinality estimate for this range.
        self.est: float = float(len(relation))
        self._stats: Optional[TableStatistics] = None

    @property
    def mapping(self) -> Dict[str, str]:
        return {a: f"{self.variable}.{a}" for a in self.relation.schema.attributes}

    def stats(self) -> TableStatistics:
        """The base statistics: the table's live counters when this range
        is a stored table (no per-query scan), a one-off analyze of the
        base rows otherwise."""
        if self._stats is None:
            if self.table is not None:
                self._stats = self.table.statistics
            else:
                self._stats = TableStatistics(self.relation.tuples())
        return self._stats

    def distinct(self, attribute: str) -> float:
        """Distinct non-null values on a (bare) attribute, capped by the
        current cardinality estimate (planning never reads the rows)."""
        count = self.stats().distinct_count(attribute)
        return float(min(count, self.est)) if count else 0.0

    def null_fraction(self, attribute: str) -> float:
        return self.stats().null_fraction(attribute)


def _plan_metric_handles(registry) -> Dict[str, Any]:
    """The planner's counters in *registry*, one child per label value."""
    plans = registry.counter(
        "repro_plans_total",
        "Streaming pipelines compiled by the cost-based planner.",
    )
    choices = registry.counter(
        "repro_plan_join_choices_total",
        "Physical strategy chosen per combine step (index-NL vs "
        "hash join vs cartesian product).",
        ("strategy",),
    )
    return {
        "plans": plans.labels(),
        "index_nl": choices.labels(strategy="index_nl"),
        "hash": choices.labels(strategy="hash"),
        "product": choices.labels(strategy="product"),
    }


class Plan:
    """An executable query plan with a readable, cost-annotated trace.

    Parameters
    ----------
    query:
        The analysed core query; its where clause may hold ``$name``
        placeholders, bound per :meth:`compile`.
    database:
        Optional database the ranges came from.  When it exposes
        ``table_for_relation`` (``repro.storage.Database`` does), the
        planner reaches each range's live :class:`TableStatistics` and
        persistent indexes through it; with ``None`` (or a plain mapping)
        per-range statistics are computed on the fly.
    block_size:
        Tuples per block exchanged between operators.
    """

    def __init__(
        self,
        query: Query,
        database=None,
        *,
        block_size: int = BLOCK_SIZE,
    ):
        self.query = query
        self.database = database
        self.block_size = block_size
        #: The step lines of the last :meth:`execute`.
        self.steps: List[str] = []
        self._ops: Optional[List[LogicalOp]] = None
        self._start: Optional[str] = None
        self._plan_contexts: Optional[Dict[str, _RangeContext]] = None
        self._mappings: Dict[str, Dict[str, str]] = {}
        self._schema = None
        #: Positions of the ops holding a ``$name`` (bound per compile).
        self._slots: List[int] = []
        #: Each op's step line; a slot's is rendered again once bound.
        self._texts: List[str] = []

    def explain(self) -> str:
        return "\n".join(f"{i + 1}. {step}" for i, step in enumerate(self.steps))

    def execute(self) -> XRelation:
        """Plan, compile, drain and return the answer x-relation (a
        one-shot convenience for a query with no placeholders)."""
        pipeline = self.compile()
        answer = pipeline.run()
        self.steps = pipeline.step_lines()
        return answer

    # -- the planning phase (estimate-driven, touches no rows) ---------------
    def logical_plan(self) -> List[LogicalOp]:
        """The cost-ordered logical plan (cached; pure — no rows read)."""
        if self._ops is None:
            ops = self._build_logical_plan()
            self._slots = [i for i, op in enumerate(ops) if _holds_parameter(op)]
            self._texts = [self._step_text(op) for op in ops]
            self._ops = ops
        return self._ops

    def _contexts(self) -> Dict[str, _RangeContext]:
        finder = getattr(self.database, "table_for_relation", None)
        return {
            variable: _RangeContext(
                variable, relation, finder(relation) if finder is not None else None
            )
            for variable, relation in self.query.ranges.items()
        }

    def _build_logical_plan(self) -> List[LogicalOp]:
        query = self.query
        model = DEFAULT_COST_MODEL
        ops: List[LogicalOp] = []

        pushable, residual = split_conjuncts(query.where)

        # Classify the residual conjuncts: equality links between two
        # ranges feed the join enumeration; single-variable conjuncts are
        # pushed onto their range ahead of any join; the rest is deferred
        # and applied as soon as its variables have all been combined.
        equijoins: List[Comparison] = []
        single_variable: Dict[str, List[Predicate]] = {}
        deferred: List[Predicate] = []
        for conjunct in flatten(residual):
            if is_equijoin(conjunct):
                equijoins.append(conjunct)
                continue
            references = conjunct.references()
            if len(references) == 1:
                single_variable.setdefault(references[0], []).append(conjunct)
            else:
                deferred.append(conjunct)

        variables = list(query.ranges)
        declaration = {variable: i for i, variable in enumerate(variables)}
        contexts = self._plan_contexts = self._contexts()
        self._mappings = {v: context.mapping for v, context in contexts.items()}
        self._schema = query.output_schema()

        # Step 1: rename each range with a variable prefix (lazy — the
        # step records the logical operation; rows move only at run time).
        for variable, relation in query.ranges.items():
            ops.append(LogicalOp("rename", variable=variable,
                                 described=relation.name))

        # Step 2: push single-variable selections — constant comparisons
        # first (equality conjuncts served straight from a covering
        # persistent index when one exists), then any residual conjunct
        # confined to one range.
        for variable, conjuncts in pushable.items():
            context = contexts[variable]
            conjuncts = self._plan_index_selection(ops, context, conjuncts)
            for conjunct in conjuncts:
                attribute, op, constant = constant_parts(conjunct)
                estimate = model.estimate_selection(
                    context.stats(), attribute, op, cardinality=context.est
                )
                context.est = estimate
                context.filtered = True
                ops.append(LogicalOp(
                    "select", variable=variable, conjunct=conjunct,
                    attribute=attribute, op=op, constant=constant, est=estimate,
                ))
        for variable, conjuncts in single_variable.items():
            context = contexts[variable]
            for conjunct in conjuncts:
                estimate = context.est * _residual_factor(conjunct)
                context.est = estimate
                context.filtered = True
                ops.append(LogicalOp(
                    "select-var-residual", variable=variable,
                    conjunct=conjunct, est=estimate,
                ))

        # Step 3: cost-ordered combination, greedy: estimated-smallest
        # start, then at each step the linked range with the smallest
        # estimated join output, products (smallest first) only when
        # nothing is linked.
        start = min(variables, key=lambda v: (contexts[v].est, declaration[v]))
        self._start = start
        included: Set[str] = {start}
        remaining = [v for v in variables if v != start]
        current = contexts[start].est
        distincts: Dict[str, float] = {}

        current = self._plan_deferred(ops, current, deferred, included)

        while remaining:
            best = None
            for variable in remaining:
                links = pick_equijoins(equijoins, included, variable)
                if not links:
                    continue
                pairs = orient_links(links, included)
                estimate = self._join_estimate(
                    current, distincts, contexts, contexts[variable], pairs
                )
                key = (estimate, declaration[variable])
                if best is None or key < best[0]:
                    best = (key, variable, links, pairs, estimate)
            if best is None:
                variable = min(
                    remaining, key=lambda v: (contexts[v].est, declaration[v])
                )
                estimate = model.product_cardinality(current, contexts[variable].est)
                ops.append(LogicalOp("product", variable=variable, est=estimate))
            else:
                _, variable, links, pairs, estimate = best
                for link in links:
                    equijoins.remove(link)
                context = contexts[variable]
                index = None
                if context.table is not None and not context.filtered:
                    index = context.table.find_index(
                        [new.attribute for _, new in pairs]
                    )
                ops.append(LogicalOp(
                    "join", variable=variable, pairs=pairs, est=estimate,
                    index=index.attributes if index is not None else None,
                    index_name=index.name if index is not None else None,
                ))
                _fold_join_distincts(distincts, contexts, pairs, estimate)
            included.add(variable)
            remaining.remove(variable)
            current = self._plan_deferred(ops, estimate, deferred, included)

        # Safety net: any equality conjunct the enumeration did not
        # consume (not reachable in practice) is applied as a selection.
        for conjunct in equijoins + deferred:
            current *= _residual_factor(conjunct)
            ops.append(LogicalOp("residual", conjunct=conjunct, est=current))

        # A range no index serves is scanned: its rename step says so.
        served = {op.variable: op.index_name for op in ops if op.index is not None}
        for op in ops[:len(variables)]:
            op.index_name = served.get(op.variable)

        ops.append(LogicalOp("project", targets=[
            (output, f"{ref.variable}.{ref.attribute}")
            for output, ref in query.target
        ]))
        return ops

    def _plan_index_selection(
        self, ops: List[LogicalOp], context: _RangeContext,
        conjuncts: List[Comparison],
    ) -> List[Comparison]:
        """Plan serving pushed equality conjuncts from a covering
        persistent index (one bucket probe instead of a scan); returns
        the conjuncts the index did not consume."""
        if context.table is None or context.filtered:
            return conjuncts
        by_attr: Dict[str, Tuple[Comparison, Any]] = {}
        for conjunct in conjuncts:
            attribute, op, constant = constant_parts(conjunct)
            if op in ("=", "==") and attribute not in by_attr:
                by_attr[attribute] = (conjunct, constant)
        if not by_attr:
            return conjuncts
        index, consumed_attrs = context.table.find_equality_index(list(by_attr))
        if index is None:
            return conjuncts
        by_attr = {attribute: by_attr[attribute] for attribute in consumed_attrs}
        consumed = {id(c) for c, _ in by_attr.values()}
        estimate = context.est
        for conjunct, _ in by_attr.values():
            attribute, op, _constant = constant_parts(conjunct)
            estimate = DEFAULT_COST_MODEL.estimate_selection(
                context.stats(), attribute, op, cardinality=estimate
            )
        context.est = estimate
        context.filtered = True
        ops.append(LogicalOp(
            "index-select", variable=context.variable,
            index=index.attributes, index_name=index.name,
            probe=[by_attr[a][1] for a in index.attributes], est=estimate,
        ))
        return [c for c in conjuncts if id(c) not in consumed]

    def _plan_deferred(
        self,
        ops: List[LogicalOp],
        current: float,
        deferred: List[Predicate],
        included: Set[str],
    ) -> float:
        """Push residual conjuncts through: schedule each as soon as every
        range it mentions has been combined.

        A conjunct that becomes applicable exactly at a join — it
        mentions the just-joined variable — and compiles to a fast
        (probe, build) pair predicate is **fused into the join** instead
        of appended as a separate selection: the probe loop rejects the
        pair before the joined tuple is ever constructed (two dict reads
        instead of a tuple build the very next operator would discard).
        Conjuncts with shapes the pair compiler rejects (Or / Not /
        exotic terms) keep the post-join Filter behaviour."""
        for conjunct in list(deferred):
            references = conjunct.references()
            if references and not set(references) <= included:
                continue
            deferred.remove(conjunct)
            current *= _residual_factor(conjunct)
            if ops and ops[-1].kind == "join" and ops[-1].variable in references:
                join_op = ops[-1]
                fused = conjoin(flatten(join_op.residual) + [conjunct])
                if pair_predicate(fused, join_op.variable) is not None:
                    join_op.residual = fused
                    join_op.est = current
                    continue
            ops.append(LogicalOp("residual", conjunct=conjunct, est=current))
        return current

    def _join_estimate(
        self,
        current: float,
        distincts: Dict[str, float],
        contexts: Dict[str, _RangeContext],
        context: _RangeContext,
        pairs: Sequence[Tuple[AttributeRef, AttributeRef]],
    ) -> float:
        key_distincts = []
        null_fractions = []
        for old_ref, new_ref in pairs:
            old_distinct = distincts.get(f"{old_ref.variable}.{old_ref.attribute}")
            if old_distinct is None:
                old_distinct = contexts[old_ref.variable].distinct(old_ref.attribute)
                if old_distinct:
                    old_distinct = min(old_distinct, current)
            new_distinct = context.distinct(new_ref.attribute)
            key_distincts.append((old_distinct, new_distinct))
            null_fractions.append((0.0, context.null_fraction(new_ref.attribute)))
        return DEFAULT_COST_MODEL.join_cardinality(
            current, context.est, key_distincts, null_fractions
        )

    # -- step texts -----------------------------------------------------------
    @staticmethod
    def _step_text(op: LogicalOp) -> str:
        """The logical step line (sans annotations)."""
        if op.kind == "rename":
            access = "scan" if op.index_name is None else "rename"
            return f"{access} {op.described} as {op.variable}(…)"
        if op.kind == "index-select":
            described = " and ".join(
                f"{op.variable}.{a} = {value!r}"
                for a, value in zip(op.index, op.probe)
            )
            return f"index select {described} using index {op.index_name}"
        if op.kind == "select":
            return f"select {op.conjunct!r} on {op.variable}"
        if op.kind == "select-var-residual":
            return f"select residual {op.conjunct!r} on {op.variable}"
        if op.kind == "join":
            on = join_on_text(op.pairs)
            fused = (
                f" with fused residual {op.residual!r}"
                if op.residual is not None else ""
            )
            if op.index is not None:
                return (
                    f"index-nested-loop join with {op.variable} using index "
                    f"{op.index_name} on {on}{fused}"
                )
            return f"hash equi-join with {op.variable} on {on}{fused}"
        if op.kind == "product":
            return f"product with {op.variable}"
        if op.kind == "residual":
            return f"select residual {op.conjunct!r}"
        if op.kind == "project":
            return f"project onto {[o for o, _ in op.targets]}"
        raise ValueError(f"unknown logical op kind {op.kind!r}")

    # -- compilation (logical plan → operator tree, via the one builder) -----
    def compile(self, params: Optional[Mapping[str, Any]] = None) -> Pipeline:
        """Bind *params* and compile the logical plan into a fresh
        single-use pipeline.

        This is the one binding point: every ``$name`` in a pushed
        constant, an index probe or a residual conjunct takes its value
        from *params* (a missing one raises
        :class:`~repro.core.errors.QuelSemanticError`), so the cached
        plan itself never changes.  The result is the bare streaming
        tree over the live tables' rows and indexes — first rows arrive
        before the inputs are exhausted, and the single materialisation
        happens when the :class:`~repro.exec.pipeline.Pipeline` is
        drained.  The logical plan is computed once.
        """
        ops, texts = self.logical_plan(), self._texts
        if self._slots:
            bound = params or {}
            ops, texts = list(ops), list(texts)
            for i in self._slots:
                ops[i] = _bind_op(ops[i], bound)
                texts[i] = self._step_text(ops[i])
        contexts = self._plan_contexts
        indexes = {}
        for op in ops:
            if op.index is not None:
                index = contexts[op.variable].table.indexes.get(op.index_name)
                if index is None or index.attributes != op.index:
                    raise StaleResultError(
                        f"index {op.index_name} was dropped after this "
                        f"query was planned; plan it again"
                    )
                indexes[op.variable] = index
        sources = {
            v: (context.table.relation if context.table is not None
                else context.relation).tuples()
            for v, context in contexts.items()
        }
        root, nodes = build_tree(
            ops, sources, indexes, self._mappings, self._start, self.block_size
        )
        trace = [
            TraceStep(text, est=op.est, node=node)
            for text, op, node in zip(texts, ops, nodes)
        ]
        # One version stamp per table the tree probes *live* (the inner
        # side of every index-nested-loop join); every other leaf
        # snapshots its rows now and needs no guard.
        guards = [
            StalenessGuard(contexts[op.variable].table)
            for op, node in zip(ops, nodes) if isinstance(node, IndexNLJoin)
        ]
        self._record_plan_metrics(nodes)
        return Pipeline(root, self._schema, trace, guards=guards)

    def _record_plan_metrics(
        self, nodes: Sequence[Optional[PhysicalOperator]]
    ) -> None:
        """Count this compilation and its physical join choices in the
        database's metrics registry (one bump per compiled pipeline).

        The strategy is read off the operator the builder constructed
        for each combine step.

        The label children are resolved once per *registry*
        (:func:`_plan_metric_handles`) — the per-compile cost is a
        handful of counter adds.
        """
        handles = registry_for(self.database).handles("planner", _plan_metric_handles)
        handles["plans"].inc()
        for op, node in zip(self.logical_plan(), nodes):
            if op.kind == "join":
                handles["index_nl" if isinstance(node, IndexNLJoin) else "hash"].inc()
            elif op.kind == "product":
                handles["product"].inc()


# ---------------------------------------------------------------------------
# Parameter binding, conjunct classification and estimate helpers
# ---------------------------------------------------------------------------

def _holds_parameter(op: LogicalOp) -> bool:
    """Whether *op* holds a ``$name`` placeholder.  A join's fused
    residual never does: a comparison with a placeholder mentions at
    most one range, so it is pushed, never fused."""
    if op.kind == "select":
        return isinstance(op.constant, Parameter)
    if op.kind == "index-select":
        return any(isinstance(value, Parameter) for value in op.probe)
    if op.kind in ("select-var-residual", "residual"):
        return bool(collect_parameters(op.conjunct))
    return False


def _bind_op(op: LogicalOp, params: Mapping[str, Any]) -> LogicalOp:
    """A copy of an op holding placeholders with each bound from
    *params* (the plan's own ops are never edited)."""
    if op.kind == "select":
        return op.replace(
            conjunct=substitute_parameters(op.conjunct, params),
            constant=bind_parameter(params, op.constant.name),
        )
    if op.kind == "index-select":
        return op.replace(probe=[
            bind_parameter(params, value.name)
            if isinstance(value, Parameter) else value
            for value in op.probe
        ])
    return op.replace(conjunct=substitute_parameters(op.conjunct, params))


def _residual_factor(conjunct: Predicate) -> float:
    if isinstance(conjunct, Comparison):
        return DEFAULT_COST_MODEL.residual_selectivity([conjunct.op])
    return DEFAULT_COST_MODEL.theta_selectivity


def _fold_join_distincts(
    distincts: Dict[str, float],
    contexts: Dict[str, _RangeContext],
    pairs: Sequence[Tuple[AttributeRef, AttributeRef]],
    estimate: float,
) -> None:
    """After a join, both sides of each fused key share one distinct-value
    count (containment of value sets), capped by the join's output
    estimate — recorded under each qualified attribute for the next
    join's estimate."""
    for old_ref, new_ref in pairs:
        old_key = f"{old_ref.variable}.{old_ref.attribute}"
        new_key = f"{new_ref.variable}.{new_ref.attribute}"
        old_distinct = distincts.get(old_key) or contexts[
            old_ref.variable
        ].distinct(old_ref.attribute)
        new_distinct = contexts[new_ref.variable].distinct(new_ref.attribute)
        shared = max(
            1.0,
            min(old_distinct or estimate, new_distinct or estimate,
                max(estimate, 1.0)),
        )
        distincts[old_key] = distincts[new_key] = shared


def plan_query(query: Query, database=None, **options) -> Plan:
    """Build a :class:`Plan` for a core query."""
    return Plan(query, database, **options)
