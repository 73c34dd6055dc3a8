"""Compiled statement executors: what a prepared statement caches.

:func:`compile_statement` turns a parsed QUEL statement into an object
with ``execute(params) -> ResultSet`` and ``describe(params) -> str``.
Compilation does all the per-statement work that does not depend on the
bound parameter values — lexing and parsing already happened in the
session, so this is name resolution, semantic analysis, strategy choice
(e.g. which persistent index a single-range retrieve will probe) — and
execution does only the per-call work: substitute the ``$name`` values
and run.

Mutations route through the storage layer's *atomic* bulk entry points
via the :mod:`repro.exec` DML sinks (:class:`AppendSink` ≡
``insert_many``, :class:`DeleteSink` ≡ ``delete_many``,
:class:`ReplaceSink` ≡ delete-then-insert with post-state FK re-check),
so the constraint atomicity of the bulk mutation subsystem carries over
to every QUEL DML statement — and ``explain(analyze=True)`` renders the
sink-rooted physical tree.  Retrieves compile to *streaming* pipelines:
the returned :class:`~repro.api.results.ResultSet` drains the operator
tree on demand.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import QuelSemanticError, StorageError
from ..core.nulls import is_ni
from ..core.query import (
    And,
    AttributeRef,
    Comparison,
    Parameter as CoreParameter,
    TruthConstant,
    bind_parameter,
)
from ..core.algebra import constant_predicate
from ..core.relation import RelationSchema
from ..core.tuples import XTuple
from ..core.xrelation import XRelation
from ..exec.operators import Filter, IndexProbe, Project, TableScan
from ..exec.pipeline import Pipeline, TraceStep
from ..exec.sinks import AppendSink, DeleteSink, ReplaceSink
from ..quel.analyzer import AnalyzedQuery, analyze
from ..quel.ast_nodes import (
    AppendStatement,
    Assignment,
    ColumnRef,
    DeleteStatement,
    Literal,
    Parameter,
    RangeDeclaration,
    ReplaceStatement,
    RetrieveStatement,
    TargetItem,
)
from ..quel.planner import Plan
from .results import ResultSet


def compile_statement(database, statement) -> "CompiledStatement":
    """Compile a parsed statement against *database* (name resolution,
    analysis, physical strategy choice)."""
    if isinstance(statement, RetrieveStatement):
        analyzed = analyze(statement, database)
        fast = _FastRetrieve.try_compile(database, analyzed)
        if fast is not None:
            return fast
        return _PlanRetrieve(database, analyzed)
    if isinstance(statement, AppendStatement):
        return _CompiledAppend(database, statement)
    if isinstance(statement, DeleteStatement):
        return _CompiledDelete(database, statement)
    if isinstance(statement, ReplaceStatement):
        return _CompiledReplace(database, statement)
    raise QuelSemanticError(f"cannot compile statement {statement!r}")


def _resolve_table(database, name: str):
    """The named table, resolved case-insensitively like the analyzer."""
    catalog = database.catalog
    if catalog.has_table(name):
        return catalog.table(name)
    for candidate in catalog.table_names():
        if candidate.lower() == name.lower():
            return catalog.table(candidate)
    raise QuelSemanticError(
        f"unknown relation {name!r}; available: "
        f"{', '.join(catalog.table_names())}"
    )


def _resolver(operand, schema=None, variable=None) -> Callable[[XTuple, Mapping[str, Any]], Any]:
    """A per-execution value resolver for an assignment operand.

    Literals close over their value, parameters read the bound params,
    column references (REPLACE only) read the current row.
    """
    if isinstance(operand, Literal):
        value = operand.value
        return lambda row, params, _v=value: _v
    if isinstance(operand, Parameter):
        name = operand.name
        return lambda row, params, _n=name: bind_parameter(params, _n)
    if isinstance(operand, ColumnRef):
        if variable is None or operand.variable != variable:
            raise QuelSemanticError(
                f"replacement value {operand} may reference only the "
                f"replaced range variable"
                if variable is not None else
                f"assignment value {operand} references a range variable, "
                f"but no ranges are declared"
            )
        if schema is not None and operand.attribute not in schema:
            raise QuelSemanticError(
                f"unknown attribute {operand} in assignment"
            )
        attribute = operand.attribute
        return lambda row, params, _a=attribute: row[_a]
    raise QuelSemanticError(f"unsupported assignment value {operand!r}")


def _check_assignments(table, assignments: Sequence[Assignment]) -> None:
    seen = set()
    for assignment in assignments:
        if assignment.attribute not in table.schema:
            raise QuelSemanticError(
                f"relation {table.name!r} has no attribute "
                f"{assignment.attribute!r} "
                f"(attributes: {', '.join(table.schema.attributes)})"
            )
        if assignment.attribute in seen:
            raise QuelSemanticError(
                f"attribute {assignment.attribute!r} assigned more than once"
            )
        seen.add(assignment.attribute)


class CompiledStatement:
    """Base class: an executable, parameterisable compiled statement."""

    #: Parameter names the statement template mentions.
    parameters: Tuple[str, ...] = ()

    def execute(self, params: Mapping[str, Any]) -> ResultSet:
        raise NotImplementedError

    def describe(self, params: Optional[Mapping[str, Any]] = None) -> str:
        """A human-readable account of the chosen strategy."""
        raise NotImplementedError

    def referenced_tables(self) -> Optional[Tuple[Any, ...]]:
        """The stored tables this statement's answer is a pure function
        of, or ``None`` when the statement is not result-cacheable
        (mutations, RETRIEVE INTO, ranges over ad-hoc relations)."""
        return None


# ---------------------------------------------------------------------------
# RETRIEVE
# ---------------------------------------------------------------------------

class _PlanRetrieve(CompiledStatement):
    """The general retrieve path: cached analysis + cost-based plan,
    compiled to a streaming operator tree the result set drains lazily."""

    def __init__(self, database, analyzed: AnalyzedQuery):
        self.database = database
        self.analyzed = analyzed
        self.parameters = analyzed.parameters
        self.into = analyzed.into
        finder = getattr(database, "table_for_relation", None)
        tables = None
        if finder is not None and not self.into:
            tables = []
            for relation in analyzed.query.ranges.values():
                table = finder(relation)
                if table is None:
                    tables = None  # an ad-hoc range: not result-cacheable
                    break
                tables.append(table)
        self._tables = tuple(tables) if tables is not None else None

    def referenced_tables(self) -> Optional[Tuple[Any, ...]]:
        return self._tables

    def execute(self, params: Mapping[str, Any]) -> ResultSet:
        started = time.perf_counter()
        query = self.analyzed.bind(params)
        plan = Plan(query, self.database)
        if self.into:
            # RETRIEVE INTO creates and loads a table: it must run now.
            answer = plan.execute()
            rows_affected = _materialize_into(self.database, self.into, answer)
            plan.steps.append(
                f"materialize {rows_affected} row(s) into new table {self.into}"
            )
            return ResultSet(answer, rows_affected=rows_affected, steps=plan.steps)
        pipeline = plan.compile()
        # Wall time of binding + planning + compilation, read by the
        # session's query trace to split the "plan" phase out of
        # "execute" (overwritten on every execution).
        self.last_plan_seconds = time.perf_counter() - started
        return ResultSet(pipeline=pipeline)

    def describe(self, params: Optional[Mapping[str, Any]] = None) -> str:
        # Unbound placeholders are described with null stand-ins (an
        # equality against null qualifies nothing, so the trace still
        # shows the chosen strategy) — explain() never requires params.
        bound = dict(params or {})
        for name in self.parameters:
            bound.setdefault(name, None)
        plan = Plan(self.analyzed.bind(bound), self.database)
        plan.execute()
        return "\n".join(plan.steps)


def _materialize_into(database, name: str, answer: XRelation) -> int:
    """RETRIEVE INTO: create the result table and bulk-load the answer."""
    if database.catalog.has_table(name):
        raise StorageError(
            f"retrieve into: table {name!r} already exists"
        )
    table = database.create_table(name, answer.schema.attributes)
    rows = list(answer.rows())
    table.insert_many(rows)
    return len(rows)


class _FastRetrieve(CompiledStatement):
    """The prepared-statement fast path: a fully compiled single-range
    conjunctive retrieve.

    Eligibility: one range bound to a stored table, a where clause that
    is a conjunction of ``column θ (literal | $param)`` comparisons (or
    absent), and no INTO.  Compilation picks the physical access path
    once — a persistent hash index covering the equality attributes, or
    a scan — and caches a **reusable operator-tree template with
    parameter slots**: each execution instantiates the template (a few
    node allocations — the probe values and filter constants resolve
    from the bound parameters) and hands the lazy pipeline to the result
    set, with none of the per-call analyze/plan machinery.
    """

    def __init__(
        self,
        database,
        table,
        variable: str,
        targets: Tuple[Tuple[str, str], ...],
        eq_probes: Tuple[Tuple[str, Callable], ...],
        residual: Tuple[Tuple[str, str, Callable], ...],
        index,
        parameters: Tuple[str, ...],
    ):
        self.database = database
        self.table = table
        self.variable = variable
        self.targets = targets
        self.eq_probes = eq_probes
        self.residual = residual
        self.index = index
        self.parameters = parameters
        self.output_attributes = tuple(output for output, _ in targets)

    # -- compilation ----------------------------------------------------------
    @classmethod
    def try_compile(cls, database, analyzed: AnalyzedQuery):
        query = analyzed.query
        if analyzed.into is not None or len(query.ranges) != 1:
            return None
        table_finder = getattr(database, "table_for_relation", None)
        if table_finder is None:
            return None
        (variable, relation), = query.ranges.items()
        table = table_finder(relation)
        if table is None:
            return None

        where = query.where
        if isinstance(where, TruthConstant):
            conjuncts: List[Comparison] = [] if where.truth.is_true() else None
            if conjuncts is None:
                return None
        elif isinstance(where, And):
            operands = where.operands
            if not all(isinstance(o, Comparison) for o in operands):
                return None
            conjuncts = list(operands)
        elif isinstance(where, Comparison):
            conjuncts = [where]
        else:
            return None

        # Each conjunct must compare one column of the range against a
        # literal or parameter; normalise so the column reads on the left.
        flat: List[Tuple[str, str, Any]] = []
        for conjunct in conjuncts:
            left, right = conjunct.left, conjunct.right
            op = conjunct.op
            if isinstance(left, AttributeRef) and not isinstance(right, AttributeRef):
                flat.append((left.attribute, op, right))
            elif isinstance(right, AttributeRef) and not isinstance(left, AttributeRef):
                flat.append((right.attribute, _FLIPPED[op], left))
            else:
                return None  # column-to-column or degenerate: generic path

        def value_resolver(term):
            if isinstance(term, CoreParameter):
                return lambda params, _n=term.name: bind_parameter(params, _n)
            value = term.literal
            return lambda params, _v=value: _v

        eq_attrs: Dict[str, Tuple[str, str, Any]] = {}
        for entry in flat:
            attribute, op, _term = entry
            if op in ("=", "==") and attribute not in eq_attrs:
                eq_attrs[attribute] = entry
        # The same physical choice the cost-based planner makes for its
        # pushed selections (one shared matcher — they cannot diverge).
        index, consumed_attrs = table.find_equality_index(list(eq_attrs))
        eq_attrs = {attribute: eq_attrs[attribute] for attribute in consumed_attrs}

        consumed = {id(entry) for entry in eq_attrs.values()}
        eq_probes = tuple(
            (attribute, value_resolver(eq_attrs[attribute][2]))
            for attribute in (index.attributes if index is not None else ())
        )
        residual = tuple(
            (entry[0], entry[1], value_resolver(entry[2]))
            for entry in flat
            if id(entry) not in consumed
        )
        targets = tuple(
            (output, ref.attribute) for output, ref in query.target
        )
        return cls(
            database, table, variable, targets, eq_probes, residual,
            index, analyzed.parameters,
        )

    # -- execution ------------------------------------------------------------
    def _step_texts(self) -> List[str]:
        """The template's step lines — the one source both the executed
        pipeline trace and :meth:`describe` render from, so the two can
        never drift apart."""
        if self.index is not None:
            described = " and ".join(
                f"{self.variable}.{a} = ?" for a, _ in self.eq_probes
            )
            steps = [
                f"index select {described} using index {self.index.name} "
                f"[prepared fast path]"
            ]
        else:
            steps = [f"scan {self.table.name} [prepared fast path]"]
        for attribute, op, _resolve in self.residual:
            steps.append(f"filter {self.variable}.{attribute} {op} ?")
        steps.append(f"project onto {list(self.output_attributes)}")
        return steps

    def make_pipeline(self, params: Mapping[str, Any]) -> Pipeline:
        """Instantiate the compiled template: bind the parameter slots
        and build the single-use operator tree (probe/scan → filters →
        project)."""
        nodes: List[Any] = []
        if self.index is not None:
            probe = [resolve(params) for _, resolve in self.eq_probes]
            node: Any = IndexProbe(
                self.index.lookup, probe,
                label=f"IndexProbe {self.index.name} ({self.variable})",
            )
        else:
            node = TableScan(
                self.table.relation.tuples(),
                label=f"TableScan {self.table.name} ({self.variable})",
            )
        nodes.append(node)
        for attribute, op, resolve in self.residual:
            # The shared constant-selection kernel — the same predicate
            # the planner's pushed selections stream through, so the fast
            # path cannot drift on null discipline.
            node = Filter(
                node, constant_predicate(attribute, op, resolve(params)),
                label=f"Filter {self.variable}.{attribute} {op} ?",
            )
            nodes.append(node)
        node = Project(
            node, self.targets, label=f"Project {list(self.output_attributes)}"
        )
        nodes.append(node)
        trace = [
            TraceStep(text, node=step_node, show_est=False)
            for text, step_node in zip(self._step_texts(), nodes)
        ]
        schema = RelationSchema(self.output_attributes, name="Q")
        return Pipeline(node, schema, trace)

    def execute(self, params: Mapping[str, Any]) -> ResultSet:
        return ResultSet(pipeline=self.make_pipeline(params))

    def describe(self, params: Optional[Mapping[str, Any]] = None) -> str:
        return "\n".join(self._step_texts())

    def referenced_tables(self) -> Optional[Tuple[Any, ...]]:
        return (self.table,)


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "==": "==", "!=": "!="}


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------

def _matching_rows_query(
    database,
    ranges: Tuple[RangeDeclaration, ...],
    variable: str,
    where,
    attributes: Tuple[str, ...],
) -> AnalyzedQuery:
    """An analysed query whose answer is the *variable*-rows matching
    *where*: the target list projects every attribute of the variable's
    relation under its bare name, so each output row IS a stored row."""
    targets = tuple(
        TargetItem(ColumnRef(variable, attribute), label=attribute)
        for attribute in attributes
    )
    statement = RetrieveStatement(ranges, targets, where)
    return analyze(statement, database)


class _CompiledDelete(CompiledStatement):
    """``delete v [where …]`` → matching rows → atomic ``delete_many``.

    Per Section 7, deletion is generalised difference: each matching row
    also removes every stored row it subsumes ((4.8)), and the whole
    batch is applied through the bulk path with referential checks."""

    def __init__(self, database, statement: DeleteStatement):
        self.database = database
        self.statement = statement
        declared = {d.variable: d for d in statement.ranges}
        if statement.variable not in declared:
            raise QuelSemanticError(
                f"delete target {statement.variable!r} is not a declared "
                f"range variable (declared: {', '.join(declared) or 'none'})"
            )
        self.table = _resolve_table(database, declared[statement.variable].relation)
        self.analyzed = _matching_rows_query(
            database, statement.ranges, statement.variable,
            statement.where, self.table.schema.attributes,
        )
        self.parameters = self.analyzed.parameters

    def execute(self, params: Mapping[str, Any]) -> ResultSet:
        query = self.analyzed.bind(params)
        source = Plan(query, self.database).compile()
        sink = DeleteSink(self.database, self.table, source)
        count = sink.run()
        return ResultSet(
            rows_affected=count, steps=[self.describe(params)], tree=sink
        )

    def describe(self, params: Optional[Mapping[str, Any]] = None) -> str:
        where = f" where {self.statement.where}" if self.statement.where else ""
        return (
            f"delete from {self.table.name}{where} "
            f"via atomic delete_many (4.8 subsumption, FK-checked)"
        )


class _CompiledAppend(CompiledStatement):
    """``append to R (…)`` → one atomic ``insert_many`` batch."""

    def __init__(self, database, statement: AppendStatement):
        self.database = database
        self.statement = statement
        self.table = _resolve_table(database, statement.relation)
        _check_assignments(self.table, statement.assignments)
        self.analyzed: Optional[AnalyzedQuery] = None
        #: (attribute, column-label or None, resolver or None) per assignment.
        self.columns: List[Tuple[str, Optional[str], Optional[Callable]]] = []
        parameters: List[str] = []

        if statement.ranges:
            # The binding-enumeration sub-query projects EVERY attribute
            # of every declared range.  The answer is an x-relation
            # (minimal form): a qualifying binding always carries at
            # least one non-null attribute per range (null-tuple rows
            # never bind), so its full projection is never the null
            # tuple and cannot be minimized away — whereas projecting
            # only the assignment columns could collapse a qualifying
            # binding whose assigned columns are all null into the null
            # tuple and silently drop the append.  A full-projection row
            # dominated by another yields a dominated (redundant) append
            # row, so minimization stays harmless.
            targets: List[TargetItem] = []
            for declaration in statement.ranges:
                for attribute in _resolve_table(database, declaration.relation).schema.attributes:
                    targets.append(TargetItem(
                        ColumnRef(declaration.variable, attribute),
                        label=f"{declaration.variable}__{attribute}",
                    ))
            declared = {
                d.variable: _resolve_table(database, d.relation)
                for d in statement.ranges
            }
            for assignment in statement.assignments:
                if isinstance(assignment.value, ColumnRef):
                    reference = assignment.value
                    if reference.variable not in declared:
                        raise QuelSemanticError(
                            f"assignment value {reference} references an "
                            f"undeclared range variable "
                            f"(declared: {', '.join(declared)})"
                        )
                    if reference.attribute not in declared[reference.variable].schema:
                        raise QuelSemanticError(
                            f"assignment value {reference} names an unknown "
                            f"attribute"
                        )
                    self.columns.append((
                        assignment.attribute,
                        f"{reference.variable}__{reference.attribute}",
                        None,
                    ))
                else:
                    resolver = _resolver(assignment.value)
                    self.columns.append((assignment.attribute, None, resolver))
                    if isinstance(assignment.value, Parameter):
                        parameters.append(assignment.value.name)
            self.analyzed = analyze(
                RetrieveStatement(statement.ranges, tuple(targets), statement.where),
                database,
            )
            parameters.extend(
                n for n in self.analyzed.parameters if n not in parameters
            )
        else:
            if statement.where is not None:
                raise QuelSemanticError(
                    "append without range variables cannot have a where clause"
                )
            for assignment in statement.assignments:
                if isinstance(assignment.value, ColumnRef):
                    raise QuelSemanticError(
                        f"assignment value {assignment.value} references a "
                        f"range variable, but no ranges are declared"
                    )
                resolver = _resolver(assignment.value)
                self.columns.append((assignment.attribute, None, resolver))
                if isinstance(assignment.value, Parameter):
                    parameters.append(assignment.value.name)
        self.parameters = tuple(dict.fromkeys(parameters))

    def _row_builder(self, params: Mapping[str, Any]) -> Callable[[XTuple], XTuple]:
        """Map one source binding row to the row to append."""
        columns = self.columns

        def build(source: Optional[XTuple]) -> XTuple:
            values = {}
            for attribute, label, resolver in columns:
                value = source[label] if label is not None else resolver(source, params)
                if not is_ni(value):
                    values[attribute] = value
            return XTuple(values)

        return build

    def execute(self, params: Mapping[str, Any]) -> ResultSet:
        if self.analyzed is None:
            sink = AppendSink(
                self.database, self.table,
                literal_rows=[self._row_builder(params)(None)],
            )
        else:
            query = self.analyzed.bind(params)
            source = Plan(query, self.database).compile()
            sink = AppendSink(
                self.database, self.table, source,
                row_builder=self._row_builder(params),
            )
        count = sink.run()
        return ResultSet(
            rows_affected=count, steps=[self.describe(params)], tree=sink
        )

    def describe(self, params: Optional[Mapping[str, Any]] = None) -> str:
        source = "from query ranges" if self.statement.ranges else "one literal row"
        return (
            f"append to {self.table.name} ({source}) "
            f"via atomic insert_many (constraints checked up front)"
        )


class _CompiledReplace(CompiledStatement):
    """``replace v (…) [where …]`` → delete-then-insert, all-or-nothing.

    Section 7: "a modification can be viewed as a deletion followed by an
    addition".  The (4.8) closure of the matching rows goes out and the
    checked replacements come in as one delta, and foreign keys are
    re-checked against the *post* state — a violation there is undone by
    the inverse delta, any earlier failure touched nothing.
    """

    def __init__(self, database, statement: ReplaceStatement):
        self.database = database
        self.statement = statement
        declared = {d.variable: d for d in statement.ranges}
        if statement.variable not in declared:
            raise QuelSemanticError(
                f"replace target {statement.variable!r} is not a declared "
                f"range variable (declared: {', '.join(declared) or 'none'})"
            )
        self.table = _resolve_table(database, declared[statement.variable].relation)
        _check_assignments(self.table, statement.assignments)
        self.assignments: List[Tuple[str, Callable]] = []
        parameters: List[str] = []
        for assignment in statement.assignments:
            resolver = _resolver(
                assignment.value,
                schema=self.table.schema,
                variable=statement.variable,
            )
            self.assignments.append((assignment.attribute, resolver))
            if isinstance(assignment.value, Parameter):
                parameters.append(assignment.value.name)
        self.analyzed = _matching_rows_query(
            database, statement.ranges, statement.variable,
            statement.where, self.table.schema.attributes,
        )
        parameters.extend(n for n in self.analyzed.parameters if n not in parameters)
        self.parameters = tuple(dict.fromkeys(parameters))

    def execute(self, params: Mapping[str, Any]) -> ResultSet:
        query = self.analyzed.bind(params)
        source = Plan(query, self.database).compile()
        assignments = self.assignments

        def build(old: XTuple) -> XTuple:
            values = dict(old.items())
            for attribute, resolver in assignments:
                value = resolver(old, params)
                if is_ni(value):
                    values.pop(attribute, None)
                else:
                    values[attribute] = value
            return XTuple(values)

        sink = ReplaceSink(self.database, self.table, source, build)
        count = sink.run()
        return ResultSet(
            rows_affected=count, steps=[self.describe(params)], tree=sink
        )

    def describe(self, params: Optional[Mapping[str, Any]] = None) -> str:
        where = f" where {self.statement.where}" if self.statement.where else ""
        return (
            f"replace in {self.table.name}{where} via delete_many + "
            f"insert_many (deletion followed by addition, post-state FK check)"
        )
