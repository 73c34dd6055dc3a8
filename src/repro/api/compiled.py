"""Compiled statement executors: what a prepared statement caches.

:func:`compile_statement` turns a parsed QUEL statement into an object
with ``execute(params) -> ResultSet`` and ``describe(params) -> str``.
Compilation does all the per-statement work that does not depend on the
bound parameter values — lexing and parsing already happened in the
session, so this is name resolution, semantic analysis and planning
(one :class:`~repro.quel.planner.Plan` of the ``$name`` template: join
order, which persistent index a selection probes) — and execution does
only the per-call work: ``plan.compile(params)`` binds the values,
builds the operator tree, and the statement runs it.

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

from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import QuelSemanticError, StorageError
from ..core.nulls import is_ni
from ..core.query import bind_parameter
from ..core.tuples import XTuple
from ..core.xrelation import XRelation
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
        return _PlanRetrieve(database, analyze(statement, database))
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

def _template_plan(database, analyzed: AnalyzedQuery) -> Plan:
    """The statement's one plan: its ``$name`` template planned now, bound
    per execution by ``plan.compile(params)``."""
    plan = Plan(analyzed.query, database)
    plan.logical_plan()
    return plan


class _PlanRetrieve(CompiledStatement):
    """A retrieve: the analysed template's cost-based plan, bound and
    compiled per execution to a streaming operator tree the result set
    drains lazily."""

    def __init__(self, database, analyzed: AnalyzedQuery):
        self.database = database
        self.analyzed = analyzed
        self.parameters = analyzed.parameters
        self.into = analyzed.into
        self.plan = _template_plan(database, analyzed)
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
        pipeline = self.plan.compile(params)
        if self.into:
            # RETRIEVE INTO creates and loads a table: it must run now.
            answer = pipeline.run()
            rows_affected = _materialize_into(self.database, self.into, answer)
            steps = pipeline.step_lines() + [
                f"materialize {rows_affected} row(s) into new table {self.into}"
            ]
            return ResultSet(answer, rows_affected=rows_affected, steps=steps)
        return ResultSet(pipeline=pipeline)

    def describe(self, params: Optional[Mapping[str, Any]] = None) -> str:
        # Unbound placeholders are described with null stand-ins (an
        # equality against null qualifies nothing, so the trace still
        # shows the chosen strategy) — explain() never requires params.
        bound = dict(params or {})
        for name in self.parameters:
            bound.setdefault(name, None)
        pipeline = self.plan.compile(bound)
        pipeline.run()
        return "\n".join(pipeline.step_lines())


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
        self.plan = _template_plan(database, self.analyzed)

    def execute(self, params: Mapping[str, Any]) -> ResultSet:
        sink = DeleteSink(self.database, self.table, self.plan.compile(params))
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
        self.plan: Optional[Plan] = None
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
            self.plan = _template_plan(database, self.analyzed)
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
        if self.plan is None:
            sink = AppendSink(
                self.database, self.table,
                literal_rows=[self._row_builder(params)(None)],
            )
        else:
            sink = AppendSink(
                self.database, self.table, self.plan.compile(params),
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
        self.plan = _template_plan(database, self.analyzed)

    def execute(self, params: Mapping[str, Any]) -> ResultSet:
        source = self.plan.compile(params)
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
