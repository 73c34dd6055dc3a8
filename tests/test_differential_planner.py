"""Differential fuzz harness: the algebraic planner against the Section 5 oracle.

The planner (:mod:`repro.quel.planner`) claims that whatever strategy it
picks — selection pushdown, composite-key hash equi-joins, Cartesian
products, residual selections — the answer is information-wise identical
to the definitional tuple-at-a-time evaluation
:func:`repro.core.query.evaluate_lower_bound`.  This harness generates
random QUEL-level queries (random ranges, conjuncts, disjunctions,
negations, and multi-attribute equality links between ranges) over random
relations with nulls, and asserts ``Plan.execute() ≡ oracle`` on every
one.  Every new planner fast path must keep this green — it is the
information-wise-equivalence oracle the bulk-mutation PR pairs with its
composite-join fast path.

All tests run derandomized (seeded) so CI failures reproduce exactly.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.core.errors import AlgebraError, QuelSemanticError
from repro.core.nulls import NI
from repro.core.query import (
    And,
    AttributeRef,
    Comparison,
    Not,
    Or,
    Query,
    evaluate_lower_bound,
)
from repro.core.relation import Relation
from repro.core.tuples import XTuple
from repro.quel.evaluator import run_query
from repro.quel.planner import Plan
from repro.storage.database import Database

ATTRIBUTES = ("A", "B", "C")
OPS = ("=", "!=", "<", "<=", ">", ">=")
#: Small domain so equalities actually hit; None becomes a null cell.
VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=3))


@st.composite
def relations(draw, name: str) -> Relation:
    rows = draw(st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=8))
    relation = Relation(ATTRIBUTES, name=name, validate=False)
    for values in rows:
        relation.add(XTuple(
            {a: v for a, v in zip(ATTRIBUTES, values) if v is not None}
        ))
    return relation


@st.composite
def comparisons(draw, variables):
    """One random conjunct: constant filter, var-var equality, or var-var θ."""
    kind = draw(st.sampled_from(
        # Equality links are over-weighted: they are what the composite-key
        # join fusion consumes, so they deserve the deepest coverage.
        ["var-const", "var-var-eq", "var-var-eq", "var-var-cmp"]
    ))
    left = AttributeRef(draw(st.sampled_from(variables)), draw(st.sampled_from(ATTRIBUTES)))
    if kind == "var-const":
        op = draw(st.sampled_from(OPS))
        constant = draw(st.integers(min_value=0, max_value=3))
        if draw(st.booleans()):
            return Comparison(left, op, constant)
        return Comparison(constant, op, left)
    right = AttributeRef(draw(st.sampled_from(variables)), draw(st.sampled_from(ATTRIBUTES)))
    op = "=" if kind == "var-var-eq" else draw(st.sampled_from(OPS))
    return Comparison(left, op, right)


@st.composite
def predicates(draw, variables):
    conjuncts = draw(st.lists(comparisons(variables), min_size=1, max_size=4))
    shape = draw(st.sampled_from(["and", "and", "or", "not"]))
    if shape == "or":
        return Or(*conjuncts)
    if shape == "not":
        return Not(conjuncts[0]) if len(conjuncts) == 1 else And(Not(conjuncts[0]), *conjuncts[1:])
    return conjuncts[0] if len(conjuncts) == 1 else And(*conjuncts)


@st.composite
def queries(draw) -> Query:
    base = {
        "R1": draw(relations("R1")),
        "R2": draw(relations("R2")),
    }
    count = draw(st.integers(min_value=1, max_value=3))
    variables = [f"v{i}" for i in range(count)]
    ranges = {
        variable: base[draw(st.sampled_from(("R1", "R2")))]
        for variable in variables
    }
    width = draw(st.integers(min_value=1, max_value=2))
    target = [
        (
            f"out{i}",
            AttributeRef(
                draw(st.sampled_from(variables)),
                draw(st.sampled_from(ATTRIBUTES)),
            ),
        )
        for i in range(width)
    ]
    where = draw(st.one_of(st.none(), predicates(variables)))
    return Query(ranges, target, where, name="fuzz")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(queries())
def test_plan_execute_matches_lower_bound_oracle(query):
    """``Plan.execute()`` ≡ ``evaluate_lower_bound`` on arbitrary queries.

    XRelation equality is information-wise equality of the minimal
    representations (Proposition 4.1), exactly the planner's contract.
    """
    assert Plan(query).execute() == evaluate_lower_bound(query)


def test_null_constant_comparison_selects_nothing_like_the_oracle():
    """A pushed comparison against a null constant is ni for every row —
    the cost-based plan must answer empty exactly as the oracle does,
    not crash in ``select_constant`` (which rightly refuses null
    constants at the algebra level)."""
    from repro.core.query import Constant

    relation = Relation(ATTRIBUTES, name="R1", validate=False)
    relation.add(XTuple({"A": 1, "B": 2}))
    for op in OPS:
        query = Query(
            {"v0": relation},
            [("out0", AttributeRef("v0", "A"))],
            Comparison(AttributeRef("v0", "A"), op, Constant(None)),
            name="nullconst",
        )
        oracle = evaluate_lower_bound(query)
        assert len(oracle) == 0
        assert Plan(query).execute() == oracle


def test_null_tuple_ranges_contribute_nothing_in_both_evaluations():
    """Regression: a range row binding no attribute (the null tuple) is
    information-free — Definition 4.6 drops it from every minimal form,
    so neither the tuple-at-a-time oracle nor the plan may let it bind.
    Before ``Query.bindings()`` skipped it, the oracle was
    representation-sensitive and diverged from the planner here."""
    v0 = Relation(ATTRIBUTES, name="R1", validate=False)
    v0.add(XTuple({"A": 1}))
    v1 = Relation(ATTRIBUTES, name="R2", validate=False)
    v1.add(XTuple({}))
    query = Query(
        {"v0": v0, "v1": v1}, [("out0", AttributeRef("v0", "A"))], None, name="null"
    )
    oracle = evaluate_lower_bound(query)
    assert len(oracle) == 0
    assert Plan(query).execute() == oracle
    # A real row alongside the null tuple contributes exactly itself.
    v1.add(XTuple({"B": 2}))
    oracle = evaluate_lower_bound(query)
    assert len(oracle) == 1
    assert Plan(query).execute() == oracle


@settings(max_examples=120, deadline=None, derandomize=True)
@given(queries())
def test_plan_explain_never_leaks_fused_equalities(query):
    """Every equality conjunct is either fused into a join or kept residual —
    and the plan still agrees with the oracle when re-executed (steps are
    rebuilt per execution, so explain() reflects the run that produced the
    answer)."""
    plan = Plan(query)
    answer = plan.execute()
    explanation = plan.explain()
    assert len(explanation.splitlines()) == len(plan.steps)
    assert answer == evaluate_lower_bound(query)


# ---------------------------------------------------------------------------
# The same differential property through the full QUEL front end
# ---------------------------------------------------------------------------

@st.composite
def quel_texts(draw, parameters: bool = False):
    """Random QUEL source with conjuncts and multi-attribute equality links.

    With *parameters* the text is a prepared-statement template: any
    constant may be a ``$pN`` placeholder, a constant comparison may read
    constant-first (``$p0 < v0.A``), and a clause may be a disjunction,
    so placeholders land in pushed, index-served, flipped and residual
    positions alike."""
    names = []

    def constant() -> str:
        if parameters and draw(st.integers(0, 2)):
            names.append(f"p{len(names)}")
            return f"${names[-1]}"
        return str(draw(st.integers(0, 3)))

    def column() -> str:
        return f"{draw(st.sampled_from(variables))}.{draw(st.sampled_from(ATTRIBUTES))}"

    count = draw(st.integers(min_value=1, max_value=3))
    variables = [f"v{i}" for i in range(count)]
    lines = [
        f"range of {variable} is {draw(st.sampled_from(('R1', 'R2')))}"
        for variable in variables
    ]
    width = draw(st.integers(min_value=1, max_value=2))
    outputs = ", ".join(
        f"{draw(st.sampled_from(variables))}.{draw(st.sampled_from(ATTRIBUTES))}"
        for _ in range(width)
    )
    lines.append(f"retrieve ({outputs})")
    clauses = []
    kinds = ["const", "eq", "eq", "cmp"] + (["const", "or", "or"] if parameters else [])
    for _ in range(draw(st.integers(min_value=int(parameters), max_value=3))):
        kind = draw(st.sampled_from(kinds))
        left = column()
        if kind == "const":
            # Templates favour equality: it is what an index serves.
            op = draw(st.sampled_from(OPS + ("=", "=") * parameters))
            if parameters and draw(st.booleans()):
                clauses.append(f"{constant()} {op} {left}")
            else:
                clauses.append(f"{left} {op} {constant()}")
        elif kind == "or":
            clauses.append(
                f"({left} {draw(st.sampled_from(OPS))} {constant()} "
                f"or {column()} {draw(st.sampled_from(OPS))} {column()})"
            )
        else:
            op = "=" if kind == "eq" else draw(st.sampled_from(OPS))
            clauses.append(f"{left} {op} {column()}")
    if clauses:
        lines.append("where " + " and ".join(clauses))
    return "\n".join(lines)


@st.composite
def databases(draw) -> Database:
    database = Database("fuzz")
    for name in ("R1", "R2"):
        table = database.create_table(name, ATTRIBUTES)
        table.load(draw(relations(name)).tuples())
    return database


@settings(max_examples=60, deadline=None, derandomize=True)
@given(databases(), quel_texts())
def test_quel_strategies_agree(database, text):
    """parse → analyse → (algebra plan ≡ tuple oracle), end to end."""
    tuple_answer = run_query(text, database, strategy="tuple").answer
    algebra_answer = run_query(text, database, strategy="algebra").answer
    assert tuple_answer == algebra_answer


INDEX_CHOICES = (("A",), ("B",), ("A", "B"), ("B", "C"), ("C", "A", "B"))


@st.composite
def indexed_databases(draw) -> Database:
    """Databases carrying persistent hash indexes the optimizer may probe."""
    database = Database("fuzz-indexed")
    for name in ("R1", "R2"):
        table = database.create_table(name, ATTRIBUTES)
        table.load(draw(relations(name)).tuples())
        for attributes in draw(
            st.lists(st.sampled_from(INDEX_CHOICES), max_size=3, unique=True)
        ):
            table.create_index(attributes)
    return database


@settings(max_examples=60, deadline=None, derandomize=True)
@given(indexed_databases(), quel_texts())
def test_index_backed_plans_agree_with_oracle(database, text):
    """With persistent indexes present the optimizer may emit
    index-nested-loop joins that probe stored (unreduced) rows; the
    answer must stay information-wise identical to the oracle.  (The
    strategy also draws index-less databases, so the hash-join form of
    the same plans is covered too.)"""
    try:
        tuple_answer = run_query(text, database, strategy="tuple").answer
    except QuelSemanticError:
        # e.g. a duplicate output column — rejected before any strategy runs
        assume(False)
    assert run_query(text, database, strategy="algebra").answer == tuple_answer


# ---------------------------------------------------------------------------
# The operator tree ≡ tuple oracle: block sizes and ANALYZE states
# ---------------------------------------------------------------------------

def compile_text(text, database):
    from repro.quel.evaluator import compile_query

    return compile_query(text, database).query


@settings(max_examples=60, deadline=None, derandomize=True)
@given(indexed_databases(), quel_texts(), st.booleans(), st.sampled_from((2, 7, 256)))
def test_operator_tree_matches_oracle(database, text, analyzed, block_size):
    """The compiled operator tree must stay information-wise identical
    to the tuple oracle over random schemas, persistent indexes, ANALYZE
    states and block sizes (tiny blocks force every operator across
    block boundaries)."""
    if analyzed:
        database.analyze()
    try:
        tuple_answer = run_query(text, database, strategy="tuple").answer
    except QuelSemanticError:
        assume(False)
    query = compile_text(text, database)
    assert Plan(query, database, block_size=block_size).execute() == tuple_answer


@st.composite
def total_databases(draw) -> Database:
    """Indexed databases whose rows carry no nulls: there no streamed
    row is dominated, so the measured counts are exact — the projection
    emits the answer, row for row."""
    database = Database("fuzz-total")
    values = st.integers(min_value=0, max_value=3)
    for name in ("R1", "R2"):
        table = database.create_table(name, ATTRIBUTES)
        rows = draw(st.lists(st.tuples(values, values, values), max_size=8))
        table.load(rows)
        for attributes in draw(
            st.lists(st.sampled_from(INDEX_CHOICES), max_size=2, unique=True)
        ):
            table.create_index(attributes)
    return database


@settings(max_examples=60, deadline=None, derandomize=True)
@given(total_databases(), quel_texts())
def test_step_counts_match_tree_actuals_and_oracle_on_total_rows(database, text):
    """On null-free data the final project step's ``rows=`` is the
    oracle answer's size, and every step's ``rows=`` is its node's
    ``actual rows=`` in ``explain(analyze=True)`` — which is exactly
    what makes the step trace a trustworthy audit of the cost
    annotations."""
    try:
        query = compile_text(text, database)
    except QuelSemanticError:
        assume(False)
    pipeline = Plan(query, database).compile()
    answer = pipeline.run()
    steps = pipeline.step_lines()
    oracle = evaluate_lower_bound(query)
    assert answer == oracle
    assert steps[-1].endswith(f"[rows={len(oracle)}]")
    tree = pipeline.explain(analyze=True).splitlines()
    assert len(steps) == len(pipeline.trace)
    for step, line in zip(pipeline.trace, steps):
        node = step.node
        if node is None:
            continue  # a rename step: no operator of its own
        if not node.started:
            # An empty join side short-circuited the subtree above this
            # operator: text and estimate stand, the measurement is absent.
            assert line.endswith("rows=?]")
            continue
        assert line.endswith(f"rows={node.actual_rows}]")
        assert any(
            entry.strip().startswith(node.label)
            and f"actual rows={node.actual_rows} " in entry
            for entry in tree
        )


# ---------------------------------------------------------------------------
# Optimizer v2: the semantic result cache never changes answers (DP
# enumeration is what every plan above already ran; the greedy fallback is
# pinned in tests/test_planner_explain.py)
# ---------------------------------------------------------------------------

@st.composite
def interleaved_mutations(draw):
    """A short program of DML statements and DDL/ANALYZE calls."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(
            ["append", "append", "delete", "replace", "analyze", "index"]
        ))
        table = draw(st.sampled_from(("R1", "R2")))
        attribute = draw(st.sampled_from(ATTRIBUTES))
        value = draw(st.integers(min_value=0, max_value=3))
        if kind == "append":
            a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
            ops.append(("quel", f"append to {table} (A = {a}, B = {b}, C = {c})"))
        elif kind == "delete":
            ops.append((
                "quel",
                f"range of m is {table} delete m where m.{attribute} = {value}",
            ))
        elif kind == "replace":
            ops.append((
                "quel",
                f"range of m is {table} replace m ({attribute} = {value}) "
                f"where m.{attribute} != {value}",
            ))
        elif kind == "analyze":
            ops.append(("analyze",))
        else:
            ops.append(("index", table, draw(st.sampled_from(INDEX_CHOICES))))
    return ops


@settings(max_examples=30, deadline=None, derandomize=True)
@given(indexed_databases(), quel_texts(), interleaved_mutations())
def test_cache_enabled_session_never_serves_stale_answers(
    database, text, mutations
):
    """The stale-hit property: under arbitrary DML / index-DDL / ANALYZE
    interleavings, a cache-enabled session's answer equals a fresh
    oracle evaluation of the *current* table states at every step — a
    repeat (the likely cache hit) included."""
    from repro.api.session import Session

    session = Session(database)
    def check():
        try:
            expected = run_query(text, database, strategy="tuple").answer
        except QuelSemanticError:
            assume(False)
        assert session.execute(text).to_relation() == expected
        assert session.execute(text).to_relation() == expected

    check()
    for op in mutations:
        if op[0] == "quel":
            session.execute(op[1])
        elif op[0] == "analyze":
            database.analyze()
        else:
            _, name, attributes = op
            table = database.catalog.table(name)
            existing = set(map(tuple, table.index_specs().values()))
            if tuple(attributes) not in existing:
                table.create_index(attributes)
        check()


# ---------------------------------------------------------------------------
# Plan once, bind per execution: a template plan ≡ a plan of the bound query
# ---------------------------------------------------------------------------

#: Values bound to placeholders: in-domain integers, both null spellings,
#: and a value of the wrong type for every column.
BINDINGS = st.sampled_from((0, 1, 2, 3, None, NI, "x"))


def _outcome(run):
    """The answer of *run*, or the error class an ill-typed order
    comparison raises (which rows reach that comparison, and so whether
    it raises, depends on the evaluation order)."""
    try:
        return run()
    except AlgebraError:
        return AlgebraError


def _shape(ops):
    return [(op.kind, op.variable, op.index_name) for op in ops]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(indexed_databases(), quel_texts(parameters=True), st.data())
def test_template_plan_binds_like_a_plan_of_the_bound_query(database, text, data):
    """A prepared statement plans its ``$name`` template once and binds
    per execution: ``Plan(template).compile(params)`` must run the plan a
    fresh ``Plan`` of the bound query would choose — same op kinds,
    variables and indexes in the same order, the same step lines with
    the bound constants in them — and answer what it and the tuple
    oracle answer."""
    from repro.quel.evaluator import compile_query

    if data.draw(st.booleans(), label="index A"):
        # An equality on A is then served by an index probe.
        for name in ("R1", "R2"):
            if database.table(name).find_index(["A"]) is None:
                database.table(name).create_index(["A"])
    try:
        analyzed = compile_query(text, database)
    except QuelSemanticError:
        assume(False)
    params = {name: data.draw(BINDINGS, label=name) for name in analyzed.parameters}
    bound = analyzed.bind(params)
    template = Plan(analyzed.query, database)
    fresh = Plan(bound, database)
    assert _shape(template.logical_plan()) == _shape(fresh.logical_plan())

    pipeline = template.compile(params)
    answer = _outcome(pipeline.run)
    assert answer == _outcome(fresh.execute)
    if answer is AlgebraError:
        return
    assert pipeline.step_lines() == fresh.steps
    oracle = _outcome(lambda: evaluate_lower_bound(bound))
    if oracle is not AlgebraError:
        assert answer == oracle
