"""Query evaluation: the certain-answer lower bound ``||Q||_*`` (Section 5).

The paper adopts a calculus-flavoured query shape (it uses QUEL as the
concrete syntax): a query has *range variables* bound to relations, a
*target list* of ``variable.attribute`` terms, and a *where* clause built
from relational expressions ``t.A θ m.B`` / ``t.A θ k`` with AND/OR/NOT.
Evaluation of the lower bound is tuple-at-a-time:

1. form all combinations of rows for the range variables (the Cartesian
   product of the ranges);
2. evaluate the where clause in the three-valued logic of Table III —
   any comparison touching a null yields ``ni``;
3. keep a combination only when the clause evaluates to **TRUE**, and emit
   the target-list values.

This module defines the predicate AST (:class:`Comparison`, :class:`And`,
:class:`Or`, :class:`Not`, plus constants), the :class:`Query` object, and
:func:`evaluate_lower_bound`.  The QUEL front end (:mod:`repro.quel`)
parses concrete syntax into these objects; the possible-worlds evaluator
(:mod:`repro.worlds`) reuses the same AST to compute certain/possible
answers by completion enumeration, which is how we validate that the
lower-bound strategy is sound (and show what it misses under the
"unknown" interpretation — ``tests/test_paper_examples.py::TestE4FigureOne``).
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import QuelSemanticError
from .relation import Relation, RelationSchema
from .threevalued import FALSE, NI_TRUTH, TRUE, TruthValue, compare, truth_of
from .tuples import XTuple
from .xrelation import XRelation


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """A term of a relational expression: an attribute reference or a constant."""

    def value(self, binding: Mapping[str, XTuple]) -> Any:
        raise NotImplementedError

    def references(self) -> Tuple[str, ...]:
        """The range variables this term mentions."""
        return ()


class AttributeRef(Term):
    """``variable.attribute`` — e.g. ``e.TEL#`` in the paper's Figure 1."""

    __slots__ = ("variable", "attribute")

    def __init__(self, variable: str, attribute: str):
        self.variable = variable
        self.attribute = attribute

    def value(self, binding: Mapping[str, XTuple]) -> Any:
        try:
            row = binding[self.variable]
        except KeyError:
            raise QuelSemanticError(f"unbound range variable {self.variable!r}") from None
        return row[self.attribute]

    def references(self) -> Tuple[str, ...]:
        return (self.variable,)

    def __repr__(self) -> str:
        return f"{self.variable}.{self.attribute}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AttributeRef)
            and other.variable == self.variable
            and other.attribute == self.attribute
        )

    def __hash__(self) -> int:
        return hash((self.variable, self.attribute))


class Constant(Term):
    """A literal constant appearing in a query."""

    __slots__ = ("literal",)

    def __init__(self, literal: Any):
        self.literal = literal

    def value(self, binding: Mapping[str, XTuple]) -> Any:
        return self.literal

    def __repr__(self) -> str:
        return repr(self.literal)

    def __eq__(self, other) -> bool:
        return isinstance(other, Constant) and other.literal == self.literal

    def __hash__(self) -> int:
        return hash(("Constant", self.literal))


class Parameter(Term):
    """A named ``$parameter`` placeholder awaiting a per-execution value.

    Prepared statements analyse and plan a query *template* once;
    :func:`substitute_parameters` turns the template into an executable
    query by replacing each placeholder with a :class:`Constant`.
    Evaluating an unbound placeholder is an error.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def value(self, binding: Mapping[str, XTuple]) -> Any:
        raise QuelSemanticError(
            f"unbound parameter ${self.name}; supply params={{...}} at execution"
        )

    def __repr__(self) -> str:
        return f"${self.name}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Parameter) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Parameter", self.name))


# ---------------------------------------------------------------------------
# Predicates (the where clause)
# ---------------------------------------------------------------------------

class Predicate:
    """Base class of where-clause nodes, evaluated in three-valued logic."""

    def evaluate(self, binding: Mapping[str, XTuple]) -> TruthValue:
        raise NotImplementedError

    def comparisons(self) -> List["Comparison"]:
        """All comparison leaves (used by the tautology analyser)."""
        return []

    def references(self) -> Tuple[str, ...]:
        return ()

    # Composition helpers so predicates read naturally at call sites.
    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


class Comparison(Predicate):
    """A relational expression ``left θ right`` (Section 5)."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: Union[Term, Any], op: str, right: Union[Term, Any]):
        self.left = left if isinstance(left, Term) else Constant(left)
        self.op = op
        self.right = right if isinstance(right, Term) else Constant(right)

    def evaluate(self, binding: Mapping[str, XTuple]) -> TruthValue:
        return compare(self.left.value(binding), self.op, self.right.value(binding))

    def comparisons(self) -> List["Comparison"]:
        return [self]

    def references(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.left.references() + self.right.references()))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Predicate):
    """Conjunction, per the Table III AND table."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Predicate):
        self.operands = tuple(operands)

    def evaluate(self, binding: Mapping[str, XTuple]) -> TruthValue:
        result = TRUE
        for operand in self.operands:
            result = result & operand.evaluate(binding)
            if result.is_false():
                return FALSE
        return result

    def comparisons(self) -> List[Comparison]:
        return [c for operand in self.operands for c in operand.comparisons()]

    def references(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for operand in self.operands:
            for v in operand.references():
                seen[v] = None
        return tuple(seen)

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(repr(o) for o in self.operands) + ")"


class Or(Predicate):
    """Disjunction, per the Table III OR table."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Predicate):
        self.operands = tuple(operands)

    def evaluate(self, binding: Mapping[str, XTuple]) -> TruthValue:
        result = FALSE
        for operand in self.operands:
            result = result | operand.evaluate(binding)
            if result.is_true():
                return TRUE
        return result

    def comparisons(self) -> List[Comparison]:
        return [c for operand in self.operands for c in operand.comparisons()]

    def references(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for operand in self.operands:
            for v in operand.references():
                seen[v] = None
        return tuple(seen)

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(repr(o) for o in self.operands) + ")"


class Not(Predicate):
    """Negation; fixes ``ni`` (Table III)."""

    __slots__ = ("operand",)

    def __init__(self, operand: Predicate):
        self.operand = operand

    def evaluate(self, binding: Mapping[str, XTuple]) -> TruthValue:
        return self.operand.evaluate(binding).not_()

    def comparisons(self) -> List[Comparison]:
        return self.operand.comparisons()

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __repr__(self) -> str:
        return f"¬{self.operand!r}"


class TruthConstant(Predicate):
    """A constant truth value (useful for degenerate queries and tests)."""

    __slots__ = ("truth",)

    def __init__(self, truth: TruthValue):
        self.truth = truth

    def evaluate(self, binding: Mapping[str, XTuple]) -> TruthValue:
        return self.truth

    def __repr__(self) -> str:
        return repr(self.truth)


ALWAYS_TRUE = TruthConstant(TRUE)
ALWAYS_FALSE = TruthConstant(FALSE)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

class Query:
    """A calculus-style query: ranges, target list, where clause.

    Parameters
    ----------
    ranges:
        Mapping from range-variable name to the relation it ranges over
        (a :class:`Relation` or :class:`XRelation`).
    target:
        The projection list, as ``(output_name, AttributeRef)`` pairs or
        bare :class:`AttributeRef` objects (output name defaults to
        ``variable_attribute``).
    where:
        The qualification predicate; defaults to always-TRUE.
    name:
        Optional label, used as the result relation's name.
    """

    def __init__(
        self,
        ranges: Mapping[str, Union[Relation, XRelation]],
        target: Sequence[Union[AttributeRef, Tuple[str, AttributeRef]]],
        where: Optional[Predicate] = None,
        name: str = "Q",
    ):
        if not ranges:
            raise QuelSemanticError("a query needs at least one range variable")
        self.name = name
        self.ranges: Dict[str, Relation] = {}
        for variable, relation in ranges.items():
            rep = relation.representation if isinstance(relation, XRelation) else relation
            self.ranges[variable] = rep
        self.target: List[Tuple[str, AttributeRef]] = []
        for item in target:
            if isinstance(item, AttributeRef):
                self.target.append((f"{item.variable}_{item.attribute}", item))
            else:
                output_name, ref = item
                self.target.append((output_name, ref))
        if not self.target:
            raise QuelSemanticError("a query needs a non-empty target list")
        self.where: Predicate = where if where is not None else ALWAYS_TRUE
        self._validate()

    def _validate(self) -> None:
        seen_outputs: Dict[str, None] = {}
        for output_name, _ in self.target:
            if output_name in seen_outputs:
                raise QuelSemanticError(
                    f"duplicate output column {output_name!r} in the target list; "
                    f"give each target a distinct name"
                )
            seen_outputs[output_name] = None
        for _, ref in self.target:
            if ref.variable not in self.ranges:
                raise QuelSemanticError(
                    f"target references unknown range variable {ref.variable!r}"
                )
            if ref.attribute not in self.ranges[ref.variable].schema:
                raise QuelSemanticError(
                    f"target references unknown attribute "
                    f"{ref.variable}.{ref.attribute}"
                )
        for comparison in self.where.comparisons():
            for term in (comparison.left, comparison.right):
                if isinstance(term, AttributeRef):
                    if term.variable not in self.ranges:
                        raise QuelSemanticError(
                            f"where clause references unknown range variable {term.variable!r}"
                        )
                    if term.attribute not in self.ranges[term.variable].schema:
                        raise QuelSemanticError(
                            f"where clause references unknown attribute "
                            f"{term.variable}.{term.attribute}"
                        )

    # -- result schema -------------------------------------------------------
    def output_attributes(self) -> Tuple[str, ...]:
        return tuple(output_name for output_name, _ in self.target)

    def output_schema(self) -> RelationSchema:
        return RelationSchema(self.output_attributes(), name=self.name)

    # -- binding enumeration -----------------------------------------------------
    def bindings(self) -> Iterable[Dict[str, XTuple]]:
        """All combinations of rows for the range variables.

        Rows that are the *null tuple* are skipped: a tuple binding no
        attribute carries no information, Definition 4.6 drops it from
        every minimal representation, and the paper uses a relation and
        its minimal form interchangeably — so a binding drawn from it
        must not contribute to any answer.  Skipping it here makes the
        tuple-at-a-time evaluations representation-invariant: evaluating
        over ``R`` and over ``min(R)`` yields information-wise equal
        answers, which is exactly the planner's differential contract.
        """
        variables = list(self.ranges)
        row_lists = [
            [t for t in self.ranges[v].tuples() if not t.is_null_tuple()]
            for v in variables
        ]
        for combo in iter_product(*row_lists):
            yield dict(zip(variables, combo))

    def __repr__(self) -> str:
        return (
            f"Query({self.name!r}, ranges={list(self.ranges)}, "
            f"target={[n for n, _ in self.target]}, where={self.where!r})"
        )


def evaluate_lower_bound(query: Query, minimize: bool = True) -> XRelation:
    """Compute the certain-answer lower bound ``||Q||_*`` of Section 5.

    A binding contributes to the answer exactly when the where clause
    evaluates to TRUE; bindings evaluating to FALSE or ``ni`` are
    discarded.  Output rows may contain nulls if the target list projects
    attributes on which a qualifying row is null (that is permitted: the
    paper's answers are themselves relations with nulls).
    """
    out = Relation(query.output_schema(), validate=False)
    for binding in query.bindings():
        if query.where.evaluate(binding).is_true():
            out.add(XTuple(
                (output_name, ref.value(binding))
                for output_name, ref in query.target
            ))
    result = XRelation(out)
    return result if minimize else XRelation(out)


def collect_parameters(predicate: Optional[Predicate]) -> Tuple[str, ...]:
    """The distinct parameter names a predicate mentions, in first-use order."""
    if predicate is None:
        return ()
    seen: Dict[str, None] = {}
    for comparison in predicate.comparisons():
        for term in (comparison.left, comparison.right):
            if isinstance(term, Parameter):
                seen[term.name] = None
    return tuple(seen)


def substitute_parameters(
    predicate: Predicate, params: Mapping[str, Any]
) -> Predicate:
    """A copy of *predicate* with every :class:`Parameter` bound to a constant.

    Nodes containing no placeholders are shared, not copied, so repeated
    substitution of a mostly-parameter-free template is cheap.  A
    placeholder missing from *params* raises :class:`QuelSemanticError`.
    """
    if isinstance(predicate, Comparison):
        left, right = predicate.left, predicate.right
        bound_left = _bind_term(left, params)
        bound_right = _bind_term(right, params)
        if bound_left is left and bound_right is right:
            return predicate
        return Comparison(bound_left, predicate.op, bound_right)
    if isinstance(predicate, And):
        operands = [substitute_parameters(o, params) for o in predicate.operands]
        if all(n is o for n, o in zip(operands, predicate.operands)):
            return predicate
        return And(*operands)
    if isinstance(predicate, Or):
        operands = [substitute_parameters(o, params) for o in predicate.operands]
        if all(n is o for n, o in zip(operands, predicate.operands)):
            return predicate
        return Or(*operands)
    if isinstance(predicate, Not):
        operand = substitute_parameters(predicate.operand, params)
        return predicate if operand is predicate.operand else Not(operand)
    return predicate


def bind_parameter(params: Mapping[str, Any], name: str) -> Any:
    """The value bound to ``$name``, or a uniform missing-value error.

    The one lookup-or-raise implementation shared by predicate
    substitution and the session's compiled assignment/probe resolvers,
    so the binding semantics (and the error message) cannot drift.
    """
    if name not in params:
        raise QuelSemanticError(
            f"missing value for parameter ${name} "
            f"(supplied: {sorted(params) if params else 'none'})"
        )
    return params[name]


def _bind_term(term: Term, params: Mapping[str, Any]) -> Term:
    if isinstance(term, Parameter):
        return Constant(bind_parameter(params, term.name))
    return term


def evaluate_truth_partition(query: Query) -> Dict[str, List[Dict[str, XTuple]]]:
    """Partition the bindings of a query by the truth value of its where clause.

    Returns ``{"TRUE": [...], "FALSE": [...], "ni": [...]}``.  Used by the
    Codd-comparison experiments: the TRUE bucket is the lower bound, the
    ``ni`` bucket is what Codd's MAYBE-query would add.
    """
    buckets: Dict[str, List[Dict[str, XTuple]]] = {"TRUE": [], "FALSE": [], "ni": []}
    for binding in query.bindings():
        truth = query.where.evaluate(binding)
        buckets[truth.name].append(binding)
    return buckets
