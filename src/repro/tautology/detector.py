"""Tautology detection and "unknown"-interpretation query evaluation (Appendix).

Under the "unknown" interpretation the correct lower bound of a query must
include every set of tuples for which the where clause is true under
*every legal substitution* of the nulls — i.e. every set of tuples that
"defines a tautology" for the query.  The Appendix argues that deciding
this is expensive in three escalating ways:

1. even the propositional core is co-NP-hard;
2. inequalities force the system to "understand simple mathematics";
3. integrity constraints in the schema (an employee cannot manage
   himself) force it to reason about the constraints too — and constraints
   enforced by procedures can never be interpreted.

:class:`TautologyDetector` implements the three analysis layers the
Appendix sketches, in increasing cost and decreasing generality of the
conclusions they can reach on their own:

* **propositional** — abstract the clause (comparisons touching nulls
  become variables) and check propositional tautology with DPLL; sound
  but misses arithmetic tautologies;
* **interval** — exhaustive region analysis for nulls compared against
  constants; exact in its supported fragment;
* **brute force** — substitute every legal combination of domain values
  (restricted by the declared integrity constraints); exact but
  exponential, and only possible when the domains are finite and supplied.

:func:`evaluate_unknown_lower_bound` then uses the detector to compute the
correct certain answer under the unknown interpretation — the expensive
alternative to the paper's cheap ni evaluation (which simply never needs
any of this machinery).
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import TautologyError
from ..core.nulls import is_null
from ..core.query import AttributeRef, Comparison, Predicate, Query
from ..core.relation import Relation
from ..core.tuples import XTuple
from ..core.xrelation import XRelation
from .dpll import DPLLStatistics, is_tautology as dpll_is_tautology
from .intervals import IntervalAnalysis, analyse as interval_analyse
from .propositional import Abstraction, abstract_predicate, truth_table_tautology


#: A schema-level integrity constraint: a predicate over the same binding
#: shape as the query's where clause.  A substitution is *legal* only when
#: every constraint evaluates to TRUE on the substituted binding.
ConstraintPredicate = Callable[[Mapping[str, XTuple]], bool]


class DetectionResult:
    """The verdict of one tautology analysis."""

    def __init__(
        self,
        is_tautology: Optional[bool],
        method: str,
        cost: int,
        details: str = "",
    ):
        #: True / False when decided; None when the method could not decide.
        self.is_tautology = is_tautology
        #: Which layer produced the verdict: "ground", "propositional",
        #: "interval", "brute-force" or "undecided".
        self.method = method
        #: A method-specific work counter (assignments, regions, worlds...).
        self.cost = cost
        self.details = details

    def __repr__(self) -> str:
        return (
            f"DetectionResult({self.is_tautology}, method={self.method!r}, "
            f"cost={self.cost}, {self.details})"
        )


class TautologyDetector:
    """Decides whether a binding defines a tautology for a where clause.

    Parameters
    ----------
    domains:
        Mapping from attribute name to the finite sequence of legal values
        used by the brute-force layer.  Attributes without an entry make
        brute force unavailable for bindings whose nulls touch them.
    constraints:
        Schema integrity constraints restricting legal substitutions
        (brute-force layer only — exactly the Appendix's point that the
        symbolic layers would have to "understand" them).
    integer_attributes:
        Whether order comparisons range over integers (region sampling
        then avoids non-integral representatives).
    use_dpll:
        Use DPLL for the propositional layer (otherwise a truth table).
    """

    def __init__(
        self,
        domains: Optional[Mapping[str, Sequence[Any]]] = None,
        constraints: Sequence[ConstraintPredicate] = (),
        integer_attributes: bool = True,
        use_dpll: bool = True,
    ):
        self.domains = dict(domains or {})
        self.constraints = tuple(constraints)
        self.integer_attributes = integer_attributes
        self.use_dpll = use_dpll

    # -- the three analysis layers ------------------------------------------------
    def propositional_check(self, predicate: Predicate, binding: Mapping[str, XTuple]) -> DetectionResult:
        """Layer 1: propositional abstraction + DPLL (or truth table)."""
        abstraction = abstract_predicate(predicate, binding)
        variable_count = len(abstraction.atoms)
        if variable_count == 0:
            value = abstraction.formula.evaluate({})
            return DetectionResult(value, "ground", 1, "no null comparisons")
        if self.use_dpll:
            statistics = DPLLStatistics()
            verdict = dpll_is_tautology(abstraction.formula, statistics)
            cost = statistics.decisions + statistics.unit_propagations + 1
        else:
            verdict = truth_table_tautology(abstraction.formula)
            cost = 2 ** variable_count
        if verdict:
            return DetectionResult(True, "propositional", cost, f"{variable_count} atoms")
        # A propositional non-tautology is inconclusive: arithmetic or
        # constraints could still force the clause to be true.
        return DetectionResult(None, "propositional", cost, "not a propositional tautology")

    def interval_check(self, predicate: Predicate, binding: Mapping[str, XTuple]) -> DetectionResult:
        """Layer 2: exact region analysis for constant comparisons."""
        analysis = interval_analyse(predicate, binding, integer_attributes=self.integer_attributes)
        if not analysis.supported:
            return DetectionResult(None, "interval", analysis.regions_examined, analysis.reason)
        return DetectionResult(analysis.is_tautology, "interval", analysis.regions_examined, analysis.reason)

    def brute_force_check(
        self,
        predicate: Predicate,
        binding: Mapping[str, XTuple],
        max_substitutions: int = 250_000,
    ) -> DetectionResult:
        """Layer 3: substitute every legal combination of domain values."""
        sites: List[Tuple[str, str, str]] = []  # (variable, attribute, key)
        seen: Dict[str, None] = {}
        for comparison in predicate.comparisons():
            for term in (comparison.left, comparison.right):
                if isinstance(term, AttributeRef) and is_null(term.value(binding)):
                    key = f"{term.variable}.{term.attribute}"
                    if key not in seen:
                        seen[key] = None
                        sites.append((term.variable, term.attribute, key))
        if not sites:
            return DetectionResult(predicate.evaluate(binding).is_true(), "ground", 1, "no null sites")
        choices: List[Sequence[Any]] = []
        for variable, attribute, key in sites:
            if attribute not in self.domains:
                return DetectionResult(
                    None, "brute-force", 0, f"no finite domain declared for {attribute}"
                )
            choices.append(tuple(self.domains[attribute]))
        space = 1
        for values in choices:
            space *= max(1, len(values))
        if space > max_substitutions:
            raise TautologyError(
                f"brute-force substitution space of {space} exceeds the cap of {max_substitutions}"
            )
        examined = 0
        legal_seen = False
        for assignment in iter_product(*choices):
            substituted = self._substitute(binding, sites, assignment)
            if not all(constraint(substituted) for constraint in self.constraints):
                continue
            legal_seen = True
            examined += 1
            if not predicate.evaluate(substituted).is_true():
                return DetectionResult(False, "brute-force", examined, "counterexample substitution")
        if not legal_seen:
            # No legal substitution at all: vacuously a tautology, though it
            # really signals over-constrained data; report it explicitly.
            return DetectionResult(True, "brute-force", examined, "no legal substitutions (vacuous)")
        return DetectionResult(True, "brute-force", examined, "true under every legal substitution")

    @staticmethod
    def _substitute(
        binding: Mapping[str, XTuple],
        sites: Sequence[Tuple[str, str, str]],
        assignment: Sequence[Any],
    ) -> Dict[str, XTuple]:
        per_variable: Dict[str, Dict[str, Any]] = {}
        for (variable, attribute, _), value in zip(sites, assignment):
            per_variable.setdefault(variable, {})[attribute] = value
        substituted: Dict[str, XTuple] = {}
        for variable, row in binding.items():
            replacements = per_variable.get(variable)
            if replacements:
                data = row.as_dict()
                data.update(replacements)
                substituted[variable] = XTuple(data)
            else:
                substituted[variable] = row
        return substituted

    # -- combined pipeline ---------------------------------------------------------------
    def detect(self, predicate: Predicate, binding: Mapping[str, XTuple]) -> DetectionResult:
        """Run the layers in order of cost and return the first decisive verdict.

        The propositional layer can only confirm tautologies; the interval
        layer is exact within its fragment; brute force is exact whenever
        the relevant domains are finite and declared.  When no layer can
        decide, the result has ``is_tautology=None`` and
        ``method="undecided"`` — the practical situation the Appendix
        predicts for constraint-dependent queries without declared
        constraints.
        """
        propositional = self.propositional_check(predicate, binding)
        if propositional.is_tautology is not None:
            return propositional
        interval = self.interval_check(predicate, binding)
        if interval.is_tautology is not None:
            # A positive interval verdict stays valid under constraints
            # (constraints only shrink the set of legal substitutions).  A
            # negative one may be overturned by them — the counterexample
            # region might be illegal — so with constraints declared we fall
            # through to the constraint-aware brute-force layer.
            if interval.is_tautology or not self.constraints:
                return interval
        brute = self.brute_force_check(predicate, binding)
        if brute.is_tautology is not None:
            return brute
        return DetectionResult(
            None, "undecided",
            propositional.cost + interval.cost + brute.cost,
            "; ".join(filter(None, (propositional.details, interval.details, brute.details))),
        )


def evaluate_unknown_lower_bound(
    query: Query,
    detector: Optional[TautologyDetector] = None,
    minimize: bool = True,
) -> XRelation:
    """The correct lower bound under the *unknown* interpretation.

    A binding contributes when its where clause is TRUE outright **or**
    defines a tautology (true under every legal substitution of its
    nulls).  This is the expensive evaluation strategy the paper's
    Appendix argues against; ``tests/test_paper_examples.py`` compares its
    output with :func:`repro.core.query.evaluate_lower_bound` on Figures 1
    and 2.

    Bindings the detector cannot decide are (conservatively) excluded, and
    counted in the returned relation's name for transparency.
    """
    detector = detector or TautologyDetector()
    out = Relation(query.output_schema(), validate=False)
    undecided = 0
    for binding in query.bindings():
        truth = query.where.evaluate(binding)
        include = truth.is_true()
        if not include and truth.is_ni():
            verdict = detector.detect(query.where, binding)
            if verdict.is_tautology is True:
                include = True
            elif verdict.is_tautology is None:
                undecided += 1
        if include:
            out.add(XTuple(
                (output_name, ref.value(binding)) for output_name, ref in query.target
            ))
    if undecided:
        out.schema.name = f"{query.name} (unknown interpretation, {undecided} undecided)"
    return XRelation(out)
