"""A DPLL satisfiability solver for the tautology analysis (Appendix).

Propositional tautology checking is co-NP-complete (the Appendix cites
Garey & Johnson): a formula is a tautology iff its negation is
unsatisfiable.  This module provides a small, dependency-free DPLL solver
— unit propagation, pure-literal elimination and branching on the most
frequent variable — operating on the CNF clause representation produced by
:func:`repro.tautology.propositional.to_cnf`.

It is deliberately a real solver rather than a truth-table loop, so that
three cost regimes can be compared on the same instances:

* truth-table enumeration (2^n always),
* DPLL (fast on easy instances, exponential in the worst case),
* brute-force domain substitution (|D|^k, the paper's "not feasible in
  general" baseline).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .propositional import Clause, Formula, Literal, NotF, to_cnf


class DPLLStatistics:
    """Counters describing one solver run."""

    def __init__(self) -> None:
        self.decisions = 0
        self.unit_propagations = 0
        self.pure_literal_eliminations = 0

    def __repr__(self) -> str:
        return (
            f"DPLLStatistics(decisions={self.decisions}, "
            f"unit={self.unit_propagations}, pure={self.pure_literal_eliminations})"
        )


def _simplify(clauses: List[Set[Literal]], literal: Literal) -> Optional[List[Set[Literal]]]:
    """Assign a literal: drop satisfied clauses, shrink the others.

    Returns ``None`` when an empty clause (conflict) arises.
    """
    name, polarity = literal
    negation = (name, not polarity)
    result: List[Set[Literal]] = []
    for clause in clauses:
        if literal in clause:
            continue
        if negation in clause:
            reduced = clause - {negation}
            if not reduced:
                return None
            result.append(set(reduced))
        else:
            result.append(set(clause))
    return result


def dpll_satisfiable(
    clauses: Iterable[Clause],
    statistics: Optional[DPLLStatistics] = None,
) -> Optional[Dict[str, bool]]:
    """Decide satisfiability of a CNF clause set.

    Returns a satisfying assignment (possibly partial — unmentioned
    variables are unconstrained) or ``None`` when unsatisfiable.
    """
    stats = statistics if statistics is not None else DPLLStatistics()
    working: List[Set[Literal]] = [set(c) for c in clauses]
    assignment: Dict[str, bool] = {}

    def solve(current: List[Set[Literal]], model: Dict[str, bool]) -> Optional[Dict[str, bool]]:
        # Unit propagation.
        changed = True
        while changed:
            changed = False
            unit = next((c for c in current if len(c) == 1), None)
            if unit is not None:
                literal = next(iter(unit))
                stats.unit_propagations += 1
                simplified = _simplify(current, literal)
                if simplified is None:
                    return None
                model = dict(model)
                model[literal[0]] = literal[1]
                current = simplified
                changed = True
        if not current:
            return model
        # Pure literal elimination.
        polarity_seen: Dict[str, Set[bool]] = {}
        for clause in current:
            for name, polarity in clause:
                polarity_seen.setdefault(name, set()).add(polarity)
        pure = next((name for name, seen in polarity_seen.items() if len(seen) == 1), None)
        if pure is not None:
            polarity = next(iter(polarity_seen[pure]))
            stats.pure_literal_eliminations += 1
            simplified = _simplify(current, (pure, polarity))
            if simplified is None:
                return None
            model = dict(model)
            model[pure] = polarity
            return solve(simplified, model)
        # Branch on the most frequent variable.
        counts = Counter(name for clause in current for name, _ in clause)
        variable = counts.most_common(1)[0][0]
        stats.decisions += 1
        for polarity in (True, False):
            simplified = _simplify(current, (variable, polarity))
            if simplified is None:
                continue
            attempt = dict(model)
            attempt[variable] = polarity
            result = solve(simplified, attempt)
            if result is not None:
                return result
        return None

    return solve(working, assignment)


def is_tautology(formula: Formula, statistics: Optional[DPLLStatistics] = None) -> bool:
    """A formula is a tautology iff its negation is unsatisfiable."""
    clauses = to_cnf(NotF(formula))
    return dpll_satisfiable(clauses, statistics) is None


def is_satisfiable(formula: Formula, statistics: Optional[DPLLStatistics] = None) -> bool:
    """Plain satisfiability of a formula."""
    clauses = to_cnf(formula)
    return dpll_satisfiable(clauses, statistics) is not None
