"""The Appendix machinery: tautology detection under the "unknown" interpretation.

Three analysis layers of increasing cost — propositional abstraction with
DPLL, interval/region analysis of inequalities, and brute-force domain
substitution restricted by integrity constraints — plus the
"unknown"-interpretation query evaluator built on top of them.  The `ni`
interpretation of the core library never needs any of this, which is the
paper's practicability argument (``tests/test_tautology.py`` pins each
layer on the Appendix examples).
"""

from .propositional import (
    Abstraction,
    AndF,
    BOTTOM,
    Const,
    Formula,
    NotF,
    OrF,
    TOP,
    Var,
    abstract_predicate,
    to_cnf,
    to_nnf,
    truth_table_tautology,
)
from .dpll import DPLLStatistics, dpll_satisfiable, is_satisfiable, is_tautology
from .intervals import IntervalAnalysis, analyse
from .detector import DetectionResult, TautologyDetector, evaluate_unknown_lower_bound

__all__ = [
    "Abstraction", "AndF", "BOTTOM", "Const", "Formula", "NotF", "OrF", "TOP", "Var",
    "abstract_predicate", "to_cnf", "to_nnf", "truth_table_tautology",
    "DPLLStatistics", "dpll_satisfiable", "is_satisfiable", "is_tautology",
    "IntervalAnalysis", "analyse",
    "DetectionResult", "TautologyDetector", "evaluate_unknown_lower_bound",
]
