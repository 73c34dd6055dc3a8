"""repro — a reproduction of Zaniolo's *Database Relations with Null Values*.

The package re-exports the core public API at the top level so the common
objects can be imported directly::

    from repro import XTuple, Relation, XRelation, NI
    from repro import select_constant, project, divide, union_join
    from repro import Query, AttributeRef, Comparison, evaluate_lower_bound

Subpackages:

``repro.core``
    The paper's contribution: the no-information null, the tuple
    information lattice, x-relations, the generalised set operations and
    relational algebra, and lower-bound query evaluation.
``repro.quel``
    A QUEL front end (lexer, parser, analyser, evaluator, planner) able to
    run the paper's Figure 1 and Figure 2 queries verbatim, plus the DML
    statements (APPEND TO / DELETE / REPLACE) and ``$name`` parameters.
``repro.api``
    The client surface: ``repro.connect(db)`` returns a Session speaking
    full QUEL (queries and mutations) through the cost-based planner,
    with prepared-statement plan caching and transactions.
``repro.codd``
    The Codd 1979 baseline: MAYBE-flavoured three-valued logic, TRUE/MAYBE
    selections, joins and division, and null-substitution containment.
``repro.worlds``
    Possible-worlds (completion) semantics: certain and possible answers,
    used as a correctness oracle and a cost baseline.
``repro.tautology``
    The Appendix machinery: tautology detection by brute force and by a
    DPLL-based symbolic analysis.
``repro.constraints``
    Keys, NOT NULL, referential integrity and functional dependencies in
    the presence of nulls.
``repro.lien``
    The Lien 1979 nonexistent-null baseline and multivalued dependencies
    with nulls.
``repro.storage``
    An in-memory database substrate (catalog, tables, indexes, updates
    defined through the extended algebra).
``repro.obs``
    The observability layer: a dependency-free metrics registry
    (counters, gauges, log-bucketed histograms, a Prometheus text
    renderer) and the structured query traces every ``Session.execute``
    records.
``repro.datagen``
    The paper's fixtures and synthetic relation generators, for the tests
    and examples.
``repro.io``
    CSV and JSON round-trips with explicit null markers.
"""

from .core import *  # noqa: F401,F403 — the core API is the package API
from .core import __all__ as _core_all
from .api import PreparedStatement, ResultSet, Session, Transaction, connect
from . import obs

__version__ = "1.2.0"

__all__ = list(_core_all) + [
    "PreparedStatement", "ResultSet", "Session", "Transaction", "connect",
    "obs", "__version__",
]
