"""Workload builders: the concrete databases the examples and tests use.

These are the **paper fixtures**: the exact relations the paper draws
(Table I, Table II, the PS'/PS'' pair of Section 1, the PARTS–SUPPLIERS
relation of display (6.6)) and the Figure 1/2 queries, so the tests in
``tests/test_paper_examples.py`` and the examples compare against the
printed rows.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from ..core.domains import EnumeratedDomain, IntegerRangeDomain
from ..core.nulls import NI
from ..core.relation import Relation
from ..storage.database import Database
from ..constraints.keys import KeyConstraint


# ---------------------------------------------------------------------------
# Paper fixtures
# ---------------------------------------------------------------------------

def table_one() -> Relation:
    """Table I: EMP(E#, NAME, SEX, MGR#) before the schema change."""
    return Relation.from_rows(
        ["E#", "NAME", "SEX", "MGR#"],
        [
            (1120, "SMITH", "M", 2235),
            (4335, "BROWN", "F", 2235),
            (8799, "GREEN", "M", 1255),
        ],
        name="EMP",
    )


def table_two() -> Relation:
    """Table II: EMP(E#, NAME, SEX, MGR#, TEL#) after adding TEL# (all null)."""
    return Relation.from_rows(
        ["E#", "NAME", "SEX", "MGR#", "TEL#"],
        [
            (1120, "SMITH", "M", 2235, NI),
            (4335, "BROWN", "F", 2235, NI),
            (8799, "GREEN", "M", 1255, NI),
        ],
        name="EMP",
    )


def ps_prime() -> Relation:
    """PS' of display (1.1): {(ω, s1), (p1, s2)}."""
    return Relation.from_rows(
        ["P#", "S#"],
        [(NI, "s1"), ("p1", "s2")],
        name="PS'",
    )


def ps_double_prime() -> Relation:
    """PS'' of display (1.2): PS' plus the tuple (p2, s2)."""
    return Relation.from_rows(
        ["P#", "S#"],
        [(NI, "s1"), ("p1", "s2"), ("p2", "s2")],
        name="PS''",
    )


def parts_suppliers() -> Relation:
    """The PARTS–SUPPLIERS relation of display (6.6)."""
    return Relation.from_rows(
        ["S#", "P#"],
        [
            ("s1", "p1"),
            ("s1", "p2"),
            ("s1", NI),
            ("s2", "p1"),
            ("s2", NI),
            ("s3", NI),
            ("s4", "p4"),
        ],
        name="PS",
    )


def employee_database(include_managers: bool = True) -> Database:
    """A Database holding the paper's EMP relation (Table II shape).

    With *include_managers* the managers referenced by MGR# (2235, 1255)
    are added as employees of their own, so the Figure 2 self-join query
    has qualifying rows.
    """
    database = Database("paper")
    table = database.create_table(
        "EMP",
        ["E#", "NAME", "SEX", "MGR#", "TEL#"],
        constraints=[KeyConstraint(["E#"])],
    )
    rows: List[Tuple] = [
        (1120, "SMITH", "M", 2235, NI),
        (4335, "BROWN", "F", 2235, NI),
        (8799, "GREEN", "M", 1255, NI),
    ]
    if include_managers:
        # JONES manages SMITH and BROWN and is managed by ADAMS; ADAMS manages
        # GREEN and JONES and is managed by JONES.  The cycle makes Figure 2
        # interesting: GREEN qualifies (male manager, no self/mutual
        # management with him), JONES does not (she manages her own manager).
        rows.extend([
            (2235, "JONES", "F", 1255, 2634952),
            (1255, "ADAMS", "M", 2235, 2639001),
        ])
    table.insert_many(rows)
    return database


#: The query of Figure 1, verbatim (modulo ASCII connectives).
FIGURE_1_QUERY = """
range of e is EMP
retrieve (e.NAME, e.E#)
where (e.SEX = "F" and e.TEL# > 2634000)
   or (e.TEL# < 2634000)
"""

#: The query of Figure 2, verbatim.
FIGURE_2_QUERY = """
range of e is EMP
range of m is EMP
retrieve (e.NAME)
where m.SEX = "M"
  and e.MGR# = m.E#
  and e.MGR# != e.E#
  and e.E# != m.MGR#
"""
