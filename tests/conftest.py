"""Shared fixtures: the paper's relations and a few synthetic databases."""

from __future__ import annotations

import pytest

from repro import Relation, XRelation, NI
from repro.datagen import (
    employee_database,
    parts_suppliers,
    ps_double_prime,
    ps_prime,
    table_one,
    table_two,
)


@pytest.fixture
def emp_table_one() -> Relation:
    """Table I: EMP before the TEL# column exists."""
    return table_one()


@pytest.fixture
def emp_table_two() -> Relation:
    """Table II: EMP after TEL# was added (all nulls)."""
    return table_two()


@pytest.fixture
def ps1() -> Relation:
    """PS' of display (1.1)."""
    return ps_prime()


@pytest.fixture
def ps2() -> Relation:
    """PS'' of display (1.2)."""
    return ps_double_prime()


@pytest.fixture
def ps() -> Relation:
    """The PARTS-SUPPLIERS relation of display (6.6)."""
    return parts_suppliers()


@pytest.fixture
def emp_db():
    """The paper's employee database, including the two managers."""
    return employee_database()

