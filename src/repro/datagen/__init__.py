"""Synthetic data generators and the paper's fixtures, for the tests and examples."""

from .generators import (
    RelationGenerator,
    employee_relation,
    parts_suppliers_relation,
    random_partial_relation,
)
from .workloads import (
    FIGURE_1_QUERY,
    FIGURE_2_QUERY,
    employee_database,
    parts_suppliers,
    ps_double_prime,
    ps_prime,
    table_one,
    table_two,
)

__all__ = [
    "RelationGenerator", "employee_relation", "parts_suppliers_relation",
    "random_partial_relation",
    "FIGURE_1_QUERY", "FIGURE_2_QUERY", "employee_database",
    "parts_suppliers", "ps_double_prime", "ps_prime", "table_one", "table_two",
]
