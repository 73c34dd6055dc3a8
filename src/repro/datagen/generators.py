"""Synthetic relation generators with controllable null density.

The paper's practicability arguments are about *shape*: MAYBE answers grow
with null density, possible-worlds evaluation grows exponentially in the
number of nulls.  The generators here produce seeded, deterministic
synthetic relations of a chosen size and null density (see
``tests/test_codd_baseline.py`` for the MAYBE-versus-TRUE selectivity
check over :func:`employee_relation`).

Generators return plain :class:`~repro.core.relation.Relation` objects.
"""

from __future__ import annotations

import random
import string
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.domains import Domain, EnumeratedDomain, IntegerRangeDomain
from ..core.nulls import NI
from ..core.relation import Relation, RelationSchema
from ..core.tuples import XTuple


class RelationGenerator:
    """Generates relations over a fixed schema with per-attribute value pools.

    Parameters
    ----------
    attributes:
        Attribute names of the generated relations.
    domains:
        Mapping from attribute name to either a :class:`Domain` (sampled
        via its ``sample`` method) or an explicit sequence of values.
    null_rates:
        Mapping from attribute name to the probability that a generated
        cell is ``ni``; attributes not listed use *default_null_rate*.
    seed:
        Seed for the internal :class:`random.Random`.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        domains: Mapping[str, Any],
        null_rates: Optional[Mapping[str, float]] = None,
        default_null_rate: float = 0.0,
        seed: int = 0,
    ):
        self.attributes = tuple(attributes)
        self.domains = dict(domains)
        self.null_rates = dict(null_rates or {})
        self.default_null_rate = default_null_rate
        self.rng = random.Random(seed)
        for attribute in self.attributes:
            if attribute not in self.domains:
                raise KeyError(f"no value pool declared for attribute {attribute!r}")

    # -- value sampling -------------------------------------------------------
    def _sample_value(self, attribute: str) -> Any:
        pool = self.domains[attribute]
        if isinstance(pool, Domain):
            return pool.sample(1, self.rng)[0]
        return pool[self.rng.randrange(len(pool))]

    def _null_rate(self, attribute: str) -> float:
        return self.null_rates.get(attribute, self.default_null_rate)

    def row(self) -> XTuple:
        """Generate one row."""
        data: Dict[str, Any] = {}
        for attribute in self.attributes:
            if self.rng.random() < self._null_rate(attribute):
                data[attribute] = NI
            else:
                data[attribute] = self._sample_value(attribute)
        return XTuple(data)

    def relation(self, rows: int, name: str = "R") -> Relation:
        """Generate a relation with *rows* generated rows (duplicates collapse)."""
        relation = Relation(RelationSchema(self.attributes, name=name), validate=False)
        relation._rows = {self.row() for _ in range(rows)}
        return relation


def employee_relation(
    size: int,
    null_rate: float = 0.3,
    seed: int = 0,
    name: str = "EMP",
    with_managers: bool = True,
) -> Relation:
    """An EMP(E#, NAME, SEX, MGR#, TEL#) relation like the paper's Table II.

    ``E#`` is never null (it is the key); ``TEL#`` and ``MGR#`` are null
    with probability *null_rate*; when *with_managers* is true manager
    numbers are drawn from the generated employee numbers so self-join
    queries (Figure 2) have matches.
    """
    rng = random.Random(seed)
    employee_numbers = rng.sample(range(1000, 9999), size)
    names = [f"EMP{num}" for num in employee_numbers]
    rows: List[Tuple] = []
    for i, number in enumerate(employee_numbers):
        sex = "F" if rng.random() < 0.5 else "M"
        if rng.random() < null_rate:
            manager = NI
        elif with_managers and i > 0:
            manager = employee_numbers[rng.randrange(i)]
        else:
            manager = employee_numbers[0]
        telephone = NI if rng.random() < null_rate else rng.randint(2_000_000, 2_999_999)
        rows.append((number, names[i], sex, manager, telephone))
    return Relation.from_rows(["E#", "NAME", "SEX", "MGR#", "TEL#"], rows, name=name)


def parts_suppliers_relation(
    suppliers: int,
    parts: int,
    rows: int,
    null_rate: float = 0.2,
    seed: int = 0,
    name: str = "PS",
) -> Relation:
    """A PS(S#, P#) relation like display (6.6), with null part numbers."""
    rng = random.Random(seed)
    supplier_ids = [f"s{i}" for i in range(1, suppliers + 1)]
    part_ids = [f"p{i}" for i in range(1, parts + 1)]
    generated: List[Tuple] = []
    for _ in range(rows):
        supplier = supplier_ids[rng.randrange(len(supplier_ids))]
        part = NI if rng.random() < null_rate else part_ids[rng.randrange(len(part_ids))]
        generated.append((supplier, part))
    return Relation.from_rows(["S#", "P#"], generated, name=name)


def random_partial_relation(
    attributes: Sequence[str],
    domain_size: int,
    rows: int,
    null_rate: float,
    seed: int = 0,
    name: str = "R",
) -> Relation:
    """A generic relation over small string domains, for set-operation sweeps."""
    values = {a: [f"{a.lower()}{i}" for i in range(domain_size)] for a in attributes}
    generator = RelationGenerator(
        attributes, values, default_null_rate=null_rate, seed=seed
    )
    return generator.relation(rows, name=name)
