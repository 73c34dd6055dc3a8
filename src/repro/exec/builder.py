"""The logical plan as data, and the one function that makes it a tree.

:class:`LogicalOp` is the planner's output and the executor's input: one
estimate-annotated step of the cost-ordered plan, holding nothing but
picklable values (core predicate AST, attribute names, constants or
the ``$name`` placeholders a prepared plan binds per compilation) — an
index is named by its key attributes, never held as a live object; the
caller resolves the live index when it compiles.

:func:`build_tree` is the only place logical ops become physical
operators.  Its caller passes the live table rows and the live indexes
the plan named, and gets the bare streaming tree — :class:`IndexProbe`
leaves, :class:`IndexNLJoin` probes, first rows out before the inputs
are exhausted.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.algebra import constant_predicate
from ..core.tuples import XTuple
from .operators import (
    Filter,
    HashJoin,
    IndexNLJoin,
    IndexProbe,
    PhysicalOperator,
    Product,
    Project,
    Rename,
    TableScan,
)
from .predicates import pair_predicate, residual_predicate, single_variable_predicate


class LogicalOp:
    """One step of the logical plan.  ``kind`` selects the fields in use:

    * ``"rename"`` — *variable*, *described* (the relation's name),
      *index_name* (the index serving the range, ``None`` for a scan);
    * ``"index-select"`` — *variable*, *index* (the covering index's key
      attributes, in key order), *index_name*, *probe* (values in that
      order), *est*;
    * ``"select"`` — *variable*, *conjunct*, *attribute*/*op*/*constant*
      (the conjunct normalised attribute-first), *est*;
    * ``"select-var-residual"`` — *variable*, *conjunct*, *est*;
    * ``"join"`` — *variable*, *pairs* (``(combined ref, new ref)``
      equalities fused into one key), *residual* (fused conjunct or
      ``None``), *index*/*index_name* when a persistent index covers the
      key, *est*;
    * ``"product"`` — *variable*, *est*;
    * ``"residual"`` — *conjunct*, *est*;
    * ``"project"`` — *targets* (``(output, qualified input)`` pairs).
    """

    __slots__ = (
        "kind", "variable", "conjunct", "attribute", "op", "constant",
        "index", "index_name", "probe", "described", "pairs", "targets",
        "est", "residual",
    )

    def __init__(self, kind: str, **fields: Any):
        self.kind = kind
        for slot in self.__slots__:
            if slot != "kind":
                setattr(self, slot, fields.pop(slot, None))
        if fields:
            raise TypeError(f"unknown logical-op fields {sorted(fields)}")

    def replace(self, **fields: Any) -> "LogicalOp":
        """A copy of this op with *fields* replaced (ops are shared by
        every compilation of a plan, so they are copied, never edited)."""
        copy = LogicalOp.__new__(LogicalOp)
        for slot in self.__slots__:
            setattr(copy, slot, getattr(self, slot))
        for name, value in fields.items():
            setattr(copy, name, value)
        return copy

    def __repr__(self) -> str:
        return f"LogicalOp({self.kind!r}, variable={self.variable!r})"


def join_on_text(pairs: Sequence[Tuple[Any, Any]]) -> str:
    """``a.X = b.Y`` for one fused equality, ``[a.X = b.Y, …]`` for several."""
    described = [
        f"{old.variable}.{old.attribute} = {new.variable}.{new.attribute}"
        for old, new in pairs
    ]
    return described[0] if len(described) == 1 else "[" + ", ".join(described) + "]"


def build_tree(
    ops: Sequence[LogicalOp],
    sources: Mapping[str, Collection[XTuple]],
    indexes: Mapping[str, Any],
    mappings: Mapping[str, Dict[str, str]],
    start: str,
    block_size: int,
) -> Tuple[PhysicalOperator, List[Optional[PhysicalOperator]]]:
    """Build the operator tree of *ops*; return its root and, aligned
    with *ops*, the node each step produced (``None`` for the no-op
    ``rename`` steps — renaming is fused into the joins).

    *sources* maps each range variable to its rows, *indexes* maps a
    variable to the live index its op names (present for every op that
    names one),
    *mappings* gives each variable's ``attribute → variable.attribute``
    renaming in declaration order, *start* is the range the combined
    stream begins with.

    The tree builds **no** intermediate ``XRelation``: pushed selections
    are :class:`Filter` nodes over the unrenamed base rows, joins bucket
    only the (filtered, unrenamed) build side and rename only matched
    rows, residual conjuncts filter rows in flight.
    """
    variables = list(mappings)
    names = {op.variable: op.described for op in ops if op.kind == "rename"}
    chains: Dict[str, PhysicalOperator] = {}

    def scan(variable: str) -> PhysicalOperator:
        node = chains.get(variable)
        if node is None:
            rows = sources.get(variable, ())
            node = chains[variable] = TableScan(
                rows,
                label=f"TableScan {names.get(variable, variable)} ({variable})",
                est=float(len(rows)), block_size=block_size,
            )
        return node

    def transform_for(variable: str):
        mapping = mappings[variable]
        return lambda row, _mapping=mapping: row.rename(_mapping)

    combined: Optional[PhysicalOperator] = None

    def combined_node() -> PhysicalOperator:
        nonlocal combined
        if combined is None:
            base = scan(start)
            combined = Rename(
                base, mappings[start], label=f"Rename {start}.*",
                est=base.est, block_size=block_size,
            )
        return combined

    nodes: List[Optional[PhysicalOperator]] = []
    for op in ops:
        node: Optional[PhysicalOperator] = None
        if op.kind == "index-select":
            node = chains[op.variable] = IndexProbe(
                indexes[op.variable].lookup, op.probe,
                label=f"IndexProbe {op.index_name} ({op.variable})",
                est=op.est, block_size=block_size,
            )
        elif op.kind == "select":
            node = chains[op.variable] = Filter(
                scan(op.variable),
                constant_predicate(op.attribute, op.op, op.constant),
                label=f"Filter {op.variable}.{op.attribute} {op.op} {op.constant!r}",
                est=op.est, block_size=block_size,
            )
        elif op.kind == "select-var-residual":
            node = chains[op.variable] = Filter(
                scan(op.variable),
                single_variable_predicate(op.conjunct, op.variable),
                label=f"Filter {op.conjunct!r} ({op.variable})",
                est=op.est, block_size=block_size,
            )
        elif op.kind == "join":
            on = join_on_text(op.pairs)
            residual = (
                pair_predicate(op.residual, op.variable)
                if op.residual is not None else None
            )
            # Only a join whose key the plan found indexed may probe: the
            # variable's entry could belong to an index-select instead.
            index = indexes.get(op.variable) if op.index is not None else None
            if index is not None:
                bare_to_combined = {
                    new.attribute: f"{old.variable}.{old.attribute}"
                    for old, new in op.pairs
                }
                node = IndexNLJoin(
                    combined_node(), index.lookup,
                    [bare_to_combined[a] for a in index.attributes],
                    transform_for(op.variable), residual=residual,
                    label=f"IndexNLJoin {op.index_name} on {on}",
                    est=op.est, block_size=block_size,
                )
            else:
                node = HashJoin(
                    combined_node(), scan(op.variable),
                    [new.attribute for _, new in op.pairs],
                    [f"{old.variable}.{old.attribute}" for old, _ in op.pairs],
                    transform_for(op.variable), residual=residual,
                    label=f"HashJoin on {on}",
                    est=op.est, block_size=block_size,
                )
            combined = node
        elif op.kind == "product":
            combined = node = Product(
                combined_node(), scan(op.variable), transform_for(op.variable),
                label=f"Product with {op.variable}",
                est=op.est, block_size=block_size,
            )
        elif op.kind == "residual":
            combined = node = Filter(
                combined_node(), residual_predicate(op.conjunct, variables),
                label=f"Filter {op.conjunct!r}",
                est=op.est, block_size=block_size,
            )
        elif op.kind == "project":
            if combined is None:
                # A single-range plan: nothing was joined, so the targets
                # read the bare attributes straight off the range's chain
                # — no Rename node, one tuple built per row instead of two.
                bare = {qualified: a for a, qualified in mappings[start].items()}
                source = scan(start)
                targets = [(output, bare[q]) for output, q in op.targets]
            else:
                source, targets = combined, op.targets
            combined = node = Project(
                source, targets,
                label=f"Project {[o for o, _ in op.targets]}",
                block_size=block_size,
            )
        elif op.kind != "rename":
            raise ValueError(f"unknown logical op kind {op.kind!r}")
        nodes.append(node)
    return combined_node(), nodes
