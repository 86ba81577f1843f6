"""Dependency plan for building a Casimir eigenvector from its base component.

An eigenvector of the Casimir operator valued in the rank extension of a
label is determined by its zero-removal projection: every other component
is obtained from the components one box below it, scaled by
-2 / (alpha_0 - alpha_q) = 2/(|q|(delta - r_q)), with the root r_q that
`casimir.gap_roots` shares with `resonances`.  The scalars and the single-box
edges (q, q + e_i), one per row i with room left in the box of row slacks,
form a DAG rooted at q = 0; the denominators vanish exactly at the resonant
weights, where no lift exists.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from ..branching import _row_slacks, branch_labels, component
from ..casimir import eigenvalue, gap_roots
from ..diagrams import IrrepLabel, extend_rank
from ..errors import ResonantWeight
from ..records import Record


class LiftNode(Record):
    """Removal q, its component, and its lift scalar (None on the root)."""

    __slots__ = ("removals", "component", "coefficient")


class LiftPlan(Record):
    __slots__ = ("label", "delta", "nodes", "edges")

    @property
    def root(self) -> LiftNode:
        return self.nodes[0]


def lift_plan(label: IrrepLabel, delta: Fraction) -> LiftPlan:
    """Nodes, single-box edges, and exact recursion scalars of the lift.

    Raises ResonantWeight when some denominator alpha_0 - alpha_q vanishes
    at the requested weight, that is when delta is the gap root r_q.
    """
    delta = Fraction(delta)
    parent = extend_rank(label)
    labels = branch_labels(parent)
    nodes = [LiftNode(labels[0], component(parent, labels[0]), None)]  # q = 0 comes first
    for q, root in zip(labels[1:], gap_roots(label)):
        child = component(parent, q)
        if root == delta:
            alpha = eigenvalue(nodes[0].component)(delta)
            raise ResonantWeight(
                f"eigenvalue collision at removal q = {q} for delta = {delta}: component "
                f"({child}) shares the eigenvalue alpha = {alpha} of the base component",
                delta,
            )
        nodes.append(LiftNode(q, child, 2 / (q.norm * (delta - root))))
    # branch_labels lists the box of row slacks s, one per nonzero row, in
    # lexicographic order: q + e_i (q_i < s_i) sits prod_{j > i} (s_j + 1) places after q
    slacks = _row_slacks(label.diagram.rows)
    strides = [prod(s + 1 for s in slacks[i + 1 :]) for i in range(len(slacks))]
    edges = [
        (q, labels[place + stride])
        for place, q in enumerate(labels)
        for qi, s, stride in zip(q.padded(len(slacks)), slacks, strides)
        if qi < s
    ]
    return LiftPlan(label, delta, tuple(nodes), tuple(edges))
