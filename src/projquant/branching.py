"""Restriction of GL(m+1) irreducibles to GL(m).

The decomposition is multiplicity-free: components correspond to diagrams
obtained by removing boxes from the parent diagram, where row i of the
component is pinched between rows i and i+1 of the parent.  A component is
recorded by its removal vector q (boxes removed per parent row); the bounds
are 0 <= q_i <= d_i - d_{i+1}.

Rows past the parent's depth have no slack, so removal vectors get one slot
per nonzero parent row.  Parents produced by the dualized rank extension
reach depth m, in which case boxes may be removed from row m as well.
"""

from __future__ import annotations

from itertools import product

from .diagrams import IrrepLabel, canonicalize
from .records import Record


class BranchLabel(Record):
    """Removal vector q with trailing zeros trimmed; |q| is the box count."""

    __slots__ = ("removals",)

    def __init__(self, removals: tuple[int, ...] = ()) -> None:
        removals = tuple(int(r) for r in removals)
        if any(r < 0 for r in removals):
            raise ValueError(f"negative removal count in {removals}")
        end = len(removals)
        while end and not removals[end - 1]:
            end -= 1
        object.__setattr__(self, "removals", removals[:end])  # the tuple itself at full length

    @property
    def norm(self) -> int:
        return sum(self.removals)

    def padded(self, length: int) -> tuple[int, ...]:
        if length < len(self.removals):
            raise ValueError(f"cannot pad {self} to length {length}")
        return self.removals + (0,) * (length - len(self.removals))

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.removals) if self.removals else "0"


def _row_slacks(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Removal capacities d_i - d_{i+1} of the nonzero rows d, one per row."""
    return tuple(a - b for a, b in zip(rows, rows[1:] + (0,)))


def branch_labels(parent: IrrepLabel) -> list[BranchLabel]:
    """All removal vectors of the restriction, in lexicographic order.

    Each vector labels exactly one irreducible component (multiplicity 1).
    """
    if parent.rank < 3:
        raise ValueError("restriction target must have rank at least 2")
    slacks = _row_slacks(parent.diagram.rows)
    return [BranchLabel(q) for q in product(*(range(s + 1) for s in slacks))]


def component(parent: IrrepLabel, q: BranchLabel) -> IrrepLabel:
    """Component of the restriction labelled by q: rows d_i - q_i, canonicalized.

    Twist and weight carry over; a depth-m result folds its full columns
    into the twist through canonicalization.
    """
    if parent.rank < 3:
        raise ValueError("restriction target must have rank at least 2")
    m = parent.rank - 1
    if len(q.removals) > m:
        raise ValueError(f"removal vector {q} too long for rank-{parent.rank} parent")
    rows = parent.diagram.rows
    slacks = _row_slacks(rows)
    if len(q.removals) > len(rows) or any(qi > s for qi, s in zip(q.removals, slacks)):
        bounds = slacks + (0,) * (m - len(slacks))
        raise ValueError(f"removal vector {q} violates row bounds {bounds} of {parent}")
    child = tuple(d - r for d, r in zip(rows, q.padded(len(rows))))
    return canonicalize(child, m, parent.twist, parent.weight)


def zero_removal_embedding(label: IrrepLabel) -> BranchLabel:
    """Removal vector of the copy of `label` inside its rank extension: q = 0."""
    return BranchLabel()


def max_removal_embedding(label: IrrepLabel) -> BranchLabel:
    """Removal vector of the copy of `label` inside its dualized rank extension.

    The unique vector of maximal |q| (full slack in every row); removing
    those boxes recovers the diagram of `label`.  The extension's first two
    rows are equal, so its slacks are 0 followed by the slacks of `label`.
    """
    return BranchLabel((0,) + _row_slacks(label.diagram.rows))
