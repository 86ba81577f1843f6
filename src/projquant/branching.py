"""Restriction of GL(m+1) irreducibles to GL(m).

The decomposition is multiplicity-free: components correspond to diagrams
obtained by removing boxes from the parent diagram, where row i of the
component is pinched between rows i and i+1 of the parent.  A component is
recorded by its removal vector q (boxes removed per parent row); the bounds
are 0 <= q_i <= d_i - d_{i+1}.

Removal vectors get one slot per parent row up to depth m: parents produced
by the dualized rank extension genuinely reach depth m, in which case boxes
may be removed from row m as well.
"""

from __future__ import annotations

from itertools import product

from .diagrams import IrrepLabel, canonicalize, extend_rank_dual
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

    # lift plans key their scalars by removal vector; inline as for labels
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.removals == other.removals
        return NotImplemented

    def __hash__(self):
        return hash(self.removals)

    @property
    def norm(self) -> int:
        return sum(self.removals)

    def padded(self, length: int) -> tuple[int, ...]:
        if length < len(self.removals):
            raise ValueError(f"cannot pad {self} to length {length}")
        return self.removals + (0,) * (length - len(self.removals))

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.removals) if self.removals else "0"


def _row_slacks(parent: IrrepLabel) -> tuple[int, ...]:
    """Per-row removal capacities d_i - d_{i+1} for i = 1..m."""
    m = parent.rank - 1
    d = parent.diagram.padded(m + 1)
    return tuple(d[i] - d[i + 1] for i in range(m))


def branch_labels(parent: IrrepLabel) -> list[BranchLabel]:
    """All removal vectors of the restriction, in lexicographic order.

    Each vector labels exactly one irreducible component (multiplicity 1).
    """
    if parent.rank < 3:
        raise ValueError("restriction target must have rank at least 2")
    slacks = _row_slacks(parent)
    return [BranchLabel(q) for q in product(*(range(s + 1) for s in slacks))]


def component(parent: IrrepLabel, q: BranchLabel) -> IrrepLabel:
    """Component of the restriction labelled by q: rows d_i - q_i, canonicalized.

    Twist and weight carry over; a depth-m result folds its full columns
    into the twist through canonicalization.
    """
    if parent.rank < 3:
        raise ValueError("restriction target must have rank at least 2")
    m = parent.rank - 1
    slacks = _row_slacks(parent)
    if len(q.removals) > m:
        raise ValueError(f"removal vector {q} too long for rank-{parent.rank} parent")
    for qi, slack in zip(q.padded(m), slacks):
        if qi > slack:
            raise ValueError(
                f"removal vector {q} violates row bounds {slacks} of {parent}"
            )
    return _component(parent, q)


def _component(parent: IrrepLabel, q: BranchLabel) -> IrrepLabel:
    """`component` for a q that `branch_labels(parent)` produced, unchecked."""
    m = parent.rank - 1
    rows = tuple(d - r for d, r in zip(parent.diagram.padded(m), q.padded(m)))
    return canonicalize(rows, m, parent.twist, parent.weight)


def zero_removal_embedding(label: IrrepLabel) -> BranchLabel:
    """Removal vector of the copy of `label` inside its rank extension: q = 0."""
    return BranchLabel()


def max_removal_embedding(label: IrrepLabel) -> BranchLabel:
    """Removal vector of the copy of `label` inside its dualized rank extension.

    The unique vector of maximal |q| (full slack in every row); removing
    those boxes recovers the diagram of `label`.
    """
    return BranchLabel(_row_slacks(extend_rank_dual(label)))
