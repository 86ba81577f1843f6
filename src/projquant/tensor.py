"""Tensor product decompositions: Pieri rule and Littlewood-Richardson rule.

Both rules fold one step, `_strips`: the horizontal strips of a given
number of boxes on a shape, kept within rank rows (a diagram deeper than
the rank has no label, its Schur polynomial vanishing in that many
variables).  Pieri's rule is one uncapped step.  Littlewood-Richardson adds
row i of the second factor as a horizontal strip of letter i (Fulton,
*Young Tableaux*, section 5): a chain of strips is a semistandard skew
filling, and its reverse reading word is a lattice word exactly when, for
every i and every row r,

    #(i+1 in rows <= r) <= #(i in rows < r),

so each step caps its letter's running count by the previous letter's
counts in the rows above.  Fillings that reach the same shape with the same
last strip continue alike, so they merge into one multiplicity.  Labels are
then reassembled: twists add, weights add, and canonicalization strips full
columns.
"""

from __future__ import annotations

from .diagrams import IrrepLabel, canonicalize, dual
from .records import Record

Rows = tuple[int, ...]


class Decomposition(Record):
    """Multiset of (label, multiplicity) terms in a fixed canonical order."""

    __slots__ = ("terms",)

    def multiplicity(self, label: IrrepLabel) -> int:
        for term, mult in self.terms:
            if term == label:
                return mult
        return 0

    @staticmethod
    def from_counts(counts: dict[IrrepLabel, int]) -> "Decomposition":
        ordered = sorted(
            ((label, mult) for label, mult in counts.items() if mult),
            key=lambda item: (item[0].diagram.rows, item[0].twist, item[0].weight),
        )
        return Decomposition(tuple(ordered))


def pieri(label: IrrepLabel, k: int) -> Decomposition:
    """Decomposition of label (x) S^k: one term per horizontal k-strip.

    The symmetric-power factor carries no twist and no weight, so both pass
    through unchanged (up to column stripping in canonicalization).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    m, twist, weight = label.rank, label.twist, label.weight
    return Decomposition.from_counts(
        {canonicalize(outer, m, twist, weight): 1 for outer, _ in _strips(label.diagram.rows, k, m)}
    )


def _strips(
    shape: Rows, size: int, depth: int, cap: Rows | None = None
) -> list[tuple[Rows, Rows]]:
    """Horizontal strips of `size` boxes on `shape` that stay within `depth` rows.

    Row r of a strip fits under row r - 1 of `shape`, and with a `cap` the
    strip has at most cap[r] boxes in rows <= r (a lattice cap is 0 on the
    first row).  Returns one (outer shape, below) pair per strip, below[r]
    being the strip's boxes in rows < r for r up to the outer depth: the
    lattice cap of the next letter.
    """
    reach = len(shape) + 1
    if reach > depth:
        reach = depth
    lows = shape + (0,) * (reach - len(shape))
    # the rows that can take boxes, as (row, room): each row shorter than the
    # one above, and the first row unless capped
    corners = [(r, lows[r - 1] - lows[r]) for r in range(1, reach) if lows[r - 1] > lows[r]]
    if cap is None:
        corners.insert(0, (0, size))
        cap = (size,) * reach
    spare = sum([room for _, room in corners])
    if spare < size:
        return []
    # the strips corner by corner, as (boxes placed, outer rows, below) so
    # far; comparisons stand in for min and max, which cost a call each
    partial: list[tuple[int, Rows, Rows]] = [(0, (), ())]
    prev = -1
    for r, room in corners:
        spare -= room
        need = size - spare  # boxes that must lie in rows <= r
        top = cap[r]
        if top > size:
            top = size
        kept = lows[prev + 1 : r]
        gap = r - prev
        prev = r
        grown = []
        for placed, outer, below in partial:
            outer += kept
            below += (placed,) * gap
            high = placed + room
            if high > top:
                high = top
            base = lows[r] - placed
            for c in range(placed if placed > need else need, high + 1):
                grown.append((c, outer + (base + c,), below))
        partial = grown
    kept = lows[prev + 1 :]
    tail = (size,) * (reach - prev)
    results = []
    for _, outer, below in partial:
        outer += kept
        if outer[-1]:
            results.append((outer, below + tail))
        else:  # the new row stayed empty
            results.append((outer[:-1], below + tail[1:]))
    return results


def littlewood_richardson(a: IrrepLabel, b: IrrepLabel) -> Decomposition:
    """Full decomposition of a (x) b over a common rank.

    The rows of b are added to a as horizontal strips of letters 1, 2, ...,
    each capped by the previous letter's lattice counts; a state is the
    shape reached and the last strip's cap for the next letter, weighed by
    the number of fillings that reach it.  Shapes deeper than the rank are
    never reached; twists and weights add.
    """
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    m = a.rank
    content = b.diagram.rows
    states: dict[tuple[Rows, Rows | None], int] = {(a.diagram.rows, None): 1}
    for size in content:
        grown: dict[tuple[Rows, Rows | None], int] = {}
        for (shape, cap), mult in states.items():
            for state in _strips(shape, size, m, cap):
                grown[state] = grown.get(state, 0) + mult
        states = grown
    counts: dict[Rows, int] = {}
    for (shape, _), mult in states.items():
        counts[shape] = counts.get(shape, 0) + mult
    twist, weight = a.twist + b.twist, a.weight + b.weight
    return Decomposition.from_counts(
        {canonicalize(shape, m, twist, weight): mult for shape, mult in counts.items()}
    )


def symbol_rep(v1: IrrepLabel, v2: IrrepLabel, k: int) -> Decomposition:
    """Decomposition of v1* (x) v2 (x) S^k into irreducibles.

    Every term carries weight weight(v2) - weight(v1): the dual negates the
    weight, the product adds weights and S^k carries none.
    """
    if v1.rank != v2.rank:
        raise ValueError(f"rank mismatch: {v1.rank} vs {v2.rank}")
    counts: dict[IrrepLabel, int] = {}
    for pair, mult in littlewood_richardson(dual(v1), v2).terms:
        for term, submult in pieri(pair, k).terms:
            counts[term] = counts.get(term, 0) + mult * submult
    return Decomposition.from_counts(counts)
