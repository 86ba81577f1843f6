"""Tensor product decompositions: Pieri rule and Littlewood-Richardson rule.

Both rules walk one enumerator of outer shapes whose rows are bounded by
per-row ceilings.  Pieri's ceilings admit exactly the horizontal strips;
Littlewood-Richardson's admit the shapes no deeper than the rank whose
first row fits both first rows, and weigh each by its count of lattice
fillings.  Diagrams deeper than the rank never come up (their Schur
polynomials vanish in that many variables): a canonical label has at most
rank - 1 rows and a horizontal strip adds at most one.  Labels are then
reassembled: twists add, weights add, and canonicalization strips full
columns.

The Littlewood-Richardson multiplicities are computed by direct enumeration
of skew fillings with the lattice-word condition; instance sizes here stay
small enough that the simple algorithm is the right one.
"""

from __future__ import annotations

from itertools import accumulate

from .diagrams import IrrepLabel, canonicalize, dual
from .records import Record

Rows = tuple[int, ...]


class Decomposition(Record):
    """Multiset of (label, multiplicity) terms in a fixed canonical order."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[IrrepLabel, int], ...]) -> None:
        object.__setattr__(self, "terms", terms)

    def __iter__(self):
        return iter(self.terms)

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
    rows = label.diagram.rows
    counts: dict[IrrepLabel, int] = {}
    # a horizontal strip: new row i + 1 reaches at most old row i
    for outer in _outer_shapes(rows, label.size + k, (label.diagram.first_row + k,) + rows):
        term = canonicalize(outer, label.rank, label.twist, label.weight)
        counts[term] = counts.get(term, 0) + 1
    return Decomposition.from_counts(counts)


def _outer_shapes(inner: Rows, total: int, ceilings: Rows) -> list[Rows]:
    """Partitions of `total` boxes that contain `inner` and lie under `ceilings`.

    Row i is at most ceilings[i], so there are at most len(ceilings) rows;
    `inner` must itself lie under `ceilings`.  Each partition appears once,
    in the order the row-by-row search reaches it.  Row i starts long
    enough that the later rows, even filled to their ceilings, can take the
    boxes left over; this cuts the dead branches of a long Pieri strip,
    whose later ceilings are the old rows.
    """
    results: list[Rows] = []
    depth = len(ceilings)
    lows = inner + (0,) * (depth - len(inner))
    # room[i]: the boxes rows i + 1.. can take beyond `inner`
    slack = [high - low for high, low in zip(ceilings[:0:-1], lows[:0:-1])]
    room = list(accumulate(slack, initial=0))[::-1]

    def build(i: int, prev: int, remaining: int, acc: list[int]) -> None:
        if remaining == 0:
            results.append(tuple(acc) + inner[i:])
            return
        if i >= depth:
            return
        low = lows[i]
        start = low + remaining - room[i]  # shorter rows leave boxes with no room
        if start < low:
            start = low
        for c in range(start, min(prev, low + remaining, ceilings[i]) + 1):
            acc.append(c)
            build(i + 1, c, remaining - (c - low), acc)
            acc.pop()

    build(0, total, total - sum(inner), [])
    return results


def _lr_fillings(outer: Rows, inner: Rows, content: Rows) -> int:
    """Number of skew fillings of outer/inner with the given content that are
    semistandard and whose reverse reading word is a lattice word.

    Cells are filled in reverse reading order (each row right to left, rows
    top to bottom), which makes the lattice condition checkable as letters
    are placed: letter v may appear only while #v placed so far stays below
    #(v-1).
    """
    depth = len(outer)
    inner = inner + (0,) * (depth - len(inner))
    cells = [
        (r, c) for r in range(depth) for c in range(outer[r] - 1, inner[r] - 1, -1)
    ]
    if not cells:
        return 1
    p = len(content)
    remaining = list(content)
    seen = [0] * (p + 1)
    # the cells whose letters bound each cell's letter from above (right
    # neighbour) and from below (neighbour above), -1 for an inner-shape or
    # outside cell, which imposes no constraint
    position = {cell: i for i, cell in enumerate(cells)}
    right_of = [position.get((r, c + 1), -1) for r, c in cells]
    above_of = [position.get((r - 1, c), -1) for r, c in cells]
    letters = [0] * len(cells)
    last = len(cells) - 1

    # depth-first search without recursion, since a filling may hold more
    # boxes than the interpreter's recursion limit: letters[:idx] is the stack
    # of placed letters, and the last cell's letter is counted, never placed
    count = 0
    idx = 0
    v = 0  # the letter last tried in cells[idx]
    while idx >= 0:
        high = letters[right_of[idx]] if right_of[idx] >= 0 else p
        v = max(v, letters[above_of[idx]] if above_of[idx] >= 0 else 0) + 1
        while v <= high and not (remaining[v - 1] and (v == 1 or seen[v] < seen[v - 1])):
            v += 1
        if v > high:
            idx -= 1
            if idx >= 0:
                v = letters[idx]
                remaining[v - 1] += 1
                seen[v] -= 1
        elif idx == last:
            count += 1
        else:
            letters[idx] = v
            remaining[v - 1] -= 1
            seen[v] += 1
            idx += 1
            v = 0
    return count


def littlewood_richardson(a: IrrepLabel, b: IrrepLabel) -> Decomposition:
    """Full decomposition of a (x) b over a common rank.

    Multiplicity of an outer shape c is the number of lattice skew fillings
    of c/a with content b.  Shapes deeper than the rank are never
    enumerated; twists and weights add.
    """
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    m = a.rank
    inner = a.diagram.rows
    content = b.diagram.rows
    total = a.size + b.size
    counts: dict[IrrepLabel, int] = {}
    # c_1 <= a_1 + b_1, and a shape deeper than m has no label
    first = a.diagram.first_row + b.diagram.first_row
    for outer in _outer_shapes(inner, total, (first,) * min(len(inner) + len(content), m)):
        mult = _lr_fillings(outer, inner, content)
        if mult:
            term = canonicalize(outer, m, a.twist + b.twist, a.weight + b.weight)
            counts[term] = counts.get(term, 0) + mult
    return Decomposition.from_counts(counts)


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
