"""Shared oracles and random generators for the test suite.

The Schur oracle here enumerates semistandard tableaux directly, so it is
independent of the alternant-ratio evaluation it is used to check.
"""

from __future__ import annotations

from fractions import Fraction

from projquant import IrrepLabel, canonicalize

Rows = tuple[int, ...]


def semistandard_tableaux(rows: Rows, m: int):
    """Yield all fillings with entries 1..m, rows weakly and columns strictly
    increasing."""
    rows = tuple(r for r in rows if r)
    depth = len(rows)
    grid = [[0] * r for r in rows]
    cells = [(r, c) for r in range(depth) for c in range(rows[r])]

    def fill(idx: int):
        if idx == len(cells):
            yield [row[:] for row in grid]
            return
        r, c = cells[idx]
        low = 1
        if c > 0:
            low = max(low, grid[r][c - 1])
        if r > 0:
            low = max(low, grid[r - 1][c] + 1)
        for v in range(low, m + 1):
            grid[r][c] = v
            yield from fill(idx + 1)
        grid[r][c] = 0

    yield from fill(0)


def schur_by_tableaux(rows: Rows, point) -> Fraction:
    """Schur value as the tableau-monomial sum, brute force."""
    xs = [Fraction(x) for x in point]
    total = Fraction(0)
    for tableau in semistandard_tableaux(rows, len(xs)):
        term = Fraction(1)
        for row in tableau:
            for v in row:
                term *= xs[v - 1]
        total += term
    return total


def random_diagram(rng, max_size: int, max_depth: int) -> Rows:
    rows = []
    budget = rng.randint(0, max_size)
    prev = budget
    while budget > 0 and len(rows) < max_depth:
        part = rng.randint(1, min(prev, budget))
        rows.append(part)
        prev = part
        budget -= part
    return tuple(rows)


def random_canonical_label(
    rng,
    rank: int,
    max_size: int = 6,
    twists=(-2, -1, 0, 1, 2),
    weights=(Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3)),
) -> IrrepLabel:
    rows = random_diagram(rng, max_size, rank - 1)
    return canonicalize(rows, rank, rng.choice(twists), rng.choice(weights))


def random_point(rng, count: int, bound: int = 9):
    """Pairwise distinct nonzero rationals."""
    values: set[Fraction] = set()
    while len(values) < count:
        num = rng.randint(-bound, bound)
        den = rng.randint(1, 4)
        q = Fraction(num, den)
        if q != 0:
            values.add(q)
    out = sorted(values)
    rng.shuffle(out)
    return tuple(out)


class RefPoly:
    """Reference polynomial arithmetic: {exponent tuple: Fraction}, one
    Fraction per term, zero terms dropped.  This is the straightforward
    tuple-keyed representation the packed `Poly` kernel replaced; the
    property tests compare the kernel against it."""

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.coeffs = {k: Fraction(v) for k, v in (coeffs or {}).items() if v != 0}

    def __add__(self, other: "RefPoly") -> "RefPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return RefPoly(self.nvars, out)

    def __neg__(self) -> "RefPoly":
        return RefPoly(self.nvars, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        return self + (-other)

    def __mul__(self, other: "RefPoly") -> "RefPoly":
        out: dict = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                out[k] = out.get(k, 0) + va * vb
        return RefPoly(self.nvars, out)

    def scale(self, factor) -> "RefPoly":
        return RefPoly(self.nvars, {k: v * factor for k, v in self.coeffs.items()})

    def diff(self, index: int) -> "RefPoly":
        out = {}
        for k, v in self.coeffs.items():
            if k[index]:
                kk = list(k)
                kk[index] -= 1
                out[tuple(kk)] = v * k[index]
        return RefPoly(self.nvars, out)

    def total_degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=-1)

    def eval(self, point) -> Fraction:
        total = Fraction(0)
        for k, v in self.coeffs.items():
            term = v
            for x, e in zip(point, k):
                term *= Fraction(x) ** e
            total += term
        return total
