"""Exact linear algebra over Fraction or any other field-like scalar.

Scalars must support +, -, *, /, equality with 0, and truthiness.  Matrices
are lists of lists; nothing here mutates its inputs.  This is the package's
one elimination routine: `det` for determinants, `LinearSystem` for solves.
"""

from __future__ import annotations

from fractions import Fraction


def det(matrix):
    """Exact determinant by Gaussian elimination."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    total = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            total = -total
        total *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return total


class LinearSystem:
    """Incremental row reduction; tracks rank and detects inconsistency.

    Rows are (coefficients, rhs) pairs reduced against the pivots seen so
    far.  Feeding every equation of an overdetermined system through `add`
    classifies it: full-rank and consistent, rank-deficient, or inconsistent.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, tuple[list, object]] = {}
        self.inconsistent = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row, rhs):
        row = list(row)
        for col, (prow, prhs) in self.pivots.items():
            factor = row[col]
            if factor != 0:
                row = [x - factor * y for x, y in zip(row, prow)]
                rhs = rhs - factor * prhs
        return row, rhs

    def add(self, row, rhs) -> bool:
        """Insert an equation; returns True when it increased the rank."""
        # plain ints must become Fractions before any pivot division
        row = [Fraction(x) if isinstance(x, int) else x for x in row]
        if isinstance(rhs, int):
            rhs = Fraction(rhs)
        row, rhs = self.reduce(row, rhs)
        lead = next((c for c in range(self.ncols) if row[c] != 0), None)
        if lead is None:
            if rhs != 0:
                self.inconsistent = True
            return False
        inv = 1 / row[lead]
        row = [x * inv for x in row]
        rhs = rhs * inv
        self.pivots[lead] = (row, rhs)
        return True

    def solve(self):
        """Unique solution when rank == ncols and consistent; else None."""
        if self.inconsistent or self.rank < self.ncols:
            return None
        # back substitution on the reduced pivot rows
        solution = [None] * self.ncols
        for col in sorted(self.pivots, reverse=True):
            row, rhs = self.pivots[col]
            total = rhs
            for j in range(col + 1, self.ncols):
                if row[j] != 0:
                    total = total - row[j] * solution[j]
            solution[col] = total
        return solution
