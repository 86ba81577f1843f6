"""Exact determinants over Fraction or any other field-like scalar.

Scalars must support +, -, *, /, equality with 0, and truthiness.  Matrices
are lists of lists; nothing here mutates its inputs.  `det` is the package's
one elimination routine; the quantization solve is a forward substitution
and needs none.
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
