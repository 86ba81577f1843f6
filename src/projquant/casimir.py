"""Casimir eigenvalues and resonant weights.

The Casimir operator of the projective embedding of sl(m+1) acts on sections
associated to an irreducible (D, n, delta) by a scalar alpha, a quadratic
in delta read off the diagram: its size and its content (`eigenvalue`),
checked against the m^2 double sum `tests/support.py::eigenvalue_by_double_sum`.

A weight delta is *resonant* when some nonzero-removal component q of the
rank extension shares its eigenvalue with the zero-removal component.  The
quadratic terms cancel, alpha_0 - alpha_q = |q| (r_q - delta), and the one
closed form of the root r_q, `gap_roots`, serves both `resonances` and
`flatmodel.liftplan.lift_plan`.  The independent route, which subtracts the
`eigenvalue` of each component, is `tests/support.py::resonances_generic`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .branching import _row_slacks
from .diagrams import IrrepLabel
from .records import Record


class EigenvaluePoly(Record):
    """alpha(delta) = c0 + c1*delta + c2*delta**2 with exact coefficients."""

    __slots__ = ("c0", "c1", "c2")

    def __call__(self, delta: Fraction) -> Fraction:
        delta = Fraction(delta)
        return self.c0 + self.c1 * delta + self.c2 * delta * delta


def eigenvalue(label: IrrepLabel) -> EigenvaluePoly:
    """Casimir eigenvalue of a canonical label, as a polynomial in the weight.

    With rank m, t = delta - n, k = |D| and the content c(D), column minus row
    summed over the boxes, c(D) = sum_i (r_i(r_i - 1)/2 - i r_i) over rows i >= 0:

        alpha = (m/2) t(t - 1) + k(1 - t) + (k(k - 1) + 2c(D)) / 2(m+1)
    """
    m, n, k = label.rank, label.twist, label.size
    content2 = sum(r * (r - 1 - 2 * i) for i, r in enumerate(label.diagram.rows))  # 2c(D)
    c0 = Fraction((m + 1) * (n + 1) * (m * n + 2 * k) + k * (k - 1) + content2, 2 * (m + 1))
    return EigenvaluePoly(c0, Fraction(-(m * (2 * n + 1) + 2 * k), 2), Fraction(m, 2))


def gap_roots(label: IrrepLabel) -> list[Fraction]:
    """Root r_q of alpha_0 - alpha_q = |q| (r_q - delta) per q != 0, in `branch_labels` order.

    With rank m, twist n, rows d_i (i from 1), size |d| and den = 2(m+1)|q|:
        r_q = (|q| (2(m+1)(n+1) + 2|d| - |q|) + sum_i q_i (2 d_i - 2i - q_i)) / den
    q walks the box of `_row_slacks`, one slot per nonzero row, in the order
    of `branch_labels(extend_rank(label))`, which `lift_plan` zips on.
    """
    rows = label.diagram.rows
    slacks = _row_slacks(rows)
    steps = [2 * r - 2 * i for i, r in enumerate(rows, 1)]
    den = 2 * (label.rank + 1)
    base = den * (label.twist + 1) + 2 * label.size
    roots = []
    for q in product(*(range(s + 1) for s in slacks)):
        norm = sum(q)
        if norm:
            num = norm * (base - norm) + sum(qi * (e - qi) for qi, e in zip(q, steps))
            roots.append(Fraction(num, den * norm))
    return roots


def resonances(label: IrrepLabel, base: Fraction = Fraction(0)) -> frozenset[Fraction]:
    """Resonant weights of a canonical label, treating its weight slot as free.

    A nonzero `base` weight shifts the condition from delta to delta + base,
    i.e. shifts the returned set by -base.
    """
    values = frozenset(gap_roots(label))
    if base:
        base = Fraction(base)
        values = frozenset(v - base for v in values)
    return values


def is_resonant(label: IrrepLabel, delta: Fraction) -> bool:
    """Whether delta is a resonant weight for the label."""
    return Fraction(delta) in resonances(label)


def resonances_for_symbols(
    v1: IrrepLabel, v2: IrrepLabel, kmax: int
) -> frozenset[Fraction]:
    """Union of resonance sets over the terms of `symbol_rep(v1, v2, k)`, k <= kmax.

    A weight is resonant for a direct sum when it is resonant for at least
    one irreducible component, so the union is the right aggregate.
    """
    from .tensor import symbol_rep

    if v1.rank != v2.rank:
        raise ValueError(f"rank mismatch: {v1.rank} vs {v2.rank}")
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    terms = (term for k in range(kmax + 1) for term, _ in symbol_rep(v1, v2, k).terms)
    return frozenset().union(*map(resonances, terms))
