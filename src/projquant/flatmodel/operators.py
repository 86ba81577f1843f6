"""Differential operators with polynomial coefficients between density spaces.

An operator is a finite sum C_beta d^beta keyed by derivative multi-indices.
Operators compose through the Leibniz rule, combine linearly in one merge
per multi-index, and act exactly on polynomial functions.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from fractions import Fraction
from itertools import product
from math import comb, lcm

from ..records import Record
from .poly import Poly, poly_combination, poly_sum
from .sections import PolyVectorField, TensorSection

MultiIndex = tuple[int, ...]


class DiffOperator(Record):
    """Sum of nonzero coefficient polynomials times iterated partial derivatives."""

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: dict[MultiIndex, Poly] | None = None) -> None:
        super().__init__(rank, {k: v for k, v in (coeffs or {}).items() if v})

    @property
    def order(self) -> int:
        return max((sum(k) for k in self.coeffs), default=-1)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def apply(self, f: Poly) -> Poly:
        return poly_sum(
            self.rank,
            [coeff * derivative_of_poly(f, beta) for beta, coeff in self.coeffs.items()],
        )


def derivative_of_poly(p: Poly, beta: MultiIndex) -> Poly:
    for i, reps in enumerate(beta):
        for _ in range(reps):
            p = p.diff(i)
            if not p:
                return p
    return p


def compose(outer: DiffOperator, inner: DiffOperator) -> DiffOperator:
    """Operator composition, expanding d^alpha (b g) by the Leibniz rule.

    tau walks only the nonzero entries of alpha, with |tau| <= deg b since
    d^tau b vanishes past it, and gamma is beta moved at those entries.
    """
    rank = outer.rank
    parts: dict[MultiIndex, list[Poly]] = defaultdict(list)
    for alpha, pa in outer.coeffs.items():
        support = [(i, a) for i, a in enumerate(alpha) if a]
        for beta, pb in inner.coeffs.items():
            degree = pb.total_degree()
            for tau in product(*(range((a if a < degree else degree) + 1) for _, a in support)):
                if sum(tau) > degree:
                    continue
                q, factor, gamma = pb, 1, list(beta)
                for (i, a), t in zip(support, tau):
                    for _ in range(t):
                        q = q.diff(i)
                    factor *= comb(a, t)
                    gamma[i] += a - t
                if q:
                    parts[tuple(gamma)].append(pa * q.scale(factor))
    return DiffOperator(rank, {gamma: poly_sum(rank, terms) for gamma, terms in parts.items()})


def operator_combination(rank: int, terms: Iterable[tuple[object, DiffOperator]]) -> DiffOperator:
    """sum c * op over the (rational c, DiffOperator op) terms, merged into
    one polynomial per derivative multi-index."""
    terms = [(Fraction(c), op) for c, op in terms]
    den = lcm(*(c.denominator for c, _ in terms))
    parts: dict[MultiIndex, list[tuple[int, Poly]]] = defaultdict(list)
    for c, op in terms:
        for beta, p in op.coeffs.items():
            parts[beta].append((c.numerator * (den // c.denominator), p))
    return DiffOperator(rank, {b: poly_combination(rank, ps, den) for b, ps in parts.items()})


def lie_operator(field_: PolyVectorField, weight) -> DiffOperator:
    """Lie derivative on weight-`weight` densities as a first-order operator."""
    m = field_.rank
    coeffs = {(0,) * j + (1,) + (0,) * (m - 1 - j): c for j, c in enumerate(field_.components) if c}
    coeffs[(0,) * m] = field_.div.scale(weight)
    return DiffOperator(m, coeffs)  # which drops the zero coefficients


def contraction_operator(tensor: TensorSection) -> DiffOperator:
    """The operator f -> <T, grad^d f> pairing every slot with a derivative."""
    m = tensor.rank
    parts: dict[MultiIndex, list[Poly]] = defaultdict(list)
    for index, p in tensor.coeffs.items():
        parts[tuple(index.count(i) for i in range(m))].append(p)
    return DiffOperator(m, {beta: poly_sum(m, terms) for beta, terms in parts.items()})
