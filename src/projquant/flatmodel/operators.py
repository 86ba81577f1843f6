"""Differential operators with polynomial coefficients between density spaces.

An operator is a finite sum C_beta d^beta keyed by derivative multi-indices.
Operators compose through the Leibniz rule and act exactly on polynomial
functions; the weights of the source and target density spaces ride along
for bookkeeping.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from math import comb

from ..records import Record
from .poly import Poly, poly_sum
from .sections import PolyVectorField, TensorSection

MultiIndex = tuple[int, ...]


class DiffOperator(Record):
    """Sum of coefficient polynomials times iterated partial derivatives.

    Unlike the other records it is mutable and therefore unhashable.
    """

    __slots__ = ("rank", "coeffs", "weight_in", "weight_out")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        rank: int,
        coeffs: dict[MultiIndex, Poly] | None = None,
        weight_in: object = 0,
        weight_out: object = 0,
    ) -> None:
        self.rank = rank
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}
        self.weight_in = weight_in
        self.weight_out = weight_out

    @property
    def order(self) -> int:
        return max((sum(k) for k in self.coeffs), default=-1)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return DiffOperator(self.rank, out, self.weight_in, self.weight_out)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + other.scale(-1)

    def scale(self, factor) -> "DiffOperator":
        return DiffOperator(
            self.rank,
            {k: v.scale(factor) for k, v in self.coeffs.items()},
            self.weight_in,
            self.weight_out,
        )

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
    """Operator composition, expanding d^alpha (b g) by the Leibniz rule."""
    rank = outer.rank
    parts: dict[MultiIndex, list[Poly]] = defaultdict(list)
    for alpha, pa in outer.coeffs.items():
        for beta, pb in inner.coeffs.items():
            for tau in product(*(range(a + 1) for a in alpha)):
                factor = 1
                for a, t in zip(alpha, tau):
                    factor *= comb(a, t)
                q = derivative_of_poly(pb, tau)
                if not q:
                    continue
                gamma = tuple(a - t + b for a, t, b in zip(alpha, tau, beta))
                parts[gamma].append(pa * q.scale(factor))
    out = {gamma: poly_sum(rank, terms) for gamma, terms in parts.items()}
    return DiffOperator(rank, out, inner.weight_in, outer.weight_out)


def lie_operator(field_: PolyVectorField, weight) -> DiffOperator:
    """Lie derivative on weight-`weight` densities as a first-order operator."""
    m = field_.rank
    coeffs: dict[MultiIndex, Poly] = {}
    for j in range(m):
        if field_.components[j]:
            beta = [0] * m
            beta[j] = 1
            coeffs[tuple(beta)] = field_.components[j]
    trace_term = field_.div.scale(weight)
    if trace_term:
        coeffs[(0,) * m] = trace_term
    return DiffOperator(m, coeffs, weight, weight)


def contraction_operator(
    tensor: TensorSection, weight_in, weight_out
) -> DiffOperator:
    """The operator f -> <T, grad^d f> pairing every slot with a derivative."""
    m = tensor.rank
    parts: dict[MultiIndex, list[Poly]] = defaultdict(list)
    for index, p in tensor.coeffs.items():
        parts[tuple(index.count(i) for i in range(m))].append(p)
    out = {beta: poly_sum(m, terms) for beta, terms in parts.items()}
    return DiffOperator(m, out, weight_in, weight_out)
