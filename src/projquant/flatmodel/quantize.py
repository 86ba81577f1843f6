"""Equivariant quantization of density-valued symbols on flat space.

The ansatz is the constant-coefficient divergence form

    Q(P) f = sum_{l=0..k} c_l < Div^l P, grad^{k-l} f >,      c_0 = 1.

Translation and linear equivariance hold for every choice of the c_l, so
the defining conditions come from the quadratic generators alone.  Their
solution is the Lecomte-Ovsienko product

    c_l = C(k, l) prod_{j=1..l} (lam + (k - j)/(m + 1)) / ((m + 2k - j)/(m + 1) - delta),

the triangular recursion of Duval, Lecomte and Ovsienko in closed form.
The denominator of factor j vanishes only at a resonant weight.  Each
solve is checked against the defining equation itself, for the symbol
x_0^k d_0^k and the quadratic field of direction 0, which alone determine
c_1..c_k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import ResonantWeight
from ..records import Record
from .algebra import _matrix, proj_embedding, sl_basis
from .operators import (
    DiffOperator, compose, contraction_operator, lie_operator, operator_combination
)
from .poly import Poly
from .sections import (
    PolyVectorField, TensorSection, _check_keys, _rearrangements, divergence, lie_derivative
)


class QuantCoefficients(Record):
    """Divergence-ansatz constants c_0..c_k with the symbol normalization c_0 = 1."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        if not values or values[0] != 1:
            raise ValueError("quantization coefficients must start with c_0 = 1")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in values))


@lru_cache(maxsize=None)
def quadratic_generator(m: int) -> PolyVectorField:
    """The quadratic field generated by the lower-left matrix unit in direction 0."""
    return proj_embedding(_matrix(m + 1, {(m, 0): 1}))


def divergence_tower(symbol: TensorSection) -> list[TensorSection]:
    """[P, Div P, ..., Div^k P] down to the scalar slot."""
    tower = [symbol]
    for _ in range(symbol.degree):
        tower.append(divergence(tower[-1]))
    return tower


def quantization_operator(symbol: TensorSection, coefficients) -> DiffOperator:
    """Assemble Q(P) from a symbol and divergence-ansatz constants.

    ValueError on a key that is not `degree` indices below the rank, at
    degree 0 too, where no divergence is taken.
    """
    _check_keys(symbol.rank, symbol.degree, symbol.coeffs)
    tower = divergence_tower(symbol)
    return operator_combination(
        symbol.rank, [(coefficients[l], contraction_operator(t)) for l, t in enumerate(tower)]
    )


# (m + 4)(k + 4) at most this.  On a 2-vCPU x86_64 machine with Python 3.11
# the calls along its edge, (2, 262), (6, 150), (12, 96), (36, 36) and
# (316, 1), take 0.34, 0.51, 0.50, 0.26 and 0.05 s in a fresh process; at
# large k nearly all of it is the residual check's two divergence towers and
# contraction sums of Q(P) and Q(L_X P), at large m the quadratic field's
# `proj_embedding` (0.07 of 0.13 s under cProfile at (316, 1), against 0.02 s
# in the guard's two `compose` calls).  Past it, (1000, 1) takes 0.35 s and
# (2, 400) 0.93 s
_QUANTIZE_BUDGET = 1600


def density_quant_coefficients(m, k, lam, mu) -> QuantCoefficients:
    """The divergence-ansatz constants at fixed weights, by the closed form.

    Step j of the Lecomte-Ovsienko product multiplies by
    (k - j + 1)(lam + (k - j)/(m + 1)) / (j ((m + 2k - j)/(m + 1) - delta)).
    The denominator of step j = m + 2k - (m + 1) delta vanishes when that j
    is in 1..k, which raises ResonantWeight: rank-deficient when the
    numerator of a step i <= j vanishes (i = k + (m + 1) lam), so that
    c_(j-1) or step j is zero, and inconsistent otherwise.  Past the size
    budget on (m, k) a ValueError is raised before the product is formed.
    The values are then checked against the defining equation
    [L_X, Q(P)] = Q(L_X P) for the quadratic field X of direction 0 and the
    symbol P = x_0^k d_0^k; a nonzero defect raises RuntimeError.
    """
    lam = Fraction(lam)
    mu = Fraction(mu)
    if m < 2:
        raise ValueError("rank must be at least 2")
    if k < 0:
        raise ValueError("symbol order must be non-negative")
    if k == 0:
        return QuantCoefficients((Fraction(1),))
    delta = mu - lam
    # the Poly degree bound raises OverflowError here, before any resonance
    symbol = TensorSection(m, k, 0, delta, {(0,) * k: Poly.monomial(m, (k,) + (0,) * (m - 1))})
    j = m + 2 * k - (m + 1) * delta  # the step whose denominator vanishes
    if j.denominator == 1 and 1 <= j <= k:
        i = k + (m + 1) * lam  # the step whose numerator vanishes
        problem = "rank-deficient" if i.denominator == 1 and 1 <= i <= j else "inconsistent"
        raise ResonantWeight(
            f"quantization system {problem} at delta = {delta}: "
            f"factor j = {j}, (m+2k-j)/(m+1) = {delta} vanishes",
            delta,
        )
    if (size := (m + 4) * (k + 4)) > _QUANTIZE_BUDGET:
        raise ValueError(
            f"order k = {k} at rank m = {m} has (m+4)(k+4) = {size}, "
            f"over the budget of {_QUANTIZE_BUDGET}"
        )
    values = [Fraction(1)]
    for j in range(1, k + 1):
        num = (k - j + 1) * (lam + Fraction(k - j, m + 1))
        den = j * (Fraction(m + 2 * k - j, m + 1) - delta)
        values.append(values[-1] * num / den)
    field = quadratic_generator(m)
    qop = quantization_operator(symbol, values)
    lie_in, lie_out = lie_operator(field, lam), lie_operator(field, mu)
    moved = quantization_operator(lie_derivative(field, symbol), values)
    residual = operator_combination(
        m, [(1, compose(lie_out, qop)), (-1, compose(qop, lie_in)), (-1, moved)]
    )
    if residual:
        beta = min(residual.coeffs)
        term = min(residual.coeffs[beta].coeffs)
        raise RuntimeError(
            f"quantization residual at delta = {delta} keeps derivative {beta} "
            f"with monomial {term}"
        )
    return QuantCoefficients(tuple(values))


def quantize_densities(m, k, lam, mu, symbol: TensorSection):
    """Quantize a symbol of degree k and weight mu - lambda into an operator.

    Returns the operator with the solved coefficients; raises ValueError for a
    symbol `_check_symbol` refuses and ResonantWeight at a resonant weight.
    """
    _check_symbol(m, k, Fraction(mu) - Fraction(lam), symbol)
    coeffs = density_quant_coefficients(m, k, lam, mu)
    return quantization_operator(symbol, coeffs.values), coeffs


def _check_symbol(m: int, k: int, delta: Fraction, symbol: TensorSection) -> None:
    """ValueError unless the symbol lies in S^k (x) F_delta, checked in order:
    rank m, degree k, no twist and weight delta; every key k indices below m;
    one polynomial on all rearrangements of each stored key."""
    if symbol.rank != m or symbol.degree != k:
        raise ValueError(f"symbol has shape ({symbol.rank}, {symbol.degree}), want ({m}, {k})")
    if symbol.twist != 0 or Fraction(symbol.weight) != delta:
        raise ValueError("symbol must be twist-free with weight mu - lambda")
    _check_keys(m, k, symbol.coeffs)
    seen = set()  # the sorted indices whose rearrangements were compared
    for index, p in symbol.coeffs.items():
        if (key := tuple(sorted(index))) not in seen:
            seen.add(key)
            for other in _rearrangements(key):
                if symbol.coeffs.get(other) != p:
                    raise ValueError(
                        f"symbol is not symmetric: index {index} and its rearrangement "
                        f"{other} hold different polynomials"
                    )


def solver_singular_deltas(m: int, k: int, lam=Fraction(1, 2)) -> tuple[Fraction, ...]:
    """All weight shifts at which the quantization solve degenerates, ascending.

    They are the zeros of the denominators (m + 2k - j)/(m + 1) - delta,
    j = 1..k, of the Lecomte-Ovsienko product, where the solve raises
    ResonantWeight.  The set does not depend on `lam`; the tests prove, from
    the determinant of the sampled quadratic-generator equations, that the
    equations degenerate exactly there.
    """
    return tuple(sorted(Fraction(m + 2 * k - j, m + 1) for j in range(1, k + 1)))


class EquivarianceReport(Record):
    """Exactness of the commutation defect per grading of the generator."""

    __slots__ = ("translations_exact", "linear_exact", "quadratic_exact", "failures")

    @property
    def all_exact(self) -> bool:
        return self.translations_exact and self.linear_exact and self.quadratic_exact


def verify_equivariance(
    m, k, lam, mu, coefficients, symbols, functions
) -> EquivarianceReport:
    """Check L_X(Q(P) f) = Q(L_X P) f + Q(P)(L_X f) over a generating set.

    Residuals are computed exactly for every basis generator of sl(m+1),
    each sample symbol, and each test function; nonzero residuals are
    reported per grading, each failure naming its generator's index in
    `sl_basis(m)`, rather than raised.  Constants c_0..c_k of another
    order, any symbol `_check_symbol` refuses, as `quantize_densities` does,
    and symbols or functions with no nonzero entry raise ValueError.
    """
    lam = Fraction(lam)
    mu = Fraction(mu)
    if len(coefficients) != k + 1:
        raise ValueError(f"{len(coefficients)} constants for order k = {k}, want {k + 1}")
    for symbol in symbols:
        _check_symbol(m, k, mu - lam, symbol)
    # with nothing nonzero to apply, every residual would vanish
    if not any(symbols):
        raise ValueError("no nonzero symbol to check")
    if not any(functions):
        raise ValueError("no nonzero function to check")
    exact = {-1: True, 0: True, 1: True}
    failures = []
    # Q(P) does not depend on the generator
    qops = [(symbol, quantization_operator(symbol, coefficients)) for symbol in symbols]
    for g, h in enumerate(sl_basis(m)):
        field = proj_embedding(h)
        # constant, linear, quadratic: the field's degree is the grading plus one
        grading = max(p.total_degree() for p in field.components) - 1
        lie_in = lie_operator(field, lam)
        lie_out = lie_operator(field, mu)
        for si, (symbol, qop) in enumerate(qops):
            moved = quantization_operator(lie_derivative(field, symbol), coefficients)
            for fi, f in enumerate(functions):
                lhs = lie_out.apply(qop.apply(f))
                rhs = moved.apply(f) + qop.apply(lie_in.apply(f))
                if lhs != rhs:
                    exact[grading] = False
                    failures.append(
                        f"generator {g} (grading {grading}), symbol {si}, function {fi}"
                    )
    return EquivarianceReport(
        translations_exact=exact[-1],
        linear_exact=exact[0],
        quadratic_exact=exact[1],
        failures=tuple(failures),
    )
