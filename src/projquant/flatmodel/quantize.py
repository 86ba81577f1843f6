"""Equivariant quantization of density-valued symbols on flat space.

The ansatz is the constant-coefficient divergence form

    Q(P) f = sum_{l=0..k} c_l < Div^l P, grad^{k-l} f >,      c_0 = 1.

Translation and linear equivariance hold for every choice of the c_l, so
the defining conditions come from the quadratic generators alone.  One
symbol and one generator suffice: the symbol x_0^k d_0^k and the quadratic
field of direction 0 give k equations in c_1..c_k.  They are lower
bidiagonal, equation l holding c_(l-1) and c_l alone, so forward
substitution solves them: the triangular recursion of Duval, Lecomte and
Ovsienko.  Step l divides by a coefficient that vanishes only at a resonant
weight, the zero of the factor (m + 2k - l)/(m + 1) - delta of the
Lecomte-Ovsienko closed form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import ResonantWeight
from ..records import Record
from .algebra import proj_embedding, sl_basis
from .operators import DiffOperator, compose, contraction_operator, lie_operator
from .poly import Poly
from .sections import PolyVectorField, TensorSection, divergence, lie_derivative


class QuantCoefficients(Record):
    """Divergence-ansatz constants c_0..c_k with the symbol normalization c_0 = 1."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        if not values or values[0] != 1:
            raise ValueError("quantization coefficients must start with c_0 = 1")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in values))

    @property
    def order(self) -> int:
        return len(self.values) - 1


@lru_cache(maxsize=None)
def quadratic_generator(m: int) -> PolyVectorField:
    """The quadratic field generated by the lower-left matrix unit in direction 0."""
    h = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    h[m][0] = Fraction(1)
    return proj_embedding(h)


def generator_grading(h) -> int:
    """-1, 0, or 1 according to the block of sl(m+1) a basis matrix lives in."""
    m = len(h) - 1
    if any(h[m][j] for j in range(m)):
        return 1
    if any(h[i][m] for i in range(m)):
        return -1
    return 0


def divergence_tower(symbol: TensorSection) -> list[TensorSection]:
    """[P, Div P, ..., Div^k P] down to the scalar slot."""
    tower = [symbol]
    for _ in range(symbol.degree):
        tower.append(divergence(tower[-1]))
    return tower


def quantization_operator(
    symbol: TensorSection, coefficients, lam, mu
) -> DiffOperator:
    """Assemble Q(P) from a symbol and divergence-ansatz constants."""
    tower = divergence_tower(symbol)
    total = DiffOperator(symbol.rank, {}, lam, mu)
    for level, tensor in enumerate(tower):
        op = contraction_operator(tensor, lam, mu)
        total = total + op.scale(coefficients[level])
    return total


def _residual_family(m, lam, mu, symbol):
    """Operators O_l with residual(c) = sum_l c_l O_l for the quadratic generator."""
    field = quadratic_generator(m)
    lie_in = lie_operator(field, lam)
    lie_out = lie_operator(field, mu)
    ops = [contraction_operator(t, lam, mu) for t in divergence_tower(symbol)]
    moved_tower = divergence_tower(lie_derivative(field, symbol))
    return [
        compose(lie_out, op) - compose(op, lie_in) - contraction_operator(moved, lam, mu)
        for op, moved in zip(ops, moved_tower)
    ]


def density_quant_coefficients(m, k, lam, mu) -> QuantCoefficients:
    """Solve the quadratic-generator conditions exactly at fixed weights.

    The residual of the symbol x_0^k d_0^k is lower bidiagonal in c_1..c_k:
    its x_0^(k-l+1) d_0^(k-l) term reads b_l c_(l-1) + a_l c_l = 0, so
    forward substitution gives c_l = -b_l c_(l-1) / a_l.  Each a_l is affine
    in delta and vanishes only at (m + 2k - l)/(m + 1); there this raises
    ResonantWeight, inconsistent when b_l c_(l-1) != 0 and rank-deficient
    otherwise.  The whole residual is then checked to vanish.
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

    def resonant(problem: str) -> ResonantWeight:
        # name the closed-form factor (m + 2k - j)/(m + 1) - delta that is zero
        j = m + 2 * k - delta * (m + 1)
        if j.denominator == 1 and 1 <= j <= k:
            cause = f"factor j = {j}, (m+2k-j)/(m+1) = {delta} vanishes"
        else:
            cause = f"delta is none of the factors (m+2k-j)/(m+1), j = 1..{k}"
        return ResonantWeight(f"quantization {problem} at delta = {delta}: {cause}", delta)

    pad = (0,) * (m - 1)
    symbol = TensorSection(m, k, 0, delta, {(0,) * k: Poly.monomial(m, (k,) + pad)})
    family = _residual_family(m, lam, mu, symbol)

    def entry(op: DiffOperator, order: int):
        # the x_0^(order+1) d_0^order coefficient of one residual operator
        p = op.coeffs.get((order,) + pad)
        return p.coeffs.get((order + 1,) + pad, 0) if p else 0

    values = [Fraction(1)]
    for level in range(1, k + 1):
        b = entry(family[level - 1], k - level) * values[-1]
        a = entry(family[level], k - level)
        if a == 0:
            raise resonant("system inconsistent" if b else "system rank-deficient")
        values.append(-b / a)
    residual = DiffOperator(m, {}, lam, mu)
    for c, op in zip(values, family):
        residual = residual + op.scale(c)
    if residual:
        beta = min(residual.coeffs)
        term = min(residual.coeffs[beta].coeffs)
        raise RuntimeError(
            f"quantization residual at delta = {delta} keeps derivative {beta} "
            f"with monomial {term}"
        )
    return QuantCoefficients(tuple(values))


def quantize_densities(m, k, lam, mu, symbol: TensorSection):
    """Quantize a degree-k symbol of weight mu - lambda into an operator.

    Returns the operator together with the solved coefficients; raises
    ResonantWeight when mu - lambda is resonant for degree-k symbols.
    """
    lam = Fraction(lam)
    mu = Fraction(mu)
    if symbol.rank != m or symbol.degree != k:
        raise ValueError(f"symbol has shape ({symbol.rank}, {symbol.degree}), want ({m}, {k})")
    if symbol.twist != 0 or Fraction(symbol.weight) != mu - lam:
        raise ValueError("symbol must be twist-free with weight mu - lambda")
    coeffs = density_quant_coefficients(m, k, lam, mu)
    return quantization_operator(symbol, coeffs.values, lam, mu), coeffs


def solver_singular_deltas(m: int, k: int, lam=Fraction(1, 2)) -> tuple[Fraction, ...]:
    """All weight shifts at which the quantization solve degenerates, ascending.

    They are the zeros of the factors (m + 2k - j)/(m + 1) - delta,
    j = 1..k, of the Lecomte-Ovsienko closed form: the solve's system is
    bidiagonal, so its determinant is the product of the diagonal
    coefficients a_l, and a_l vanishes only at the factor j = l.  The set
    does not depend on `lam`; the tests prove, from the determinant of the
    solve's own rows, that the solve degenerates exactly there.
    """
    return tuple(sorted(Fraction(m + 2 * k - j, m + 1) for j in range(1, k + 1)))


class EquivarianceReport(Record):
    """Exactness of the commutation defect per grading of the generator."""

    __slots__ = ("translations_exact", "linear_exact", "quadratic_exact", "failures")

    def __init__(
        self,
        translations_exact: bool,
        linear_exact: bool,
        quadratic_exact: bool,
        failures: tuple[str, ...] = (),
    ) -> None:
        object.__setattr__(self, "translations_exact", translations_exact)
        object.__setattr__(self, "linear_exact", linear_exact)
        object.__setattr__(self, "quadratic_exact", quadratic_exact)
        object.__setattr__(self, "failures", failures)

    @property
    def all_exact(self) -> bool:
        return self.translations_exact and self.linear_exact and self.quadratic_exact


def verify_equivariance(
    m, k, lam, mu, coefficients, symbols, functions
) -> EquivarianceReport:
    """Check L_X(Q(P) f) = Q(L_X P) f + Q(P)(L_X f) over a generating set.

    Residuals are computed exactly for every basis generator of sl(m+1),
    each sample symbol, and each test function; nonzero residuals are
    reported per grading rather than raised.
    """
    lam = Fraction(lam)
    mu = Fraction(mu)
    exact = {-1: True, 0: True, 1: True}
    failures = []
    # Q(P) does not depend on the generator
    qops = [(symbol, quantization_operator(symbol, coefficients, lam, mu)) for symbol in symbols]
    for h in sl_basis(m):
        grading = generator_grading(h)
        field = proj_embedding(h)
        lie_in = lie_operator(field, lam)
        lie_out = lie_operator(field, mu)
        for si, (symbol, qop) in enumerate(qops):
            moved = quantization_operator(
                lie_derivative(field, symbol), coefficients, lam, mu
            )
            for fi, f in enumerate(functions):
                lhs = lie_out.apply(qop.apply(f))
                rhs = moved.apply(f) + qop.apply(lie_in.apply(f))
                if lhs != rhs:
                    exact[grading] = False
                    failures.append(f"grading {grading}, symbol {si}, function {fi}")
    return EquivarianceReport(
        translations_exact=exact[-1],
        linear_exact=exact[0],
        quadratic_exact=exact[1],
        failures=tuple(failures),
    )
