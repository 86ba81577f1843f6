"""The projective embedding of sl(m+1) and its Casimir operator on flat space.

Traceless (m+1)x(m+1) matrices act on affine space through the projective
action on lines; in block form h = [[A, u], [xi, a]] with a = -tr A the
generated field is

    X_h = u  +  (A - a Id) x  -  (xi . x) x,

constant for the u block, linear for the A block, quadratic for the xi
block.  The map is an antihomomorphism: [X_h, X_k] = -X_{[h,k]}.

The Casimir operator sums L_u L_{u+} over a Killing-dual pair of bases,
with the Killing form kappa(X, Y) = 2(m+1) tr(XY); on a section attached to
an irreducible label it acts by the scalar eigenvalue, which is what the
exact tests downstream verify.

The sum does not depend on the section, so it is expanded once per rank.
With L_X = X . grad + sum_slots (-DX on the slot) + t div X, t = delta - n,
it splits into a scalar part with terms in t^0, t^1, t^2, a one-slot part
per (i <- j) with terms in t^0, t^1, and a two-slot part per
(i, i' <- j, j').  The operator commutes with translations and with the
Euler field, so after the exact sums every term is a constant: the kernels
are {power of t: constant} for the scalar part and each one-slot entry and
one constant per two-slot entry, a constant matrix on index tuples.  Each
builder checks that once per rank and raises RuntimeError, naming the rank,
the part and the term, on a term with a derivative or a non-constant
coefficient.  Each kernel is cached per rank and built on first use, so a
scalar section builds only the first.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .poly import Poly, poly_sum
from .sections import PolyVectorField, TensorSection

Matrix = tuple[tuple[Fraction, ...], ...]


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def matrix_trace(a: Matrix) -> Fraction:
    return sum(a[i][i] for i in range(len(a)))


def matrix_bracket(a: Matrix, b: Matrix) -> Matrix:
    ab = matrix_mul(a, b)
    ba = matrix_mul(b, a)
    n = len(a)
    return tuple(tuple(ab[i][j] - ba[i][j] for j in range(n)) for i in range(n))


def killing_form(a: Matrix, b: Matrix) -> Fraction:
    """kappa(a, b) = 2(m+1) tr(ab) on sl(m+1)."""
    n = len(a)
    return 2 * n * sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


def _matrix(size: int, entries: dict) -> Matrix:
    """size x size matrix with the given {(row, column): value} entries."""
    return tuple(
        tuple(Fraction(entries.get((r, c), 0)) for c in range(size)) for r in range(size)
    )


def sl_basis(m: int) -> list[Matrix]:
    """Elementary traceless matrices spanning sl(m+1), in a fixed order.

    Off-diagonal units E_ab first (row-major), then E_ii - E_{m+1,m+1}.
    """
    if m < 2:
        raise ValueError("rank must be at least 2")
    p = m + 1
    basis = [_matrix(p, {(a, b): 1}) for a in range(p) for b in range(p) if a != b]
    basis += [_matrix(p, {(i, i): 1, (m, m): -1}) for i in range(m)]
    return basis


@lru_cache(maxsize=None)
def killing_dual_basis(m: int) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
    """Basis of sl(m+1) together with its Killing-dual basis, in closed form.

    With kappa(X, Y) = 2(m+1) tr(XY), the dual of E_ab is E_ba / 2(m+1).
    The Cartan elements H_i = E_ii - E_{m+1,m+1} have Gram matrix 2(m+1)(I + J),
    whose inverse is (I - J/(m+1)) / 2(m+1); summed against the H_j this
    makes the dual of H_i the traceless matrix (E_ii - I/(m+1)) / 2(m+1).
    """
    basis = sl_basis(m)
    p = m + 1
    c = Fraction(1, 2 * p)
    dual = [_matrix(p, {(b, a): c}) for a in range(p) for b in range(p) if a != b]
    dual += [
        _matrix(p, {(r, r): c * ((1 if r == i else 0) - Fraction(1, p)) for r in range(p)})
        for i in range(m)
    ]
    return tuple(basis), tuple(dual)


def proj_embedding(h) -> PolyVectorField:
    """Vector field generated by a traceless matrix under the projective action."""
    h = _as_matrix(h)
    m = len(h) - 1
    if m < 2:
        raise ValueError("matrix must be at least 3x3")
    if matrix_trace(h) != 0:
        raise ValueError(f"matrix must be traceless, got trace {matrix_trace(h)}")
    a = h[m][m]
    comps = []
    for i in range(m):
        p = Poly.zero(m)
        if h[i][m]:
            p = p + Poly.constant(m, h[i][m])
        for j in range(m):
            c = h[i][j] - (a if i == j else 0)
            if c:
                p = p + Poly.variable(m, j).scale(c)
        for j in range(m):
            if h[m][j]:
                p = p - (Poly.variable(m, j) * Poly.variable(m, i)).scale(h[m][j])
        comps.append(p)
    return PolyVectorField(tuple(comps))


@lru_cache(maxsize=None)
def casimir_field_pairs(m: int) -> tuple[tuple[PolyVectorField, PolyVectorField], ...]:
    """Embedded Killing-dual pairs (u, u+) of sl(m+1)."""
    basis, dual = killing_dual_basis(m)
    return tuple((proj_embedding(u), proj_embedding(ud)) for u, ud in zip(basis, dual))


def _nonzero(polys) -> list[tuple[int, Poly]]:
    return [(a, p) for a, p in enumerate(polys) if p]


def _jacobian_entries(field: PolyVectorField) -> list[tuple[int, int, Poly]]:
    """Nonzero (i, j, d_j X^i); the slot action of X sends value j to i by minus it."""
    return [(i, j, g) for i, row in enumerate(field.jacobian) for j, g in enumerate(row) if g]


def _constants(m: int, part: str, parts: dict) -> dict:
    """{key: constant} of the nonzero sums in parts, keyed (key, derivative).

    A derivative lists the sorted variables a term differentiates in.  The
    Casimir commutes with translations and with the Euler field, so each
    nonzero sum must be a constant with derivative (); anything else is a
    fault in the construction and raises, naming the rank, part and term.
    """
    out = {}
    for (key, derivative), p in parts.items():
        p = poly_sum(m, p)
        if not p:
            continue
        if derivative or p.total_degree():
            raise RuntimeError(
                f"Casimir kernel of rank {m}, {part} part: term {key} with derivative "
                f"{derivative} and coefficient {p!r} is not a constant"
            )
        out[key] = p.eval((0,) * m)
    return out


@lru_cache(maxsize=None)
def _scalar_kernel(m: int) -> dict[int, Fraction]:
    """The part of sum L_u L_u+ that acts on every component alike.

    With D_X = X . grad and f_X = div X it is
    sum_u D_u D_u+ + t ((D_u f_u+) + f_u+ D_u + f_u D_u+) + t^2 f_u f_u+,
    reduced to {power of t: constant}.
    """
    parts = defaultdict(list)
    for u, v in casimir_field_pairs(m):
        for a, ua in _nonzero(u.components):
            for b, vb in _nonzero(v.components):
                parts[(0, tuple(sorted((a, b))))].append(ua * vb)
                if v.jacobian[b][a]:
                    parts[(0, (b,))].append(ua * v.jacobian[b][a])
            if v.div:
                parts[(1, (a,))].append(v.div * ua)
                if v.div.diff(a):
                    parts[(1, ())].append(ua * v.div.diff(a))
        if u.div:
            for a, va in _nonzero(v.components):
                parts[(1, (a,))].append(u.div * va)
            if v.div:
                parts[(2, ())].append(u.div * v.div)
    return _constants(m, "scalar", parts)


@lru_cache(maxsize=None)
def _slot_kernel(m: int) -> dict[int, tuple[tuple[int, dict[int, Fraction]], ...]]:
    """The part of sum L_u L_u+ that moves one slot from value j to value i.

    With M_X = -DX acting on the slot it is
    sum_u (M_u+ D_u + M_u D_u+ + (D_u M_u+) + M_u M_u+) + t (f_u+ M_u + f_u M_u+),
    keyed by j: the targets i with their {power of t: constant}.
    """
    parts = defaultdict(list)
    for u, v in casimir_field_pairs(m):
        v_entries = _jacobian_entries(v)
        for i, j, g in v_entries:
            for a, ua in _nonzero(u.components):
                parts[((i, j, 0), (a,))].append(-(ua * g))
                if g.diff(a):
                    parts[((i, j, 0), ())].append(-(ua * g.diff(a)))
            if u.div:
                parts[((i, j, 1), ())].append(-(u.div * g))
        for i, j, g in _jacobian_entries(u):
            for a, va in _nonzero(v.components):
                parts[((i, j, 0), (a,))].append(-(va * g))
            if v.div:
                parts[((i, j, 1), ())].append(-(v.div * g))
            for k, j2, h in v_entries:
                if k == j:
                    parts[((i, j2, 0), ())].append(g * h)
    by_source = defaultdict(lambda: defaultdict(dict))
    for (i, j, power), c in _constants(m, "one-slot", parts).items():
        by_source[j][i][power] = c
    return {j: tuple(targets.items()) for j, targets in by_source.items()}


@lru_cache(maxsize=None)
def _pair_kernel(m: int) -> dict[tuple[int, int], tuple[tuple[tuple[int, int], Fraction], ...]]:
    """The part of sum L_u L_u+ that moves two distinct slots at once.

    It is sum_u M_u M_u+ with M_u on one slot and M_u+ on another, keyed by
    the source values (j, j'): the targets (i, i') with their constants.
    """
    parts = defaultdict(list)
    for u, v in casimir_field_pairs(m):
        v_entries = _jacobian_entries(v)
        for i, j, g in _jacobian_entries(u):
            for i2, j2, h in v_entries:
                parts[((j, j2, i, i2), ())].append(g * h)
    by_source = defaultdict(list)
    for (j, j2, i, i2), c in _constants(m, "two-slot", parts).items():
        by_source[(j, j2)].append(((i, i2), c))
    return {source: tuple(targets) for source, targets in by_source.items()}


def classical_casimir(section: TensorSection) -> TensorSection:
    """Casimir operator sum_u L_u L_u+ along the projective embedding, exactly.

    Applies the three constant kernels of the rank, built from the cached
    Killing-dual field pairs on first use and cached per rank: the scalar
    one to every component, the one-slot one (i <- j) on every slot, and
    the two-slot one (i, i' <- j, j') on every ordered pair of distinct
    slots.  The powers of t = delta - n in the first two are summed at the
    section's t.  Each builder checks once per rank that every surviving
    term is a constant with no derivative and raises RuntimeError otherwise.
    A section with fewer than two slots builds no two-slot kernel, a scalar
    one no one-slot kernel either.  Independent of the basis choice; the
    result equals the sum of iterated Lie derivatives exactly.
    """
    m = section.rank
    t = section.weight - section.twist
    scalar = sum(c * t**power for power, c in _scalar_kernel(m).items())
    slots = range(section.degree)
    one_slot = {
        j: [(i, sum(c * t**power for power, c in powers.items())) for i, powers in targets]
        for j, targets in (_slot_kernel(m) if section.degree else {}).items()
    }
    two_slot = _pair_kernel(m) if section.degree > 1 else {}
    # every constant as an int over one denominator, so the sums below are int sums
    constants = [c for kernel in (one_slot, two_slot) for v in kernel.values() for _, c in v]
    den = lcm(scalar.denominator, *(c.denominator for c in constants))
    scalar = scalar.numerator * den // scalar.denominator
    one_slot, two_slot = (
        {j: [(i, c.numerator * den // c.denominator) for i, c in v] for j, v in kernel.items()}
        for kernel in (one_slot, two_slot)
    )
    slot_pairs = [(s, s2) for s in slots for s2 in slots if s != s2]
    parts: dict[tuple[int, ...], list[Poly]] = defaultdict(list)
    for index, p in section.coeffs.items():
        # the constants by target, summed before they scale p
        factors = defaultdict(int, {index: scalar})
        for s in slots:
            for i, c in one_slot.get(index[s], ()):
                factors[index[:s] + (i,) + index[s + 1 :]] += c
        for s, s2 in slot_pairs:
            for (i, i2), c in two_slot.get((index[s], index[s2]), ()):
                target = list(index)
                target[s], target[s2] = i, i2
                factors[tuple(target)] += c
        for target, c in factors.items():
            if c:
                parts[target].append(p.scale(Fraction(c, den)))
    out = {index: poly_sum(m, polys) for index, polys in parts.items()}
    return TensorSection(m, section.degree, section.twist, section.weight, out)
