"""Shared oracles and random generators for the test suite.

The second routes the library is checked against live here, not in the
library: among them the alternant-ratio Schur value beside the tableau sum
that checks it, the eigenvalue-gap resonances, the Killing-dual basis and
the Casimir derivation from it, and one exact Gauss-Jordan elimination
behind `det` and `invert_matrix`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod

import pytest
from hypothesis import strategies as st

from projquant import (
    BranchLabel,
    EigenvaluePoly,
    IrrepLabel,
    ResonantWeight,
    YoungDiagram,
    branch_labels,
    canonicalize,
    component,
    eigenvalue,
    extend_rank,
)
from projquant.flatmodel import (
    DiffOperator,
    Poly,
    PolyVectorField,
    TensorSection,
    compose,
    contraction_operator,
    density_quant_coefficients,
    lie_derivative,
    lie_operator,
    proj_embedding,
    sl_basis,
)
from projquant.flatmodel.algebra import _matrix
from projquant.flatmodel.operators import operator_combination
from projquant.flatmodel.poly import poly_sum
from projquant.flatmodel.quantize import divergence_tower, quadratic_generator

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


def schur_eval(diagram: YoungDiagram, point: Sequence[Fraction]) -> Fraction:
    """Schur polynomial value at a point with distinct nonzero coordinates.

    Computed as the ratio of alternants det(x_i^{lam_j+m-1-j}) / Vandermonde.
    Zero when the diagram is deeper than the number of variables.
    """
    xs = [Fraction(x) for x in point]
    m = len(xs)
    if len(set(xs)) != m:
        raise ValueError(f"point coordinates must be pairwise distinct: {xs}")
    if any(x == 0 for x in xs):
        raise ValueError(f"point coordinates must be nonzero: {xs}")
    if diagram.depth > m:
        return Fraction(0)
    lam = diagram.padded(m)
    num = det([[x ** (lam[j] + m - 1 - j) for j in range(m)] for x in xs])
    den = det([[x ** (m - 1 - j) for j in range(m)] for x in xs])
    return num / den


def char_eval(label: IrrepLabel, point: Sequence[Fraction]) -> Fraction:
    """Character value s_D(x) * (x1...xm)^twist of the rational part of a label.

    The |det|^weight factor is continuous, not rational, and is excluded;
    this is the quantity that character identities balance exactly.
    """
    if len(point) != label.rank:
        raise ValueError(f"need {label.rank} coordinates, got {len(point)}")
    return schur_eval(label.diagram, point) * prod(map(Fraction, point)) ** label.twist


def unpruned_outer_shapes(inner: Rows, total: int, ceilings: Rows) -> list[Rows]:
    """Partitions of `total` boxes that contain `inner` and lie under the
    per-row `ceilings`, found row by row with no pruning: each once."""
    results: list[Rows] = []

    def build(i: int, prev: int, remaining: int, acc: list[int]) -> None:
        if remaining == 0:
            results.append(tuple(acc) + inner[i:])
            return
        if i >= len(ceilings):
            return
        low = inner[i] if i < len(inner) else 0
        for c in range(low, min(prev, low + remaining, ceilings[i]) + 1):
            acc.append(c)
            build(i + 1, c, remaining - (c - low), acc)
            acc.pop()

    build(0, total, total - sum(inner), [])
    return results


def lr_fillings(outer: Rows, inner: Rows, content: Rows) -> int:
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


def lr_by_fillings(a: IrrepLabel, b: IrrepLabel) -> dict[IrrepLabel, int]:
    """Littlewood-Richardson terms shape by shape: every outer shape no deeper
    than the rank whose first row fits both first rows, weighed by its count
    of lattice fillings.  The walk the strip rule replaced, kept as its
    independent oracle."""
    m = a.rank
    inner, content = a.diagram.rows, b.diagram.rows
    first = max(inner, default=0) + max(content, default=0)
    ceilings = (first,) * min(len(inner) + len(content), m)
    counts: dict[IrrepLabel, int] = {}
    for outer in unpruned_outer_shapes(inner, a.size + b.size, ceilings):
        mult = lr_fillings(outer, inner, content)
        if mult:
            term = canonicalize(outer, m, a.twist + b.twist, a.weight + b.weight)
            counts[term] = counts.get(term, 0) + mult
    return counts


def closed_form_coefficients(m: int, k: int, lam, mu) -> tuple[Fraction, ...]:
    """Divergence-ansatz constants from the Lecomte-Ovsienko formula

        c_l = C(k, l) prod_{j=1..l} (lam + (k - j)/(m + 1)) / ((m + 2k - j)/(m + 1) - delta)

    with delta = mu - lam.  The library evaluates the same product, so the
    value tests also check the sampled equations of `_equations`."""
    delta = Fraction(mu) - Fraction(lam)
    values = []
    for level in range(k + 1):
        c = Fraction(comb(k, level))
        for j in range(1, level + 1):
            c *= (lam + Fraction(k - j, m + 1)) / (Fraction(m + 2 * k - j, m + 1) - delta)
        values.append(c)
    return tuple(values)


class LinearSystem:
    """Incremental row reduction; tracks rank and detects inconsistency.

    Rows are (coefficients, rhs) pairs reduced against the pivots seen so
    far.  Feeding every equation of an overdetermined system through `add`
    classifies it: full-rank and consistent, rank-deficient, or inconsistent.
    The general reference the quantization's closed form and the
    Young-image ranks are checked against.
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


def _residual_family(m, lam, mu, symbol):
    """Operators O_l with residual(c) = sum_l c_l O_l for the quadratic generator."""
    field = quadratic_generator(m)
    lie_in = lie_operator(field, lam)
    lie_out = lie_operator(field, mu)
    ops = [contraction_operator(t) for t in divergence_tower(symbol)]
    moved_tower = divergence_tower(lie_derivative(field, symbol))
    return [
        operator_combination(
            m,
            [
                (1, compose(lie_out, op)),
                (-1, compose(op, lie_in)),
                (-1, contraction_operator(moved)),
            ],
        )
        for op, moved in zip(ops, moved_tower)
    ]


def _equations(m: int, k: int, lam, mu) -> dict:
    """Equations sum_{l>=1} c_l row[l-1] = rhs from the symbol x_0^k d_0^k,
    keyed by the (derivative, monomial) term of the residual they come from:
    every term of the residual, for the general elimination the library's
    closed form is checked against."""
    monomial = Poly.monomial(m, (k,) + (0,) * (m - 1))
    symbol = TensorSection(m, k, 0, mu - lam, {(0,) * k: monomial})
    rows = {}  # (beta, monomial) -> its coefficient in O_0..O_k
    for level, op in enumerate(_residual_family(m, lam, mu, symbol)):
        for beta, p in op.coeffs.items():
            for mono, x in p.coeffs.items():
                rows.setdefault((beta, mono), [0] * (k + 1))[level] = x
    return {key: (row[1:], -row[0]) for key, row in rows.items()}


def assert_solve_singular_exactly_on_formula(m: int, k: int, lam) -> tuple[Fraction, ...]:
    """Prove from the sampled equations that the order-k solve at rank m
    and weight lam degenerates exactly at delta = (m + 2k - j)/(m + 1),
    j = 1..k, and return those shifts in ascending order.

    Every entry of the equations is affine in delta by construction (each
    residual term passes through one weight-bearing Lie derivative); the
    assemblies at delta = 0, 1, 2 check it.  The determinant D of k
    independent rows then has degree <= k, so agreeing with
    C * prod_j (delta - r_j) at k + 2 points makes it that polynomial.  For
    any other row, residual * D has degree <= k + 1, and the solve succeeding
    (its guard checks the whole residual) at the same k + 2 points makes it
    vanish identically: off the roots every equation holds.  At each root
    the solve must fail.  The checks raise
    AssertionError explicitly, so they also run under python -O.
    """
    lam = Fraction(lam)
    roots = [Fraction(m + 2 * k - j, m + 1) for j in range(1, k + 1)]
    eqs = [_equations(m, k, lam, lam + d) for d in (0, 1, 2)]
    rows = {}  # key -> (entries at delta = 0, slope in delta), rhs last
    for key in set().union(*eqs):
        a, b, c = ([*e[key][0], e[key][1]] if key in e else [0] * (k + 1) for e in eqs)
        if any(z - y != y - x for x, y, z in zip(a, b, c)):
            raise AssertionError(f"{key} not affine")
        rows[key] = (a, [y - x for x, y in zip(a, b)])

    def row_at(delta, key):
        const, slope = rows[key]
        return [x + delta * s for x, s in zip(const[:k], slope[:k])]

    points = [Fraction(-1 - i, 3) for i in range(k + 2)]  # below every root
    system = LinearSystem(k)
    square = [key for key in sorted(rows) if system.add(row_at(points[0], key), 0)]
    if len(square) != k:
        raise AssertionError("the sampled rows do not determine the coefficients")
    ratios = {
        det([row_at(d, key) for key in square]) / prod(d - r for r in roots) for d in points
    }
    if len(ratios) != 1 or 0 in ratios:
        raise AssertionError(ratios)
    for d in points:
        density_quant_coefficients(m, k, lam, lam + d)
    for r in roots:
        with pytest.raises(ResonantWeight):
            density_quant_coefficients(m, k, lam, lam + r)
    return tuple(sorted(roots))


def dense_divergence(section: TensorSection) -> TensorSection:
    """Div by probing all m^(d-1) index tuples for their m first-slot
    extensions: the reference for the library's walk over stored components."""
    if section.degree < 1:
        raise ValueError("divergence needs at least one slot")
    m = section.rank
    coeffs = section.coeffs
    out = {
        index: poly_sum(
            m, [coeffs[(j,) + index].diff(j) for j in range(m) if (j,) + index in coeffs]
        )
        for index in product(range(m), repeat=section.degree - 1)
    }
    return TensorSection(m, section.degree - 1, section.twist, section.weight, out)


def dense_contraction_operator(tensor: TensorSection) -> DiffOperator:
    """<T, grad^d f> by probing all m^d index tuples: the reference for the
    library's walk over stored components."""
    m = tensor.rank
    out: dict[tuple[int, ...], Poly] = {}
    for index in product(range(m), repeat=tensor.degree):
        p = tensor.coeffs.get(index)
        if p:
            beta = [0] * m
            for i in index:
                beta[i] += 1
            key = tuple(beta)
            s = out.get(key)
            out[key] = p if s is None else s + p
    return DiffOperator(m, out)


def operator_sum_by_beta(rank: int, terms) -> DiffOperator:
    """sum c * op over (c, op) terms, one Poly.scale and one Poly + per term
    and multi-index: the reference for the library's single merge."""
    out: dict[tuple[int, ...], Poly] = {}
    for c, op in terms:
        for beta, p in op.coeffs.items():
            out[beta] = out.get(beta, Poly.zero(rank)) + p.scale(c)
    return DiffOperator(rank, out)


def eigenvalue_by_double_sum(label: IrrepLabel) -> EigenvaluePoly:
    """The Casimir eigenvalue with its diagram part summed over all m^2
    index pairs i, j of the rows padded to the rank m:

        alpha = (m(n - delta) + d)(m(n + 1 - delta) + d) / 2m
              + (1 / 2m(m+1)) * sum_{i,j} d_i d_j (m kron_ij - 1) + 2 d_i (m - j)(m kron_ij - 1)

    the reference for the library's closed j-sums."""
    m = label.rank
    d = label.diagram.padded(m)
    a = m * label.twist + label.size
    s = 0
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            kron = m if i == j else 0
            s += d[i - 1] * d[j - 1] * (kron - 1) + 2 * d[i - 1] * (m - j) * (kron - 1)
    return EigenvaluePoly(
        Fraction(a * (a + m), 2 * m) + Fraction(s, 2 * m * (m + 1)),
        Fraction(-(2 * a + m), 2),
        Fraction(m, 2),
    )


def resonances_generic(label: IrrepLabel) -> frozenset[Fraction]:
    """Resonant weights found by equating eigenvalues of branching components.

    For each nonzero removal vector q of the rank extension of `label`,
    alpha_q - alpha_0 is affine in delta with slope |q|, so it has exactly
    one root; the set of those roots is the reference for the library's
    closed form `resonances`.
    """
    parent = extend_rank(label)
    alpha0 = eigenvalue(component(parent, BranchLabel()))
    values = set()
    for q in branch_labels(parent):
        if q.norm == 0:
            continue
        alphaq = eigenvalue(component(parent, q))
        values.add(-(alphaq.c0 - alpha0.c0) / (alphaq.c1 - alpha0.c1))
    return frozenset(values)


def padded_row_slacks(parent: IrrepLabel) -> tuple[int, ...]:
    """Removal capacities d_i - d_{i+1} for i = 1..m, over the parent's rows
    padded to the child rank m: the reference for the library's slacks of
    the nonzero rows."""
    m = parent.rank - 1
    d = parent.diagram.padded(m + 1)
    return tuple(d[i] - d[i + 1] for i in range(m))


def padded_branch_labels(parent: IrrepLabel) -> list[BranchLabel]:
    """`branch_labels` walking one slot per row up to the child rank."""
    slacks = padded_row_slacks(parent)
    return [BranchLabel(q) for q in product(*(range(s + 1) for s in slacks))]


def padded_component(parent: IrrepLabel, q: BranchLabel) -> IrrepLabel:
    """`component` checking and subtracting q over rows padded to the child rank."""
    m = parent.rank - 1
    slacks = padded_row_slacks(parent)
    if len(q.removals) > m:
        raise ValueError(f"removal vector {q} too long for rank-{parent.rank} parent")
    for qi, slack in zip(q.padded(m), slacks):
        if qi > slack:
            raise ValueError(f"removal vector {q} violates row bounds {slacks} of {parent}")
    rows = tuple(d - r for d, r in zip(parent.diagram.padded(m), q.padded(m)))
    return canonicalize(rows, m, parent.twist, parent.weight)


def matrix_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def matrix_trace(a) -> Fraction:
    return sum(a[i][i] for i in range(len(a)))


def matrix_bracket(a, b):
    ab = matrix_mul(a, b)
    ba = matrix_mul(b, a)
    n = len(a)
    return tuple(tuple(ab[i][j] - ba[i][j] for j in range(n)) for i in range(n))


def killing_form(a, b) -> Fraction:
    """kappa(a, b) = 2(m+1) tr(ab) on sl(m+1)."""
    n = len(a)
    return 2 * n * sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


def killing_dual_basis(m: int):
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


def jacobian(field: PolyVectorField) -> tuple[tuple[Poly, ...], ...]:
    """The dense m x m table of d_j X^i, row i and column j."""
    m = field.rank
    return tuple(tuple(c.diff(j) for j in range(m)) for c in field.components)


def dense_lie_derivative(field: PolyVectorField, section: TensorSection) -> TensorSection:
    """Lie derivative with the slot action read off the whole negated Jacobian,
    testing all m targets per slot: the reference for `lie_derivative`, which
    derives only the columns its index values use."""
    m = section.rank
    if field.rank != m:
        raise ValueError("field and section rank differ")
    neg_jac = [[-g for g in row] for row in jacobian(field)]
    weighted_div = field.div.scale(section.weight - section.twist)
    parts: dict = defaultdict(list)
    for index, p in section.coeffs.items():
        own = parts[index]
        own.extend(c * p.diff(j) for j, c in enumerate(field.components) if c)
        if weighted_div:
            own.append(weighted_div * p)
        for slot in range(section.degree):
            j = index[slot]
            for i in range(m):
                g = neg_jac[i][j]
                if g:
                    target = list(index)
                    target[slot] = i
                    parts[tuple(target)].append(g * p)
    out = {index: poly_sum(m, terms) for index, terms in parts.items()}
    return TensorSection(m, section.degree, section.twist, section.weight, out)


def field_bracket(x: PolyVectorField, y: PolyVectorField) -> PolyVectorField:
    """Commutator [x, y] of polynomial vector fields."""
    m = x.rank
    x_jac, y_jac = jacobian(x), jacobian(y)
    comps = []
    for i in range(m):
        acc = Poly.zero(m)
        for j in range(m):
            acc = acc + x.components[j] * y_jac[i][j]
            acc = acc - y.components[j] * x_jac[i][j]
        comps.append(acc)
    return PolyVectorField(tuple(comps))


def max_coefficient_degree(section: TensorSection) -> int:
    return max((p.total_degree() for p in section.coeffs.values()), default=-1)


def section_product(a: TensorSection, b: TensorSection) -> TensorSection:
    """a (x) b: index tuples concatenated and coefficients multiplied; the
    slot counts, twists and weights add."""
    if a.rank != b.rank:
        raise ValueError(f"sections of rank {a.rank} and {b.rank} do not multiply")
    coeffs = {i + j: p * q for i, p in a.coeffs.items() for j, q in b.coeffs.items()}
    return TensorSection(
        a.rank, a.degree + b.degree, a.twist + b.twist, a.weight + b.weight, coeffs
    )


@lru_cache(maxsize=None)
def casimir_field_pairs(m: int) -> tuple[tuple[PolyVectorField, PolyVectorField], ...]:
    """Embedded Killing-dual pairs (u, u+) of sl(m+1)."""
    basis, dual = killing_dual_basis(m)
    return tuple((proj_embedding(u), proj_embedding(ud)) for u, ud in zip(basis, dual))


def direct_casimir(section: TensorSection) -> TensorSection:
    """sum_u L_u L_u+ over the Killing-dual field pairs, by 2 m(m+2) Lie
    derivatives of the section itself: the reference for the closed form
    that `classical_casimir` applies."""
    m = section.rank
    total = TensorSection(m, section.degree, section.twist, section.weight)
    for outer, inner in casimir_field_pairs(m):
        total = total + lie_derivative(outer, lie_derivative(inner, section))
    return total


# The derivation of the flat Casimir's closed form.  The sum does not depend
# on the section, so it is expanded once per rank.  With
# L_X = X . grad + sum_slots (-DX on the slot) + t div X, t = delta - n, it
# splits into a scalar part with terms in t^0, t^1, t^2, a one-slot part per
# (i <- j) with terms in t^0, t^1, and a two-slot part per (i, i' <- j, j').
# The operator commutes with translations and with the Euler field, so after
# the exact sums every term is a constant: the kernels are {power of t:
# constant} for the scalar part and each one-slot entry and one constant per
# two-slot entry.  Each builder checks that and raises RuntimeError, naming
# the rank, the part and the term, on a term with a derivative or a
# non-constant coefficient.


def derived_casimir_kernels(m: int) -> tuple[dict, dict, dict]:
    """The scalar, one-slot and two-slot kernels of rank m, derived from the
    Killing-dual field pairs; the tests compare them with the closed form."""
    return _scalar_kernel(m), _slot_kernel(m), _pair_kernel(m)


def _nonzero(polys) -> list[tuple[int, Poly]]:
    return [(a, p) for a, p in enumerate(polys) if p]


def _jacobian_entries(field: PolyVectorField) -> list[tuple[int, int, Poly]]:
    """Nonzero (i, j, d_j X^i); the slot action of X sends value j to i by minus it."""
    return [(i, j, g) for i, row in enumerate(jacobian(field)) for j, g in enumerate(row) if g]


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
        v_jac = jacobian(v)
        for a, ua in _nonzero(u.components):
            for b, vb in _nonzero(v.components):
                parts[(0, tuple(sorted((a, b))))].append(ua * vb)
                if v_jac[b][a]:
                    parts[(0, (b,))].append(ua * v_jac[b][a])
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


def all_canonical_diagrams(max_size: int, rank: int):
    """Rows of every diagram with at most `max_size` boxes and depth below `rank`."""
    seen = set()
    for depth in range(0, rank):
        for rows in product(range(max_size, 0, -1), repeat=depth):
            if any(a < b for a, b in zip(rows, rows[1:])):
                continue
            if sum(rows) > max_size or rows in seen:
                continue
            seen.add(rows)
            yield rows


def random_canonical_label(
    rng,
    rank: int,
    max_size: int = 6,
    twists=(-2, -1, 0, 1, 2),
    weights=(Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3)),
) -> IrrepLabel:
    rows = random_diagram(rng, max_size, rank - 1)
    return canonicalize(rows, rank, rng.choice(twists), rng.choice(weights))


@st.composite
def labels(draw, rank=None) -> IrrepLabel:
    """Hypothesis strategy: canonical labels built from rows up to `rank` deep,
    so full columns fold into the twist on the way."""
    if rank is None:
        rank = draw(st.integers(min_value=2, max_value=5))
    rows = sorted(draw(st.lists(st.integers(0, 3), max_size=rank)), reverse=True)
    twist = draw(st.integers(min_value=-3, max_value=3))
    weight = draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
    return canonicalize(rows, rank, twist, weight)


@st.composite
def label_pairs(draw):
    """Hypothesis strategy: two canonical labels of one rank."""
    rank = draw(st.integers(min_value=2, max_value=4))
    return draw(labels(rank)), draw(labels(rank))


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


def _gauss_jordan(rows: list[list]) -> Fraction:
    """Reduce rows, n of them and at least n wide, in place until their left
    n x n block is the identity; return that block's determinant, or zero
    (with the rows part-reduced) when it is singular."""
    n = len(rows)
    total = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            total = -total
        total *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return total


def det(matrix) -> Fraction:
    """Exact determinant by Gauss-Jordan elimination; the input is not changed."""
    return _gauss_jordan([list(row) for row in matrix])


def invert_matrix(matrix):
    """Exact inverse by Gauss-Jordan elimination of [matrix | I]; raises on
    singular input.  The reference the closed-form Killing dual is checked
    against."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    if not _gauss_jordan(aug):
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug]
