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
exact tests downstream verify.  The Killing form, the dual basis and the
matrix bracket the antihomomorphism is checked with live with the tests.

The sum does not depend on the section and commutes with translations and
with the Euler field, so it is a constant matrix on index tuples, and on a
section with k slots it has a closed form in t = delta - n: the scalar
(m/2) t(t-1), 1 - t on the diagonal of each slot, and (id + swap)/2(m+1) on
each ordered pair of distinct slots.  `classical_casimir` applies that in
integers, over the denominator 2(m+1)q^2 of t = p/q.  A swap never leaves
the S_k orbit of an index tuple, so the operator works orbit by orbit.  On
an orbit stored in full with one polynomial, which is what a symmetric
tensor holds, every swap returns that polynomial; on an orbit of k
distinct indices whose polynomials alternate in sign, which is what a
one-column tensor holds, every swap returns its negation.  Either way the
whole orbit is one scaled copy, negated on the odd tuples of an alternating
orbit.
The derivation of the three parts from the Killing-dual field pairs, with
the check that every surviving term is a constant, lives with the tests
(`tests/support.py`), which compare it with the closed form rank by rank.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby
from math import factorial

from .poly import Poly, poly_combination
from .sections import PolyVectorField, TensorSection

Matrix = tuple[tuple[Fraction, ...], ...]


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def matrix_trace(a: Matrix) -> Fraction:
    return sum(a[i][i] for i in range(len(a)))


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


def classical_casimir(section: TensorSection) -> TensorSection:
    """Casimir operator sum_u L_u L_u+ along the projective embedding, exactly.

    A constant matrix on index tuples: for k slots, rank m and t = delta - n,

        C(s)^I = [(m/2) t(t-1) + k(1-t) + k(k-1)/2(m+1)] s^I
                 + (1/(m+1)) sum_{a<b} s^(I with slots a and b swapped),

    the scalar part, 1 - t from each slot, and (id + swap)/2(m+1) on each
    of the k(k-1) ordered pairs of slots.  With t = p/q in lowest terms,
    every factor is an integer over den = 2(m+1)q^2.

    A swap keeps the multiset of an index tuple, so C maps each S_k orbit
    of tuples into itself, and the orbits are applied one at a time.  When
    all k!/prod(n_v!) tuples of an orbit are stored and follow a character
    chi of S_k, tuple I holding chi(I) P, each of the k(k-1)/2 swaps of a
    tuple lands on a stored tuple holding chi(swap) chi(I) P, so

        C(s)^I = chi(I) (diagonal + chi(swap) k(k-1)/2 swap)/den P

    at every tuple of the orbit: one scaled copy and its negation.  The
    character is read from the stored polynomials: trivial when they all
    compare equal (a symmetric tensor), the sign when the k indices are
    distinct and the polynomials alternate (a one-column tensor).  Any
    other orbit (a tuple missing, signs on a repeated index, or any other
    polynomial) pays one scaled copy and k(k-1)/2 swaps per component,
    summed over den.  Both paths give the same reduced polynomials.  The
    derivation from the Killing-dual field pairs, with its check that every
    term is a constant, is in tests/support.py; the tests compare it with
    this form at m = 2..8, and this operator with the sum of iterated Lie
    derivatives.  A rank below 2 raises ValueError.
    """
    m, k = section.rank, section.degree
    if m < 2:
        raise ValueError("rank must be at least 2")
    q = section.weight.denominator
    p = section.weight.numerator - section.twist * q
    den = 2 * (m + 1) * q * q
    diagonal = m * (m + 1) * p * (p - q) + 2 * (m + 1) * k * q * (q - p) + k * (k - 1) * q * q
    swap = 2 * q * q
    slot_pairs = list(combinations(range(k), 2))
    swaps = swap * len(slot_pairs)  # each onto a tuple holding chi(swap) times this one's
    orbits: dict[tuple[int, ...], list[tuple[tuple[int, ...], Poly]]] = defaultdict(list)
    for index, poly in section.coeffs.items():
        orbits[tuple(sorted(index))].append((index, poly))
    out: dict[tuple[int, ...], Poly] = {}
    parts: dict[tuple[int, ...], list[tuple[int, Poly]]] = defaultdict(list)
    for orbit, members in orbits.items():
        rule = _character(orbit, members)
        if rule:
            chi, flips = rule
            image = poly_combination(m, [(diagonal + chi * swaps, members[0][1])], den)
            flipped = -image if chi < 0 else image
            for (index, _), flip in zip(members, flips):
                out[index] = flipped if flip else image
            continue
        for index, poly in members:
            own = diagonal
            for a, b in slot_pairs:
                i, j = index[a], index[b]
                if i == j:
                    own += swap
                else:
                    swapped = index[:a] + (j,) + index[a + 1 : b] + (i,) + index[b + 1 :]
                    parts[swapped].append((swap, poly))
            if own:
                parts[index].append((own, poly))
    out.update((index, poly_combination(m, terms, den)) for index, terms in parts.items())
    return TensorSection(m, k, section.twist, section.weight, out)


def _character(
    orbit: tuple[int, ...], members: list[tuple[tuple[int, ...], Poly]]
) -> tuple[int, list[bool]] | None:
    """(chi, flips) when every tuple of the orbit is stored and the tuples
    follow the character chi of S_k, read from the stored polynomials;
    flips marks the tuples whose chi differs from the first tuple's.

    chi = 1 when every tuple holds the first polynomial P.  chi = -1 when
    the k indices are distinct (k! tuples) and tuple I holds sign(I) P up
    to the first tuple's sign; on a repeated index the swap of the equal
    slots fixes the tuple, so the sign is no character there.  None when
    a tuple is missing or the polynomials follow neither.
    """
    if len(members) != _orbit_size(orbit):
        return None
    index, first = members[0]
    if len(members) == 1 or members[1][1] == first:
        chi, flips, other = 1, [False] * len(members), first
    elif len(members) == factorial(len(orbit)):
        odd = _odd(index)
        chi, flips, other = -1, [_odd(i) != odd for i, _ in members], -first
    else:
        return None
    if all(poly == (other if flip else first) for (_, poly), flip in zip(members, flips)):
        return chi, flips
    return None


def _odd(index: tuple[int, ...]) -> bool:
    """Whether a tuple is an odd rearrangement of its sorted order."""
    return sum(a > b for a, b in combinations(index, 2)) % 2 == 1


@lru_cache(maxsize=1024)
def _orbit_size(orbit: tuple[int, ...]) -> int:
    """Number of distinct rearrangements of a sorted index tuple."""
    size = factorial(len(orbit))
    for _, run in groupby(orbit):
        size //= factorial(len(list(run)))
    return size
