"""The projective embedding of sl(m+1) and its Casimir operator on flat space.

A traceless (m+1)x(m+1) matrix h acts on R^{m+1} by the linear field
(h y).d; projected along the Euler field onto the chart y = (x, 1), it is

    X_h^i = (h y)^i - (h y)^m x_i,      i < m,

in blocks h = [[A, u], [xi, a]] the field u + (A - a Id) x - (xi . x) x.
The map is an antihomomorphism: [X_h, X_k] = -X_{[h,k]}.

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
orbit, and both take constant time, since they share the stored
polynomial's terms.  Below two slots every orbit is one tuple, and the
operator is one such copy per stored component.
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

from .poly import Poly, _layout, _scaled, poly_combination, poly_sum
from .sections import PolyVectorField, TensorSection, _odd

Matrix = tuple[tuple[Fraction, ...], ...]


def _matrix(size: int, entries: dict) -> Matrix:
    """size x size matrix with the given {(row, column): value} entries."""
    zero = Fraction(0)
    return tuple(
        tuple(Fraction(entries[r, c]) if (r, c) in entries else zero for c in range(size))
        for r in range(size)
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


@lru_cache(maxsize=16)
def _chart(m: int) -> tuple[Poly, ...]:
    """The coordinates y = (x_0, ..., x_{m-1}, 1) of the chart, as polynomials."""
    return tuple(Poly.variable(m, j) for j in range(m)) + (Poly.constant(m, 1),)


def proj_embedding(h) -> PolyVectorField:
    """Vector field X^i = (h y)^i - (h y)^m x_i of a traceless matrix h, y = (x, 1).

    A matrix that is not square, smaller than 3x3 or not traceless raises ValueError.
    """
    if any(len(row) != len(h) for row in h):
        raise ValueError(f"matrix must be square, got rows of lengths {[len(r) for r in h]}")
    m = len(h) - 1
    if m < 2:
        raise ValueError("matrix must be at least 3x3")
    trace = sum(Fraction(h[r][r]) for r in range(m + 1))
    if trace:
        raise ValueError(f"matrix must be traceless, got trace {trace}")
    y = _chart(m)
    hy = [poly_sum(m, [y[j].scale(Fraction(e)) for j, e in enumerate(r) if e]) for r in h]
    return PolyVectorField(tuple(hy[i] - hy[m] * y[i] for i in range(m)))


def classical_casimir(section: TensorSection) -> TensorSection:
    """Casimir operator sum_u L_u L_u+ along the projective embedding, exactly.

    A constant matrix on index tuples: for k slots, rank m and t = delta - n,

        C(s)^I = [(m/2) t(t-1) + k(1-t) + k(k-1)/2(m+1)] s^I
                 + (1/(m+1)) sum_{a<b} s^(I with slots a and b swapped),

    the scalar part, 1 - t from each slot, and (id + swap)/2(m+1) on each
    of the k(k-1) ordered pairs of slots.  With t = p/q in lowest terms,
    every factor is an integer over den = 2(m+1)q^2.

    Below two slots there is no slot pair, so C is the scalar diagonal/den:
    one scaled copy per stored component, constant-time, as `Poly` keeps
    its content apart from its terms, and nothing is grouped or compared.

    A swap keeps the multiset of an index tuple, so C maps each S_k orbit
    of tuples into itself; the tuples are grouped into orbits in one pass
    and the orbits are applied one at a time.  When all k!/prod(n_v!)
    tuples of an orbit are stored and follow a character chi of S_k, tuple
    I holding chi(I) P, each of the k(k-1)/2 swaps of a tuple lands on a
    stored tuple holding chi(swap) chi(I) P, so

        C(s)^I = chi(I) (diagonal + chi(swap) k(k-1)/2 swap)/den P

    at every tuple of the orbit: the orbit is scaled once, and its tuples
    share that image, or, under the sign, the image and its one negation.
    The character is read from the stored polynomials: trivial when they
    all compare equal (a symmetric tensor), the sign when the k indices are
    distinct and the polynomials alternate (a one-column tensor), with each
    tuple's parity read once.  Any other orbit (a tuple missing, signs on a
    repeated index, or any other polynomial) pays one scaled copy and
    k(k-1)/2 swaps per component, summed over den.  All paths give the same
    reduced polynomials.  The
    derivation from the Killing-dual field pairs, with its check that every
    term is a constant, is in tests/support.py; the tests compare it with
    this form at m = 2..8, and this operator with the sum of iterated Lie
    derivatives.  A rank below 2 raises ValueError.  Every key must be
    `degree` indices below the rank; no key is checked, since a check would
    be paid on every call.
    """
    m, k = section.rank, section.degree
    if m < 2:
        raise ValueError("rank must be at least 2")
    q = section.weight.denominator
    p = section.weight.numerator - section.twist * q
    den = 2 * (m + 1) * q * q
    diagonal = m * (m + 1) * p * (p - q) + 2 * (m + 1) * k * q * (q - p) + k * (k - 1) * q * q
    layout = _layout(m)
    require = layout.require
    out: dict[tuple[int, ...], Poly] = {}
    if k < 2:  # no slot pair: every orbit is one tuple, and C is diagonal/den
        for index, poly in section.coeffs.items():
            require(poly)
            out[index] = _scaled(layout, diagonal, poly, den)
        return TensorSection(m, k, section.twist, section.weight, out)
    swap = 2 * q * q
    slot_pairs = list(combinations(range(k), 2))
    swaps = swap * len(slot_pairs)  # each onto a tuple holding chi(swap) times this one's
    orbits: dict[tuple[int, ...], list[tuple[tuple[int, ...], Poly]]] = defaultdict(list)
    for item in section.coeffs.items():
        orbits[tuple(sorted(item[0]))].append(item)
    parts: dict[tuple[int, ...], list[tuple[int, Poly]]] = defaultdict(list)
    for orbit, members in orbits.items():
        rule = _character(orbit, members)
        if rule is not None:
            chi, flips = rule
            first = members[0][1]
            require(first)  # the other members compared equal to first or -first
            image = _scaled(layout, diagonal + chi * swaps, first, den)
            if flips is None:
                for index, _ in members:
                    out[index] = image
            else:
                flipped = -image
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
) -> tuple[int, list[bool] | None] | None:
    """(chi, flips) when every tuple of the orbit is stored and the tuples
    follow the character chi of S_k, read from the stored polynomials.

    chi = 1 when every tuple holds the first polynomial P; flips is then
    None, since every tuple takes one image.  chi = -1 when the k indices
    are distinct (k! tuples) and tuple I holds sign(I) P up to the first
    tuple's sign; flips marks the tuples of the other parity, each parity
    read once.  On a repeated index the swap of the equal slots fixes the
    tuple, so the sign is no character there.  None when a tuple is
    missing or the polynomials follow neither.
    """
    size = len(members)
    if size != _orbit_size(orbit):
        return None
    index, first = members[0]
    if size == 1 or members[1][1] == first:
        for _, poly in members[2:]:
            if poly != first:
                return None
        return 1, None
    if size != factorial(len(orbit)):
        return None
    odd, negated, flips = _odd(index), -first, [False]
    for index, poly in members[1:]:
        flip = _odd(index) != odd
        if poly != (negated if flip else first):
            return None
        flips.append(flip)
    return -1, flips


@lru_cache(maxsize=1024)
def _orbit_size(orbit: tuple[int, ...]) -> int:
    """Number of distinct rearrangements of a sorted index tuple."""
    size = factorial(len(orbit))
    for _, run in groupby(orbit):
        size //= factorial(len(list(run)))
    return size
