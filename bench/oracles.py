"""Reference values the benchmark checks library outputs against.

Nothing here calls the code under test: each oracle is a closed form from
the literature or an identity that holds for any correct implementation.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import comb


def quant_coefficients(m: int, k: int, lam: Fraction, mu: Fraction) -> list[Fraction]:
    """Divergence-ansatz constants c_0..c_k of the projectively equivariant
    quantization of density-valued symbols (Lecomte-Ovsienko, Lett. Math.
    Phys. 49, 1999):

        c_l = C(k, l) * prod_{j=1..l} (lam + (k-j)/(m+1)) / ((m+2k-j)/(m+1) - delta)

    with delta = mu - lam.  Raises ZeroDivisionError on the resonance set.
    """
    delta = Fraction(mu) - Fraction(lam)
    values = [Fraction(1)]
    prod = Fraction(1)
    for l in range(1, k + 1):
        prod *= (lam + Fraction(k - l, m + 1)) / (Fraction(m + 2 * k - l, m + 1) - delta)
        values.append(comb(k, l) * prod)
    return values


def quant_resonances(m: int, k: int) -> list[Fraction]:
    """Sorted weight shifts {(m+2k-j)/(m+1) : j = 1..k} where the closed form
    has a vanishing denominator."""
    return sorted(Fraction(m + 2 * k - j, m + 1) for j in range(1, k + 1))


def single_row_resonances(m: int, row: int, twist: int) -> list[Fraction]:
    """Resonant weights of the symmetric power S^row of rank m with a twist.

    The flat Lie derivative depends on weight and twist only through
    delta - n, so the twist shifts the twist-free set
    {(m+2k-q)/(m+1) : q = 1..k} by n.
    """
    return sorted(twist + Fraction(m + 2 * row - q, m + 1) for q in range(1, row + 1))


def hook_dimension(rows: tuple[int, ...], m: int) -> int:
    """Dimension of the GL(m) irreducible of a diagram by the hook-content
    formula, prod over cells of (m + col - row) / hook."""
    cols = [sum(1 for r in rows if r > c) for c in range(rows[0])] if rows else []
    num = den = 1
    for i, r in enumerate(rows):
        for j in range(r):
            num *= m + j - i
            den *= (r - j - 1) + (cols[j] - i - 1) + 1
    return num // den


def digest(text: str) -> str:
    """Short stable digest of a canonical text rendering."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def eigenvalue_text(poly) -> str:
    return f"{poly.c0},{poly.c1},{poly.c2}"


def fractions_text(values) -> str:
    return ",".join(str(Fraction(v)) for v in sorted(values))


def lift_plan_text(plan) -> str:
    """Order-independent rendering of a lift plan's nodes and edges."""
    nodes = sorted(
        (node.removals.removals, str(node.component), str(node.coefficient))
        for node in plan.nodes
    )
    edges = sorted((src.removals, dst.removals) for src, dst in plan.edges)
    return repr((str(plan.label), str(plan.delta), nodes, edges))
