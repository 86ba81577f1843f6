"""Acceptance suite: one test per criterion, every check exact (zero tolerance).

Each test prints a single PASS/FAIL line so the suite can be read as a
checklist with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod

from projquant import (
    EigenvaluePoly,
    ResonantWeight,
    YoungDiagram,
    branch_labels,
    canonicalize,
    component,
    dimension,
    dual,
    eigenvalue,
    extend_rank_dual,
    is_resonant,
    littlewood_richardson,
    max_removal_embedding,
    resonances,
    symbol_rep,
)
from projquant.flatmodel import (
    Poly,
    classical_casimir,
    density_quant_coefficients,
    random_polynomial,
    random_section,
    solver_singular_deltas,
    verify_equivariance,
    young_section,
)
from support import (
    all_canonical_diagrams,
    assert_solve_singular_exactly_on_formula,
    char_eval,
    random_canonical_label,
    random_diagram,
    random_point,
    resonances_generic,
    schur_eval,
    section_product,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_eigenvalue_oracle():
    with criterion(1, "flat Casimir equals the eigenvalue polynomial, exactly"):
        rng = random.Random(20260810)
        shapes = ((), (1,), (2,), (3,), (1, 1))
        for m, rank_shapes in ((2, shapes), (3, shapes), (4, shapes), (5, shapes[:3])):
            for rows in rank_shapes:
                if len(rows) > m - 1:
                    continue
                for twist in (0, 1):
                    for delta in (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3)):
                        label = canonicalize(rows, m, twist, delta)
                        alpha = eigenvalue(label)(delta)
                        for _ in range(5):
                            section = random_section(m, rows, twist, delta, 3, rng)
                            assert classical_casimir(section) == section.scale(alpha)


def test_criterion_2_resonance_closed_form_vs_generic():
    with criterion(2, "closed-form resonances equal eigenvalue-gap roots"):
        for rank in (2, 3, 4):
            for rows in all_canonical_diagrams(5, rank):
                for twist in (-1, 0, 1, 2):
                    label = canonicalize(rows, rank, twist, 0)
                    assert resonances(label) == resonances_generic(label)


def test_criterion_3_resonance_vs_solver():
    with criterion(3, "quantization solver degenerates exactly on the resonance set"):
        # the singular set comes from the determinant of the solve's own equations
        for m, k in [(m, k) for m in (2, 3, 4, 5) for k in range(1, 7)]:
            proven = assert_solve_singular_exactly_on_formula(m, k, Fraction(1, 2))
            assert resonances(canonicalize((k,), m, 0, 0)) == set(proven)
            assert solver_singular_deltas(m, k) == proven


def test_criterion_4_zero_never_resonant_for_nonnegative_twist():
    with criterion(4, "weight zero is never resonant when the twist is non-negative"):
        for rank in (2, 3, 4):
            for rows in all_canonical_diagrams(4, rank):
                for twist in (0, 1, 2):
                    assert not is_resonant(canonicalize(rows, rank, twist, 0), Fraction(0))


def test_criterion_5_branching_character_identity():
    with criterion(5, "branching character identity and dimension conservation"):
        rng = random.Random(555)
        for _ in range(50):
            rank = rng.choice((3, 4, 5))
            parent = random_canonical_label(rng, rank, max_size=6)
            point = random_point(rng, rank)
            xs, t = point[:-1], point[-1]
            m = rank - 1
            d = parent.diagram.padded(m)
            total = Fraction(0)
            dim_total = 0
            for q in branch_labels(parent):
                removed = q.padded(m)
                rows = tuple(d[i] - removed[i] for i in range(m))
                total += schur_eval(YoungDiagram(rows), xs) * t**q.norm
                dim_total += dimension(component(parent, q))
            assert schur_eval(parent.diagram, point) == total
            assert dim_total == dimension(parent)


def test_criterion_6_littlewood_richardson_character_oracle():
    with criterion(6, "product of characters equals the decomposition sum"):
        rng = random.Random(666)
        for _ in range(30):
            rank = rng.choice((2, 3, 4))
            a = canonicalize(random_diagram(rng, 5, rank - 1), rank, 0, 0)
            b = canonicalize(random_diagram(rng, 5, rank - 1), rank, 0, 0)
            decomposition = littlewood_richardson(a, b)
            for _ in range(10):
                point = random_point(rng, rank)
                lhs = schur_eval(a.diagram, point) * schur_eval(b.diagram, point)
                rhs = sum(
                    mult * char_eval(term, point)
                    for term, mult in decomposition.terms
                )
                assert lhs == rhs


def test_criterion_7_top_row_extension_structure():
    with criterion(7, "dualized extension prepends the top row and max removal recovers it"):
        rng = random.Random(777)
        for _ in range(20):
            rank = rng.choice((2, 3, 4))
            label = random_canonical_label(rng, rank, max_size=6)
            extended = extend_rank_dual(label)
            rows = label.diagram.rows
            expected = (rows[0],) + rows if rows else ()
            assert extended.diagram.rows == tuple(r for r in expected if r)
            q = max_removal_embedding(label)
            assert component(extended, q).diagram == label.diagram
            top = max(b.norm for b in branch_labels(extended))
            assert q.norm == top


def test_criterion_8_equivariance_of_constructed_quantization():
    with criterion(8, "constructed quantization commutes with every generator, exactly"):
        rng = random.Random(888)
        m = 2
        lam = Fraction(1, 2)
        for k in (1, 2, 3):
            for delta in (Fraction(0), Fraction(1, 3), Fraction(2)):
                label = canonicalize((k,), m, 0, delta)
                if is_resonant(label, delta):
                    with_raises = False
                    try:
                        density_quant_coefficients(m, k, lam, lam + delta)
                    except ResonantWeight:
                        with_raises = True
                    assert with_raises
                    continue
                coeffs = density_quant_coefficients(m, k, lam, lam + delta)
                symbols = [random_section(m, (k,), 0, delta, 2, rng) for _ in range(5)]
                functions = [random_polynomial(m, 3, rng) for _ in range(5)]
                report = verify_equivariance(
                    m, k, lam, lam + delta, coeffs.values, symbols, functions
                )
                assert report.all_exact, report.failures


def highest_weight_vector(m: int, rows: tuple[int, ...], twist: int, delta: Fraction):
    """The Young-symmetrized constant tensor whose row r holds the index r."""
    key = tuple(r for r, length in enumerate(rows) for _ in range(length))
    return young_section(m, rows, twist, delta, {key: Poly.constant(m, 1)})


def test_criterion_9_eigenvalue_on_highest_weight_vectors():
    with criterion(9, "every diagram's highest-weight vector has the eigenvalue polynomial"):
        # the flat Casimir is a constant matrix commuting with gl(m), so by Schur
        # it is one scalar on each Young image; three weights pin c0, c1 and c2
        for m in range(2, 7):
            for rows in all_canonical_diagrams(6, m):
                for twist in (-1, 0, 1, 2):
                    for delta in (Fraction(0), Fraction(1, 3), Fraction(-5, 2)):
                        section = highest_weight_vector(m, rows, twist, delta)
                        alpha = eigenvalue(canonicalize(rows, m, twist, delta))(delta)
                        assert section and classical_casimir(section) == section.scale(alpha)


def test_highest_weight_check_tells_the_shapes_apart():
    # criterion 9 would miss a wrong eigenvalue if every shape gave the same scalar
    delta = Fraction(1, 3)
    for m in (4, 5):
        section = highest_weight_vector(m, (2, 1), 0, delta)
        image = classical_casimir(section)
        for other in ((3,), (1, 1, 1), (2, 2)):
            assert image != section.scale(eigenvalue(canonicalize(other, m, 0, delta))(delta))
        poly = eigenvalue(canonicalize((2, 1), m, 0, delta))
        for wrong in (
            EigenvaluePoly(poly.c0 + 1, poly.c1, poly.c2),
            EigenvaluePoly(poly.c0, poly.c1 + 1, poly.c2),
            EigenvaluePoly(poly.c0, poly.c1, poly.c2 + 1),
        ):
            assert image != section.scale(wrong(delta))
        assert image == section.scale(poly(delta))



def annihilated_exactly_by(section, alphas) -> bool:
    """Whether the product of (C - alpha) over alphas kills the section while
    the product with any one alpha left out does not; C = classical_casimir."""

    def step(s, alpha):
        return classical_casimir(s) + s.scale(-alpha)

    images = [section]  # images[i]: the factors of alphas[:i] applied
    for alpha in alphas:
        images.append(step(images[-1], alpha))
    return not images[-1] and all(
        reduce(step, alphas[i + 1 :], images[i]) for i in reversed(range(len(alphas)))
    )


def symbol_space_cases():
    """(s, A) over criterion 16's grid: s the product of random sections of
    S^k, V1* and V2, and A the sorted distinct eigenvalues of the pieces of
    symbol_rep(v1, v2, k).  Products of more than 500 stored tuples are
    skipped.  The S^k and V1* factors have degree-1 coefficients, so that
    no piece of s vanishes by a chance cancellation of small constants."""
    rng = random.Random(16)
    lam, mu = Fraction(1, 5), Fraction(3, 4)
    for m, v1_shapes, v2_shapes in (
        (2, ((), (1,), (2,)), ((), (1,), (2,))),
        (3, ((), (1,), (1, 1)), ((), (1,), (2, 1))),
    ):
        for rows1, rows2, k in product(v1_shapes, v2_shapes, range(3)):
            v1, v2 = canonicalize(rows1, m, 0, lam), canonicalize(rows2, m, -1, mu)
            v1_dual = dual(v1)
            factors = (
                random_section(m, (k,), 0, 0, 1, rng),
                random_section(m, v1_dual.diagram.rows, v1_dual.twist, v1_dual.weight, 1, rng),
                random_section(m, v2.diagram.rows, v2.twist, v2.weight, 0, rng),
            )
            if prod(len(f.coeffs) for f in factors) > 500:
                continue
            s = reduce(section_product, factors)
            terms = symbol_rep(v1, v2, k).terms
            yield s, sorted({eigenvalue(term)(term.weight) for term, _ in terms})


def test_criterion_16_casimir_spectrum_on_symbol_spaces():
    with criterion(16, "symbol_rep's eigenvalues are the Casimir spectrum of S^k (x) V1* (x) V2"):
        # the product of random sections of S^k, V1* and V2 has a part in
        # every piece, so the distinct eigenvalues of the pieces are the
        # least set whose (C - alpha) factors kill it
        cases = list(symbol_space_cases())
        for s, alphas in cases:
            assert annihilated_exactly_by(s, alphas), (s, alphas)
        assert len(cases) == 53


def test_symbol_space_check_rejects_a_dropped_an_added_or_a_shifted_eigenvalue():
    for s, alphas in symbol_space_cases():
        for wrong in (
            alphas[1:],
            alphas + [alphas[-1] + 1],
            alphas[:-1] + [alphas[-1] + Fraction(1, 7)],
        ):
            assert not annihilated_exactly_by(s, wrong), (s, alphas, wrong)
