import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projquant import ResonantWeight, canonicalize, resonances
from projquant.flatmodel import (
    Poly,
    TensorSection,
    density_quant_coefficients,
    quantization_operator,
    quantize_densities,
    random_polynomial,
    random_section,
    sl_basis,
    solver_singular_deltas,
    verify_equivariance,
)
from projquant.flatmodel import quantize
from projquant.flatmodel.quantize import QuantCoefficients
from support import (
    LinearSystem,
    _equations,
    assert_solve_singular_exactly_on_formula,
    closed_form_coefficients,
)


def test_order_zero_is_multiplication():
    m = 2
    coeffs = density_quant_coefficients(m, 0, Fraction(1, 3), Fraction(9, 4))
    assert coeffs.values == (Fraction(1),)
    rng = random.Random(0)
    symbol = random_section(m, (), 0, Fraction(9, 4) - Fraction(1, 3), 3, rng)
    op, _ = quantize_densities(m, 0, Fraction(1, 3), Fraction(9, 4), symbol)
    f = random_polynomial(m, 3, rng)
    assert op.apply(f) == symbol.component(()) * f


def test_order_one_closed_form():
    # the unique equivariant constant is c1 = lambda / (1 - delta)
    for m in (2, 3):
        for lam, mu in ((Fraction(0), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 7), Fraction(1, 7))):
            delta = mu - lam
            coeffs = density_quant_coefficients(m, 1, lam, mu)
            assert coeffs.values == (Fraction(1), lam / (1 - delta))


def test_order_one_resonance():
    with pytest.raises(ResonantWeight):
        density_quant_coefficients(2, 1, Fraction(0), Fraction(1))
    with pytest.raises(ResonantWeight):
        density_quant_coefficients(2, 1, Fraction(1, 2), Fraction(3, 2))


def test_order_two_singularities_match_resonances():
    m = 2
    hits = resonances(canonicalize((2,), m, 0, 0))
    assert hits == {Fraction(5, 3), Fraction(4, 3)}
    lam = Fraction(1, 7)
    for delta in hits:
        with pytest.raises(ResonantWeight):
            density_quant_coefficients(m, 2, lam, lam + delta)
    coeffs = density_quant_coefficients(m, 2, lam, lam)
    assert len(coeffs.values) == 3


def test_order_three_resonant_at_two():
    with pytest.raises(ResonantWeight):
        density_quant_coefficients(2, 3, Fraction(0), Fraction(2))


def test_symbol_preservation():
    # the order-k part of Q(P) is the plain contraction against P
    m, k = 2, 2
    lam, mu = Fraction(1, 2), Fraction(5, 6)
    rng = random.Random(1)
    symbol = random_section(m, (k,), 0, mu - lam, 2, rng)
    op, coeffs = quantize_densities(m, k, lam, mu, symbol)
    assert op.order == k
    plain = quantization_operator(symbol, (1, 0, 0))
    for beta, p in op.coeffs.items():
        if sum(beta) == k:
            assert plain.coeffs[beta] == p
    for beta, p in plain.coeffs.items():
        if sum(beta) == k and p:
            assert op.coeffs[beta] == p


def test_quantize_validates_symbol():
    m, k = 2, 1
    lam, mu = Fraction(0), Fraction(1, 3)
    rng = random.Random(2)
    wrong_weight = random_section(m, (k,), 0, Fraction(1), 2, rng)
    with pytest.raises(ValueError):
        quantize_densities(m, k, lam, mu, wrong_weight)
    wrong_degree = random_section(m, (2,), 0, mu - lam, 2, rng)
    with pytest.raises(ValueError):
        quantize_densities(m, k, lam, mu, wrong_degree)


def _asymmetric_case():
    # m = 2, k = 2 and the polynomial x0^2 + x1, which the tests store at
    # (0, 1) alone (not symmetric) or spread over (0, 1) and (1, 0)
    m, k, lam = 2, 2, Fraction(1, 3)
    mu = lam + Fraction(5, 11)
    x0, x1 = Poly.variable(m, 0), Poly.variable(m, 1)
    return m, k, lam, mu, x0 * x0 + x1, x0 * x0 * x1


def test_quantize_refuses_a_symbol_that_is_not_symmetric():
    m, k, lam, mu, p, f = _asymmetric_case()
    half = p.scale(Fraction(1, 2))
    symmetric = TensorSection(m, k, 0, mu - lam, {(0, 1): half, (1, 0): half, (1, 1): p})
    _, coeffs = quantize_densities(m, k, lam, mu, symmetric)
    assert verify_equivariance(m, k, lam, mu, coeffs.values, [symmetric], [f]).all_exact
    for coeffs_, message in [
        ({(0, 1): p}, "index (0, 1) and its rearrangement (1, 0)"),
        ({(1, 0): p, (0, 1): p.scale(2)}, "index (1, 0) and its rearrangement (0, 1)"),
        ({(1, 1): p, (0, 1): half, (1, 0): p}, "index (0, 1) and its rearrangement (1, 0)"),
    ]:
        symbol = TensorSection(m, k, 0, mu - lam, coeffs_)
        with pytest.raises(ValueError) as exc:
            quantize_densities(m, k, lam, mu, symbol)
        assert str(exc.value) == f"symbol is not symmetric: {message} hold different polynomials"
    # a random symmetric section at m = 3, k = 4 passes the check
    symbol = random_section(3, (4,), 0, mu - lam, 1, random.Random(4))
    assert quantize_densities(3, 4, lam, mu, symbol)[0].order == 4


def test_equivariance_failures_name_their_generator():
    # with c_1 off by 1/5 the two quadratic generators of sl(3) fail on the
    # same symmetric symbol and function
    m, k, lam, mu, p, f = _asymmetric_case()
    half = p.scale(Fraction(1, 2))
    symbol = TensorSection(m, k, 0, mu - lam, {(0, 1): half, (1, 0): half, (1, 1): p})
    c0, c1, c2 = density_quant_coefficients(m, k, lam, mu).values
    report = verify_equivariance(m, k, lam, mu, (c0, c1 + Fraction(1, 5), c2), [symbol], [f])
    assert report.translations_exact and report.linear_exact and not report.quadratic_exact
    assert report.failures == (
        "generator 4 (grading 1), symbol 0, function 0",
        "generator 5 (grading 1), symbol 0, function 0",
    )


def test_equivariance_refuses_constants_or_symbols_of_another_order():
    # each case once passed, reported failures, or raised IndexError
    m, lam, delta = 2, Fraction(1, 3), Fraction(5, 11)
    mu = lam + delta
    rng = random.Random(3)
    one, two = (random_section(m, (k,), 0, delta, 2, rng) for k in (1, 2))
    f = random_polynomial(m, 3, rng)
    order = {k: density_quant_coefficients(m, k, lam, mu).values for k in (1, 2)}
    for k, coeffs, symbol, message in [
        (1, order[2], one, "3 constants for order k = 1, want 2"),
        (2, order[1], two, "2 constants for order k = 2, want 3"),
        (5, order[1], one, "2 constants for order k = 5, want 6"),
        (1, order[1], two, "symbol has shape (2, 2), want (2, 1)"),
    ]:
        with pytest.raises(ValueError) as exc:
            verify_equivariance(m, k, lam, mu, coeffs, [symbol], [f])
        assert str(exc.value) == message
    # a symbol quantize_densities refuses, with its message: for its rank,
    # twist or weight, an asymmetric one, a key past the rank and a key of
    # another length; the last three once gave a report or an IndexError
    p = _asymmetric_case()[4]
    twist_free = "symbol must be twist-free with weight mu - lambda"
    asymmetric = (
        "symbol is not symmetric: index (0, 1) and its rearrangement (1, 0) "
        "hold different polynomials"
    )
    for k, wrong, message in [
        (1, TensorSection(3, 1, 0, delta, {(0,): Poly.constant(3, 1)}),
         "symbol has shape (3, 1), want (2, 1)"),
        (1, TensorSection(m, 1, 1, delta, one.coeffs), twist_free),
        (1, TensorSection(m, 1, 0, delta + 1, one.coeffs), twist_free),
        (2, TensorSection(m, 2, 0, delta, {(0, 1): p}), asymmetric),
        (1, TensorSection(m, 1, 0, delta, {(5,): p}), "key (5,) is not 1 indices below 2"),
        (1, TensorSection(m, 1, 0, delta, {(0, 1): p}), "key (0, 1) is not 1 indices below 2"),
    ]:
        with pytest.raises(ValueError) as refused:
            quantize_densities(m, k, lam, mu, wrong)
        with pytest.raises(ValueError) as exc:
            verify_equivariance(m, k, lam, mu, order[k], [{1: one, 2: two}[k], wrong], [f])
        assert str(exc.value) == str(refused.value) == message
    assert verify_equivariance(m, 1, lam, mu, order[1], [one], [f]).all_exact


def test_equivariance_refuses_to_check_nothing():
    # with no nonzero symbol or function every residual vanishes, so the
    # wrong constants (1, 7) once read as exact at every grading
    m, lam, delta = 2, Fraction(1, 3), Fraction(5, 11)
    mu = lam + delta
    rng = random.Random(3)
    symbol = random_section(m, (1,), 0, delta, 2, rng)
    f = random_polynomial(m, 3, rng)
    wrong = (Fraction(1), Fraction(7))
    zero_symbol = TensorSection(m, 1, 0, delta)
    for symbols, functions, message in [
        ([], [], "no nonzero symbol to check"),
        ([], [f], "no nonzero symbol to check"),
        ([zero_symbol], [f], "no nonzero symbol to check"),
        ([symbol], [], "no nonzero function to check"),
        ([symbol], [Poly.zero(m), Poly.zero(m)], "no nonzero function to check"),
    ]:
        with pytest.raises(ValueError) as exc:
            verify_equivariance(m, 1, lam, mu, wrong, symbols, functions)
        assert str(exc.value) == message
    report = verify_equivariance(m, 1, lam, mu, wrong, [symbol], [f])
    assert report.failures and not report.quadratic_exact


@pytest.mark.parametrize("m", range(2, 7))
def test_failures_report_the_block_grading_of_their_generator(m, monkeypatch):
    # the last row left of the corner is the quadratic block (grading 1), the
    # last column above it the constant block (-1), the rest linear (0); with
    # the symbol's Lie derivative replaced by the symbol, each generator fails
    def rule(h):
        if any(h[m][j] for j in range(m)):
            return 1
        return -1 if any(h[i][m] for i in range(m)) else 0

    monkeypatch.setattr(quantize, "lie_derivative", lambda field, symbol: symbol)
    lam, mu = Fraction(1, 3), Fraction(1, 3)
    symbol = TensorSection(m, 0, 0, 0, {(): Poly.constant(m, 1)})
    f = Poly.monomial(m, (2,) + (1,) * (m - 1))
    report = verify_equivariance(m, 0, lam, mu, (1,), [symbol], [f])
    assert report.failures == tuple(
        f"generator {g} (grading {rule(h)}), symbol 0, function 0"
        for g, h in enumerate(sl_basis(m))
    )


def test_quant_coefficients_normalization():
    with pytest.raises(ValueError):
        QuantCoefficients((Fraction(2),))


def test_equivariance_full_generating_set():
    m = 2
    lam = Fraction(1, 3)
    rng = random.Random(5)
    for k, delta in ((1, Fraction(1, 5)), (2, Fraction(0)), (3, Fraction(1, 3))):
        mu = lam + delta
        coeffs = density_quant_coefficients(m, k, lam, mu)
        symbols = [random_section(m, (k,), 0, delta, 2, rng) for _ in range(3)]
        functions = [random_polynomial(m, 3, rng) for _ in range(3)]
        report = verify_equivariance(m, k, lam, mu, coeffs.values, symbols, functions)
        assert report.all_exact, report.failures


def test_equivariance_heaviest_corner():
    m, k = 4, 4
    lam = Fraction(1, 3)
    delta = Fraction(1, 5)
    coeffs = density_quant_coefficients(m, k, lam, lam + delta)
    rng = random.Random(9)
    symbols = [random_section(m, (k,), 0, delta, 1, rng) for _ in range(2)]
    functions = [random_polynomial(m, 2, rng) for _ in range(2)]
    report = verify_equivariance(m, k, lam, lam + delta, coeffs.values, symbols, functions)
    assert report.all_exact, report.failures


def test_equivariance_fails_only_in_quadratic_direction_for_wrong_constants():
    m, k = 2, 1
    lam, mu = Fraction(1, 2), Fraction(1, 2)
    rng = random.Random(6)
    symbols = [random_section(m, (k,), 0, Fraction(0), 2, rng) for _ in range(2)]
    functions = [random_polynomial(m, 2, rng) for _ in range(2)]
    wrong = (Fraction(1), Fraction(17, 3))
    report = verify_equivariance(m, k, lam, mu, wrong, symbols, functions)
    assert report.translations_exact and report.linear_exact
    assert not report.quadratic_exact


def test_singular_deltas_match_resonances():
    for m in (2, 3):
        for k in (1, 2, 3):
            got = set(solver_singular_deltas(m, k))
            assert got == set(resonances(canonicalize((k,), m, 0, 0)))
    assert set(solver_singular_deltas(2, 6)) == set(resonances(canonicalize((6,), 2, 0, 0)))
    assert solver_singular_deltas(2, 0) == ()


def assert_solves_the_sampled_equations(m, k, lam, mu, values):
    # every row of the quadratic-generator residual, summed independently of
    # the product the library and closed_form_coefficients share
    for key, (row, rhs) in _equations(m, k, lam, mu).items():
        assert sum(c * x for c, x in zip(values[1:], row)) == rhs, key


@pytest.mark.parametrize(
    "m,k",
    [(2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (4, 6), (5, 4), (6, 3),
     (4, 12), (5, 10), (3, 16), (6, 8)],
)
def test_high_order_matches_closed_form(m, k):
    lam, mu = Fraction(1, 2), Fraction(1, 3)
    got = density_quant_coefficients(m, k, lam, mu).values
    assert got == closed_form_coefficients(m, k, lam, mu)
    assert_solves_the_sampled_equations(m, k, lam, mu, got)
    for j in (1, k):
        with pytest.raises(ResonantWeight):
            density_quant_coefficients(m, k, lam, lam + Fraction(m + 2 * k - j, m + 1))


def test_singular_deltas_stable_across_lambda():
    for lam in (Fraction(1, 2), Fraction(2, 7)):
        for m, k in ((2, 2), (3, 1), (3, 3)):
            proven = assert_solve_singular_exactly_on_formula(m, k, lam)
            assert solver_singular_deltas(m, k, lam) == proven


def test_order_twelve_solves_in_under_a_second():
    # the solve walks only the stored components of its one-component symbol
    lam, mu = Fraction(1, 2), Fraction(1, 3)
    start = time.perf_counter()
    got = density_quant_coefficients(4, 12, lam, mu).values
    elapsed = time.perf_counter() - start
    assert got == closed_form_coefficients(4, 12, lam, mu)
    assert elapsed < 1, elapsed


def test_resonant_message_names_the_vanishing_factor():
    with pytest.raises(ResonantWeight) as exc:
        density_quant_coefficients(3, 5, Fraction(0), Fraction(11, 4))
    assert str(exc.value) == (
        "quantization system inconsistent at delta = 11/4: "
        "factor j = 2, (m+2k-j)/(m+1) = 11/4 vanishes"
    )
    assert exc.value.delta == Fraction(11, 4)


def diagonal_key(m, k, level):
    """The residual term x_0^(k-l+1) d_0^(k-l) that holds equation l."""
    pad = (0,) * (m - 1)
    return (k - level,) + pad, (k - level + 1,) + pad


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_solve_symbol_gives_rank_k(m):
    # x_0^k d_0^k yields k equations of rank k at a generic weight; equation l
    # holds only c_(l-1) and c_l, and its c_l coefficient a_l is affine in
    # delta with its one root at the factor j = l of the closed form
    for k in range(1, 9):
        for lam in (Fraction(2, 7), Fraction(-3, 11)):
            rows = _equations(m, k, lam, Fraction(-1, 5))
            system = LinearSystem(k)
            for row, rhs in rows.values():
                system.add(row, rhs)
            assert not system.inconsistent and system.rank == k, (k, len(rows), system.rank)
            assert set(rows) == {diagonal_key(m, k, level) for level in range(1, k + 1)}
            eqs = [_equations(m, k, lam, lam + d) for d in (0, 1, 2)]
            for level in range(1, k + 1):
                row, rhs = rows[diagonal_key(m, k, level)]
                held = {i for i, x in enumerate(row) if x}
                assert held == {max(level - 2, 0), level - 1} and (rhs != 0) == (level == 1)
                a0, a1, a2 = (e[diagonal_key(m, k, level)][0][level - 1] for e in eqs)
                assert a2 - a1 == a1 - a0 != 0
                assert Fraction(-a0) / (a1 - a0) == Fraction(m + 2 * k - level, m + 1)


@st.composite
def solve_inputs(draw):
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, 7))
    j = draw(st.integers(1, k))
    # a weight that zeroes a numerator of the closed form, or any weight
    lam = draw(st.sampled_from([Fraction(-(k - j), m + 1), None]))
    if lam is None:
        lam = draw(st.fractions(-3, 3, max_denominator=9))
    delta = draw(st.sampled_from([Fraction(m + 2 * k - j, m + 1), None]))
    if delta is None:
        delta = draw(st.fractions(-3, 3, max_denominator=9))
    return m, k, lam, lam + delta


@settings(max_examples=80, deadline=None)
@given(solve_inputs())
def test_closed_form_classifies_as_the_general_elimination(inputs):
    m, k, lam, mu = inputs
    system = LinearSystem(k)
    for row, rhs in _equations(m, k, lam, mu).values():
        system.add(row, rhs)
    if not system.inconsistent and system.rank == k:
        got = density_quant_coefficients(m, k, lam, mu).values
        assert got == closed_form_coefficients(m, k, lam, mu)
        assert_solves_the_sampled_equations(m, k, lam, mu, got)
        return
    problem = "inconsistent" if system.inconsistent else "rank-deficient"
    with pytest.raises(ResonantWeight) as exc:
        density_quant_coefficients(m, k, lam, mu)
    assert str(exc.value).startswith(f"quantization system {problem} at delta = {mu - lam}: ")
    assert exc.value.delta == mu - lam


def test_stray_term_in_the_moved_symbol_raises(monkeypatch):
    # the guard compares [L_X, Q(P)] with Q(L_X P); one stray component of
    # L_X P leaves a residual term, named by the error
    moved_symbol = quantize.lie_derivative
    beta, mono = (4, 0, 0), (0, 1, 0)

    def with_stray_component(field, section):
        stray = {(0,) * section.degree: Poly.monomial(section.rank, mono)}
        return moved_symbol(field, section) + TensorSection(
            section.rank, section.degree, section.twist, section.weight, stray
        )

    monkeypatch.setattr(quantize, "lie_derivative", with_stray_component)
    with pytest.raises(RuntimeError) as exc:
        density_quant_coefficients(3, 4, Fraction(1, 2), Fraction(1, 3))
    assert str(exc.value).endswith(f"keeps derivative {beta} with monomial {mono}")


RESONANT_LAMBDAS = tuple(map(Fraction, ("0", "1/2", "-3/7", "2/7", "-1", "5/3")))
RESONANT_DIGEST = "9c123e22030f50a0970a1b128d5fe680e6d2b1f48639199a9e2edb04f5b95140"


def test_resonant_messages_are_pinned():
    # str(ResonantWeight) and .delta at every root for m = 2..5, k = 1..6 and
    # six weights: the bytes `quantize` prints on a resonant call, recorded
    # while the solve still checked a second symbol's equations
    lines = []
    for m in range(2, 6):
        for k in range(1, 7):
            for lam in RESONANT_LAMBDAS:
                for j in range(1, k + 1):
                    with pytest.raises(ResonantWeight) as exc:
                        density_quant_coefficients(m, k, lam, lam + Fraction(m + 2 * k - j, m + 1))
                    lines.append(f"{exc.value}|{exc.value.delta}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RESONANT_DIGEST


OPERATOR_DIGEST = "3b0b050185e85b6f99d99eb13b7c785c1e579350621512bc8dd02b648080cf09"


def test_quantization_operators_are_pinned():
    # Q(P) for the solved and for fixed wrong constants at m = 2, 3, k <= 3
    # and two weights, recorded while the tower was still summed pairwise
    lines = []
    for m in (2, 3):
        for k in range(4):
            for lam in (Fraction(1, 3), Fraction(-2, 5)):
                delta = Fraction(1, 7)
                symbol = random_section(m, (k,), 0, delta, 2, random.Random(1000 * m + 10 * k))
                solved = density_quant_coefficients(m, k, lam, lam + delta).values
                wrong = tuple(Fraction((-1) ** l, l + 1) for l in range(k + 1))
                for values in (solved, wrong):
                    op = quantization_operator(symbol, values)
                    terms = sorted((b, sorted(p.coeffs.items())) for b, p in op.coeffs.items())
                    lines.append(f"{m} {k} {lam} {terms}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == OPERATOR_DIGEST
