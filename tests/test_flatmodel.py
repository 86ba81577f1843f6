import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projquant
from projquant import (
    ResonantWeight,
    branch_labels,
    canonicalize,
    component,
    eigenvalue,
    extend_rank,
    resonances,
)
from projquant.casimir import gap_roots
from projquant.flatmodel import (
    DiffOperator,
    Poly,
    PolyVectorField,
    TensorSection,
    classical_casimir,
    compose,
    contraction_operator,
    density_quant_coefficients,
    divergence,
    lie_derivative,
    lift_plan,
    proj_embedding,
    quantization_operator,
    random_polynomial,
    random_section,
    sl_basis,
    young_section,
)
from projquant.flatmodel import algebra, operators, sections
from projquant.flatmodel.algebra import _matrix
from projquant.flatmodel.operators import lie_operator, operator_combination
from projquant.flatmodel.quantize import quadratic_generator
from projquant.flatmodel.sections import _exponents, _monomial_count
import support
from support import (
    all_canonical_diagrams,
    dense_contraction_operator,
    dense_divergence,
    derived_casimir_kernels,
    direct_casimir,
    field_bracket,
    invert_matrix,
    killing_dual_basis,
    killing_form,
    matrix_bracket,
    matrix_trace,
    max_coefficient_degree,
    operator_sum_by_beta,
)


def euler_field(m):
    return PolyVectorField(
        tuple(Poly.variable(m, i) for i in range(m))
    )


def random_field(m, rng, max_degree=2):
    return PolyVectorField(
        tuple(random_polynomial(m, max_degree, rng) for _ in range(m))
    )


def test_poly_arithmetic():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.diff(0) == x.scale(2)
    assert p.eval((Fraction(3), Fraction(2))) == 5
    assert (p - p).total_degree() == -1


def test_proj_embedding_translation_block():
    m = 3
    h = [[0] * 4 for _ in range(4)]
    h[1][3] = 1
    field = proj_embedding(h)
    assert field.components[1] == Poly.constant(m, 1)
    assert all(not field.components[i] for i in (0, 2))


def test_proj_embedding_zero_and_trace_check():
    zero = [[0] * 4 for _ in range(4)]
    assert not any(proj_embedding(zero).components)
    bad = [[0] * 3 for _ in range(3)]
    bad[0][0] = 1
    with pytest.raises(ValueError):
        proj_embedding(bad)


def test_proj_embedding_refuses_a_matrix_that_is_not_square():
    # a 3x4 matrix once lost its last column, so this one read as the zero
    # field, and a 4x3 one raised IndexError
    wide = [[0, 0, 0, 5], [0, 0, 0, 0], [0, 0, 0, 0]]
    tall = [[0, 0, 0] for _ in range(4)]
    ragged = [[0, 0, 0], [0, 0], [0, 0, 0]]
    for h, lengths in [(wide, "[4, 4, 4]"), (tall, "[3, 3, 3, 3]"), (ragged, "[3, 2, 3]")]:
        with pytest.raises(ValueError) as exc:
            proj_embedding(h)
        assert str(exc.value) == f"matrix must be square, got rows of lengths {lengths}"


@st.composite
def traceless_pairs(draw):
    """Two dense traceless matrices of one size, rank 2..5, and a rational."""
    m = draw(st.integers(min_value=2, max_value=5))
    entries = st.fractions(-3, 3, max_denominator=7)

    def traceless():
        h = [[draw(entries) for _ in range(m + 1)] for _ in range(m + 1)]
        h[m][m] -= sum(h[i][i] for i in range(m + 1))
        return tuple(map(tuple, h))

    return traceless(), traceless(), draw(entries)


@settings(max_examples=40, deadline=None)
@given(traceless_pairs())
def test_embedding_is_linear_and_an_antihomomorphism_on_dense_matrices(case):
    a, b, s = case
    x, y = proj_embedding(a), proj_embedding(b)
    combined = tuple(tuple(p + s * q for p, q in zip(ra, rb)) for ra, rb in zip(a, b))
    assert proj_embedding(combined).components == tuple(
        p + q.scale(s) for p, q in zip(x.components, y.components)
    )
    bracket = tuple(tuple(-e for e in row) for row in matrix_bracket(a, b))
    assert field_bracket(x, y) == proj_embedding(bracket)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_embedding_is_bracket_antihomomorphism(m):
    basis = sl_basis(m)
    fields = [proj_embedding(h) for h in basis]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            lhs = field_bracket(fields[i], fields[j])
            rhs = proj_embedding(
                tuple(tuple(-x for x in row) for row in matrix_bracket(a, b))
            )
            assert lhs.components == rhs.components


def test_killing_dual_basis_pairing_and_dimension():
    for m in (2, 3, 4, 5):
        basis, dual = killing_dual_basis(m)
        assert len(basis) == m * (m + 2) == len(dual)
        # the dual basis lies in sl(m+1); the identity pairs to zero with it
        assert all(matrix_trace(ud) == 0 for ud in dual)
        for i, u in enumerate(basis):
            for j, ud in enumerate(dual):
                assert killing_form(u, ud) == (1 if i == j else 0)


def test_killing_dual_closed_form_matches_gram_inversion():
    # the dual from the inverse of the Gram matrix kappa(u_i, u_j), solved
    # by elimination, must equal the closed form entry for entry
    for m in (2, 3, 4, 5):
        basis, dual = killing_dual_basis(m)
        p = len(basis)
        gram = [[killing_form(basis[i], basis[j]) for j in range(p)] for i in range(p)]
        inv = invert_matrix(gram)
        for i in range(p):
            expected = tuple(
                tuple(sum(inv[t][i] * basis[t][r][c] for t in range(p)) for c in range(m + 1))
                for r in range(m + 1)
            )
            assert dual[i] == expected


def test_casimir_basis_independent():
    # recombine the basis and rebuild the dual by Gram inversion; the summed
    # operator must not change
    m = 2
    basis = sl_basis(m)
    mixed = list(basis)
    mixed[0], mixed[1] = mixed[1], mixed[0]
    combo = tuple(
        tuple(a + b for a, b in zip(row1, row2)) for row1, row2 in zip(basis[2], basis[3])
    )
    mixed[2] = combo
    p = len(mixed)
    gram = [[killing_form(mixed[i], mixed[j]) for j in range(p)] for i in range(p)]
    inv = invert_matrix(gram)
    dual = [
        tuple(
            tuple(sum(inv[t][i] * mixed[t][r][c] for t in range(p)) for c in range(m + 1))
            for r in range(m + 1)
        )
        for i in range(p)
    ]
    rng = random.Random(4)
    section = random_section(m, (1,), 0, Fraction(1, 3), 2, rng)
    total = TensorSection(m, 1, 0, Fraction(1, 3))
    for u, ud in zip(mixed, dual):
        total = total + lie_derivative(
            proj_embedding(u), lie_derivative(proj_embedding(ud), section)
        )
    assert total == classical_casimir(section)


@st.composite
def tensor_sections(draw, max_slots=3):
    """Sections with no symmetry and a few components filled, each a small
    polynomial with rational coefficients."""
    m = draw(st.integers(2, 4))
    slots = draw(st.integers(0, max_slots))
    index = st.tuples(*[st.integers(0, m - 1)] * slots)
    monomial = st.tuples(*[st.integers(0, 2)] * m)
    poly = st.dictionaries(monomial, st.fractions(-3, 3, max_denominator=7), max_size=3)
    coeffs = draw(st.dictionaries(index, poly.map(lambda c: Poly(m, c)), max_size=4))
    twist = draw(st.integers(-2, 2))
    weight = draw(st.fractions(-3, 3, max_denominator=7))
    return TensorSection(m, slots, twist, weight, coeffs)


@settings(max_examples=60, deadline=None)
@given(tensor_sections())
def test_casimir_kernels_equal_the_lie_derivative_loop(section):
    assert classical_casimir(section) == direct_casimir(section)


@st.composite
def orbit_sections(draw):
    """Sections built S_k orbit by orbit, where `classical_casimir` takes one
    of its two paths.  Each orbit is stored in full under the trivial or the
    sign character (tuple I holding P or sign(I) P), then left so or given
    one member changed, one member's sign flipped or one member missing; or
    it holds unsymmetrized components.  Signs on a key with a repeated index
    follow no character, since the swap of the equal slots fixes the tuple.
    Weights are ints or Fractions, or put t = delta - n at 1 or 2k/m, where
    the sign character's factor diagonal - swap k(k-1)/2, which is
    (m+1)(t-1)(mt-2k) q^2, vanishes (for k <= 1 so does the trivial one)."""
    m = draw(st.integers(2, 4))
    slots = draw(st.integers(0, 4))
    monomial = st.tuples(*[st.integers(0, 2)] * m)
    coefficient = st.fractions(-3, 3, max_denominator=7).filter(bool)
    poly = st.dictionaries(monomial, coefficient, min_size=1, max_size=3).map(
        lambda c: Poly(m, c)
    )
    distinct = slots <= m and draw(st.booleans())
    keys = st.lists(
        st.integers(0, m - 1), min_size=slots, max_size=slots, unique=distinct
    ).map(lambda index: tuple(sorted(index)))
    coeffs = {}
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        orbit = sorted(set(permutations(key)))
        kind = draw(st.sampled_from(("complete", "changed", "flipped", "missing", "unsymmetrized")))
        if kind == "unsymmetrized":
            for index in draw(st.lists(st.sampled_from(orbit), unique=True, max_size=4)):
                coeffs[index] = draw(poly)
            continue
        p, chi = draw(poly), draw(st.sampled_from((1, -1)))
        for index in orbit:
            coeffs[index] = p.scale(chi ** sum(a > b for a, b in combinations(index, 2)))
        target = draw(st.sampled_from(orbit))
        held = coeffs[target]
        if kind == "changed":
            coeffs[target] = draw(poly.filter(lambda other: other != held))
        elif kind == "flipped":
            coeffs[target] = -held
        elif kind == "missing":
            del coeffs[target]
    twist = draw(st.integers(-2, 2))
    weight = draw(
        st.one_of(
            st.integers(-3, 3),
            st.fractions(-3, 3, max_denominator=7),
            st.sampled_from((1, Fraction(2 * slots, m))).map(lambda t: twist + t),
        )
    )
    return TensorSection(m, slots, twist, weight, coeffs)


@settings(max_examples=100, deadline=None)
@given(orbit_sections())
def test_casimir_orbit_rule_equals_the_lie_derivative_loop(section):
    # a complete orbit under the trivial or the sign character is scaled
    # once; every other orbit, a changed, flipped or missing member or signs
    # on a repeated index included, is summed swap by swap
    assert classical_casimir(section) == direct_casimir(section)


def test_casimir_below_two_slots_reads_no_orbit(monkeypatch):
    # with no slot pair every orbit is one tuple and C is one scalar, so the
    # operator answers without reading a character off the polynomials
    def refuse(orbit, members):
        raise AssertionError(f"character read for the orbit {orbit}")

    monkeypatch.setattr(algebra, "_character", refuse)
    rng = random.Random(3100)
    for m in (2, 3, 4):
        for rows in ((), (1,)):
            # weight 1 at twist 0 puts t = 1, where the scalar section's factor vanishes
            for twist, weight in ((0, Fraction(1, 3)), (1, Fraction(-5, 2)), (-1, 2), (0, 1)):
                full = random_section(m, rows, twist, weight, 2, rng)
                sparse = TensorSection(m, len(rows), twist, weight, dict([min(full.coeffs.items())]))
                for section in (full, sparse):
                    assert classical_casimir(section) == direct_casimir(section)


def test_casimir_scales_a_complete_orbit_once():
    # a symmetric orbit shares one image; a one-column orbit holds the image
    # and its negation, so the tuples of one orbit hold at most two objects
    rng = random.Random(3101)
    for m in (2, 3, 4):
        for rows, objects in (((2,), 1), ((1, 1), 2)):
            data = {key: random_polynomial(m, 2, rng) for key in combinations(range(m), 2)}
            section = young_section(m, rows, 1, Fraction(-2, 3), data)
            image = classical_casimir(section)
            assert image == direct_casimir(section)
            orbits = {}
            for index, poly in image.coeffs.items():
                orbits.setdefault(tuple(sorted(index)), {})[id(poly)] = poly
            assert len(orbits) == len(data)
            assert all(len(held) == objects for held in orbits.values()), rows


# sha256 over every `classical_casimir` output of the sections below, taken
# when only orbits of one polynomial were scaled in one step, before the
# alternating orbits of one-column sections were
CASIMIR_DIGEST = "32d2bdb131456985e1be38d4aff24a2eb0c412778fc71d7610d6ed128cded508"


def test_casimir_outputs_are_pinned():
    digest = hashlib.sha256()
    weights = (Fraction(1, 3), Fraction(-5, 2), 2)
    for m in range(2, 6):
        rng = random.Random(2300 + m)
        for rows in ((1, 1), (1, 1, 1), (2, 1), (2, 2), (3,)):
            if len(rows) > m or (m == 5 and sum(rows) > 3):
                continue
            for twist, weight in zip((0, 1, -1), weights):
                sections = [random_section(m, rows, twist, weight, 1, rng)]
                for k in range(5):  # unsymmetrized: components at random tuples
                    keys = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(6)]
                    data = {key: random_polynomial(m, 1, rng) for key in keys}
                    sections.append(TensorSection(m, k, twist, weight, data))
                for section in sections:
                    image = classical_casimir(section)
                    for index in sorted(image.coeffs):
                        terms = sorted(image.coeffs[index].coeffs.items())
                        digest.update(repr((index, terms)).encode())
    assert digest.hexdigest() == CASIMIR_DIGEST


@settings(max_examples=60, deadline=None)
@given(tensor_sections(max_slots=4))
def test_stored_component_walks_equal_the_dense_references(section):
    assert contraction_operator(section) == dense_contraction_operator(section)
    if section.degree:
        assert divergence(section) == dense_divergence(section)


@st.composite
def operator_terms(draw):
    """(c, op) terms of one rank whose operators share multi-indices and
    monomials often, so that sums cancel."""
    m = draw(st.integers(2, 3))
    small = st.tuples(*[st.integers(0, 1)] * m)
    poly = st.dictionaries(small, st.fractions(-2, 2, max_denominator=3), max_size=3)
    op = st.dictionaries(small, poly.map(lambda c: Poly(m, c)), max_size=3)
    factor = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=5))
    terms = st.lists(st.tuples(factor, op.map(lambda c: DiffOperator(m, c))), max_size=4)
    return m, draw(terms)


@settings(max_examples=100, deadline=None)
@given(operator_terms())
def test_operator_combination_equals_the_sum_by_beta(case):
    m, terms = case
    got = operator_combination(m, terms)
    assert got == operator_sum_by_beta(m, terms)
    assert all(got.coeffs.values())  # cancelled multi-indices are dropped
    # the guard's `if residual:` needs an exact cancellation to be falsy
    assert not operator_combination(m, terms + [(-c, op) for c, op in terms])
    for _, op in terms:
        assert not operator_combination(m, [(1, op), (-1, op)])


@st.composite
def operator_pairs(draw):
    """Two operators of one rank whose derivative orders often pass the
    degrees of the inner operator's coefficients."""
    m = draw(st.integers(2, 5))
    # up to three derivatives spread over the m directions, most entries zero
    slots = st.lists(st.integers(0, m - 1), max_size=3)
    index = slots.map(lambda slot: tuple(slot.count(i) for i in range(m)))
    exps = st.tuples(*[st.integers(0, 2)] * m)
    poly = st.dictionaries(exps, st.fractions(-3, 3, max_denominator=4), max_size=3)
    op = st.dictionaries(index, poly.map(lambda c: Poly(m, c)), max_size=3)
    return m, DiffOperator(m, draw(op)), DiffOperator(m, draw(op))


@settings(max_examples=60, deadline=None)
@given(operator_pairs())
def test_composition_acts_as_the_two_operators_in_turn(case):
    # an operator of order r is fixed by its values on the monomials of
    # degree <= r, so this pins compose(outer, inner) exactly
    m, outer, inner = case
    composed = compose(outer, inner)
    order = max(outer.order, 0) + max(inner.order, 0)
    for exps in _exponents(m, order):
        f = Poly.monomial(m, exps)
        assert composed.apply(f) == outer.apply(inner.apply(f))


def test_compose_forms_two_binomials_per_pair_of_first_order_terms(monkeypatch):
    # tau walks the one nonzero entry of each alpha, not all m of them
    calls = 0

    def counted(n, k):
        nonlocal calls
        calls += 1
        return comb(n, k)

    monkeypatch.setattr(operators, "comb", counted)
    field = quadratic_generator(60)
    outer, inner = lie_operator(field, Fraction(1, 3)), lie_operator(field, Fraction(2, 7))
    composed = compose(outer, inner)
    assert calls <= 2 * len(outer.coeffs) * len(inner.coeffs)
    f = Poly(60, {(1,) * 3 + (0,) * 56 + (2,): 1, (0,) * 59 + (1,): 5})
    assert composed.apply(f) == outer.apply(inner.apply(f))


def test_casimir_rejects_rank_below_two():
    for m in (0, 1):
        with pytest.raises(ValueError, match="rank must be at least 2"):
            classical_casimir(TensorSection(m, 0, 0, 0))


def test_casimir_derives_nothing_at_a_large_rank():
    # the closed form needs no Killing dual: a 3-slot section at m = 40 is
    # answered, and the module that applies it defines no Killing-dual name
    script = (
        "from projquant.flatmodel import Poly, TensorSection, classical_casimir\n"
        "from projquant.flatmodel import algebra\n"
        "section = TensorSection(40, 3, 0, 0, {(0, 1, 39): Poly.variable(40, 2)})\n"
        "print(bool(classical_casimir(section)))\n"
        "print([name for name in vars(algebra) if 'killing' in name.lower()])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(projquant.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.stdout == "True\n[]\n", run.stderr


def _kernels_from(monkeypatch, pairs):
    """Point the derivation, uncached, at the given (u, u+) field pairs."""
    monkeypatch.setattr(support, "casimir_field_pairs", lambda m: pairs)
    for kernel in (support._scalar_kernel, support._slot_kernel, support._pair_kernel):
        monkeypatch.setattr(support, kernel.__name__, kernel.__wrapped__)


def test_casimir_kernel_rejects_a_term_with_a_derivative(monkeypatch):
    # u = u+ = d_0 leaves the scalar term d_0 d_0 with coefficient 1
    translation = PolyVectorField((Poly.constant(2, 1), Poly.zero(2)))
    _kernels_from(monkeypatch, [(translation, translation)])
    with pytest.raises(
        RuntimeError, match=r"rank 2, scalar part: term 0 with derivative \(0, 0\)"
    ):
        derived_casimir_kernels(2)


def test_casimir_kernel_rejects_a_non_constant_coefficient(monkeypatch):
    # u = u+ = x_0^2 d_0: M_u M_u+ on two slots is 4 x_0^2 at (0, 0 <- 0, 0)
    x0 = Poly.variable(2, 0)
    field = PolyVectorField((x0 * x0, Poly.zero(2)))
    _kernels_from(monkeypatch, [(field, field)])
    with pytest.raises(
        RuntimeError,
        match=r"rank 2, two-slot part: term \(0, 0, 0, 0\) with derivative \(\) "
        r"and coefficient Poly\(4\*x0\^2\) is not a constant",
    ):
        support._pair_kernel(2)


def test_casimir_kernels_are_constant_matrices():
    # and they are the closed form classical_casimir applies: (m/2) t(t-1),
    # 1 - t on each slot's diagonal, (id + swap)/2(m+1) on each ordered pair
    # of slots; m = 2..8 covers every rank criterion 9 uses
    for m in range(2, 9):
        half = Fraction(1, 2 * (m + 1))
        pair = {(j, j2): {(j, j2): half} for j in range(m) for j2 in range(m)}
        for (j, j2), targets in pair.items():
            targets[(j2, j)] = targets.get((j2, j), 0) + half
        scalar, one_slot, two_slot = derived_casimir_kernels(m)
        assert scalar == {1: Fraction(-m, 2), 2: Fraction(m, 2)}
        assert one_slot == {j: ((j, {0: 1, 1: -1}),) for j in range(m)}
        assert {source: dict(targets) for source, targets in two_slot.items()} == pair


def test_random_polynomial_draws_as_the_filtered_product():
    def filtered_product(rank, max_degree, rng):
        coeffs = {}
        for exps in product(range(max_degree + 1), repeat=rank):
            if sum(exps) <= max_degree:
                coeffs[exps] = rng.randint(-3, 3)
        return Poly(rank, coeffs)

    for m in range(2, 7):
        for d in range(4):
            for seed in (0, 1, 7):
                new, old = random.Random(seed), random.Random(seed)
                assert random_polynomial(m, d, new) == filtered_product(m, d, old)
                assert new.random() == old.random()


def test_exponents_enumerate_in_the_filtered_product_order():
    # the order fixes which rng draw goes to which monomial
    for rank in range(6):
        for d in range(-1, 5):
            want = tuple(e for e in product(range(d + 1), repeat=rank) if sum(e) <= d)
            assert _exponents(rank, d) == want
    # one loop, not one frame per variable
    assert _exponents(5000, 1)[-1] == (1,) + (0,) * 4999


def test_monomial_count_is_the_number_of_exponents():
    for rank in range(5):
        for d in range(-3, 5):
            assert _monomial_count(rank, d) == len(_exponents(rank, d)), (rank, d)


def test_random_polynomial_refuses_a_negative_degree():
    for rank in range(5):
        for d in range(-3, 5):
            rng = random.Random(0)
            if d >= 0:
                assert random_polynomial(rank, d, rng).total_degree() <= d
                continue
            with pytest.raises(ValueError) as refused:
                random_polynomial(rank, d, rng)
            assert str(refused.value) == f"max_degree {d} leaves only the zero polynomial"
            assert rng.random() == random.Random(0).random()  # refused before any draw


def test_random_polynomial_over_the_monomial_budget_raises_before_listing():
    # about 5e9 exponent tuples: listing them would not finish
    with pytest.raises(ValueError) as exc:
        random_polynomial(2, 100000, random.Random(0))
    assert str(exc.value) == (
        "5000150001 monomials of degree <= 100000 in 2 variables "
        "exceed the budget of 1000000"
    )
    # C(1414, 2) = 998991 is within the budget, C(1415, 2) = 1000405 is not
    with pytest.raises(ValueError, match="^1000405 monomials"):
        random_polynomial(2, 1413, random.Random(0))
    # in 3 variables the count passes the budget one factor early: C(1415, 2)
    # bounds C(1416, 3) from below, and the binomial itself is never formed
    with pytest.raises(ValueError, match="^at least 1000405 monomials of degree <= 1413 in 3 "):
        random_polynomial(3, 1413, random.Random(0))


def test_lie_derivative_translation_kills_constants():
    m = 2
    field = proj_embedding([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    section = young_section(m, (1,), 0, Fraction(1, 2), {(0,): Poly.constant(m, 3)})
    assert not lie_derivative(field, section)


def test_lie_derivative_euler_weight_term():
    m = 3
    for n in (0, 2):
        for delta in (Fraction(0), Fraction(1, 2)):
            section = TensorSection(m, 0, n, delta, {(): Poly.constant(m, 1)})
            out = lie_derivative(euler_field(m), section)
            expected = section.scale((delta - n) * m)
            assert out == expected


def test_embedded_fields_are_at_most_quadratic():
    for m in (2, 3, 4):
        for h in sl_basis(m):
            field = proj_embedding(h)
            assert all(c.total_degree() <= 2 for c in field.components)


def test_lie_derivative_degree_bound():
    rng = random.Random(21)
    for _ in range(15):
        m = rng.choice((2, 3))
        field = random_field(m, rng, max_degree=2)
        section = random_section(m, (2,), 0, Fraction(1, 2), 3, rng)
        out = lie_derivative(field, section)
        field_degree = max(c.total_degree() for c in field.components)
        bound = max_coefficient_degree(section) + field_degree - 1
        assert max_coefficient_degree(out) <= bound


def test_lie_derivative_bracket_compatibility():
    rng = random.Random(8)
    m = 2
    for _ in range(20):
        x = random_field(m, rng)
        y = random_field(m, rng)
        section = random_section(m, (2,), 1, Fraction(1, 3), 2, rng)
        lhs = lie_derivative(x, lie_derivative(y, section)) - lie_derivative(
            y, lie_derivative(x, section)
        )
        rhs = lie_derivative(field_bracket(x, y), section)
        assert lhs == rhs


def sparse_field(m, rng):
    """Random field whose components are zero, constant, or quadratic in a
    random subset of the variables."""
    components = []
    for _ in range(m):
        kind = rng.choice(("zero", "constant", "subset", "full"))
        p = random_polynomial(m, 2, rng)
        if kind == "zero":
            p = Poly.zero(m)
        elif kind == "constant":
            p = Poly.constant(m, rng.randint(1, 3))
        elif kind == "subset":
            absent = rng.sample(range(m), rng.randint(1, m - 1))
            p = Poly(m, {e: c for e, c in p.coeffs.items() if not any(e[v] for v in absent)})
        components.append(p)
    return PolyVectorField(tuple(components))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_lie_derivative_equals_the_dense_jacobian_reference(m):
    rng = random.Random(300 + m)
    diagrams = list(all_canonical_diagrams(3, 4))
    assert len(diagrams) == 7  # (), (1), (2), (1,1), (3), (2,1), (1,1,1)
    for rows in diagrams:
        degree = sum(rows)
        for _ in range(4):
            field = sparse_field(m, rng)
            twist, weight = rng.randint(-1, 1), Fraction(rng.randint(-3, 3), 2)
            keys = [tuple(rng.randrange(m) for _ in range(degree)) for _ in range(3)]
            if degree > 1:  # a repeated index value in every section
                keys.append((0,) * degree)
            data = {key: random_polynomial(m, 1, rng) for key in keys}
            raw = TensorSection(m, degree, twist, weight, data)
            young = young_section(m, rows, twist, weight, data)
            for section in (raw, young):
                assert lie_derivative(field, section) == support.dense_lie_derivative(
                    field, section
                )


def test_a_field_at_rank_50_costs_one_diff_per_component(monkeypatch):
    m, calls, diff = 50, [], Poly.diff

    def counted(self, index):
        calls.append(index)
        return diff(self, index)

    monkeypatch.setattr(Poly, "diff", counted)
    for build in (
        lambda: proj_embedding(_matrix(m + 1, {(3, 7): 1})),
        lambda: quadratic_generator.__wrapped__(m),
    ):
        calls.clear()
        field = build()
        assert field.rank == m and len(calls) <= m


def test_divergence_examples():
    m = 2
    constant = young_section(
        m, (2,), 0, Fraction(0), {(0, 0): Poly.constant(m, 5), (0, 1): Poly.constant(m, -1)}
    )
    assert not divergence(constant)

    x1 = Poly.variable(m, 0)
    quadratic = young_section(m, (2,), 0, Fraction(0), {(0, 0): x1 * x1})
    div = divergence(quadratic)
    assert div.component((0,)) == x1.scale(2)
    assert not div.component((1,))


def test_divergence_degree_zero_rejected():
    section = TensorSection(2, 0, 0, Fraction(0), {(): Poly.constant(2, 1)})
    with pytest.raises(ValueError):
        divergence(section)


def test_section_operators_refuse_a_key_that_is_not_degree_indices_below_the_rank():
    # a key past the rank once raised a bare IndexError, and a negative key,
    # or any key at degree 0, gave an answer; classical_casimir and
    # contraction_operator check no key
    m, x0 = 2, Poly.variable(2, 0)
    field = quadratic_generator(m)
    for degree, key in [(1, (5,)), (1, (-1,)), (2, (0,)), (0, (5,))]:
        section = TensorSection(m, degree, 0, Fraction(1, 3), {key: x0})
        calls = [
            lambda: lie_derivative(field, section),
            lambda: quantization_operator(section, [1] * (degree + 1)),
        ]
        if degree:
            calls.append(lambda: divergence(section))
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"key {key} is not {degree} indices below {m}"


def test_double_divergence_matches_hand_expansion():
    rng = random.Random(9)
    m = 2
    section = random_section(m, (3,), 0, Fraction(0), 3, rng)
    twice = divergence(divergence(section))
    for i in range(m):
        expected = Poly.zero(m)
        for j in range(m):
            for l in range(m):
                expected = expected + section.component((j, l, i)).diff(j).diff(l)
        assert twice.component((i,)) == expected


def test_casimir_scalar_weight_zero():
    m = 2
    section = TensorSection(m, 0, 0, Fraction(0), {(): Poly.constant(m, 7)})
    assert not classical_casimir(section)


def test_casimir_vector_fields_plane():
    rng = random.Random(12)
    label = canonicalize((1,), 2, 0, 0)
    alpha = eigenvalue(label)(Fraction(0))
    assert alpha == 1
    for _ in range(5):
        section = random_section(2, (1,), 0, Fraction(0), 3, rng)
        assert classical_casimir(section) == section.scale(alpha)


def test_casimir_symmetric_squares_rank_three():
    rng = random.Random(14)
    delta = Fraction(1, 2)
    alpha = eigenvalue(canonicalize((2,), 3, 0, delta))(delta)
    for _ in range(3):
        section = random_section(3, (2,), 0, delta, 2, rng)
        assert classical_casimir(section) == section.scale(alpha)


def test_casimir_alternating_pair_rank_three():
    rng = random.Random(15)
    delta = Fraction(2, 3)
    alpha = eigenvalue(canonicalize((1, 1), 3, 1, delta))(delta)
    for _ in range(3):
        section = random_section(3, (1, 1), 1, delta, 2, rng)
        assert classical_casimir(section) == section.scale(alpha)


def test_young_section_is_the_symmetric_rule_on_a_row_and_the_alternating_rule_on_a_column():
    rng = random.Random(4)
    for m in (2, 3, 4):
        for k in (1, 2, 3):
            data = {
                index: random_polynomial(m, 1, rng)
                for index in combinations_with_replacement(range(m), k)
            }
            symmetric = {perm: p for index, p in data.items() for perm in permutations(index)}
            expected = TensorSection(m, k, 1, Fraction(1, 3), symmetric)
            assert young_section(m, (k,), 1, Fraction(1, 3), data) == expected
        data = {pair: random_polynomial(m, 1, rng) for pair in combinations(range(m), 2)}
        alternating = {}
        for (i, j), p in data.items():
            alternating[(i, j)], alternating[(j, i)] = p, p.scale(-1)
        expected = TensorSection(m, 2, 0, Fraction(2), alternating)
        assert young_section(m, (1, 1), 0, Fraction(2), data) == expected
    with pytest.raises(ValueError):
        young_section(3, (2, 1), 0, Fraction(0), {(0, 1): Poly.constant(3, 1)})
    with pytest.raises(ValueError):
        young_section(3, (2,), 0, Fraction(0), {(0, 3): Poly.constant(3, 1)})
    with pytest.raises(ValueError):
        young_section(3, (1, 2), 0, Fraction(0), {(0, 0, 1): Poly.constant(3, 1)})


def test_random_section_of_a_hook_is_an_eigensection():
    rng = random.Random(1)
    section = random_section(3, (2, 1), 0, Fraction(1, 3), 2, rng)
    assert section.degree == 3 and section
    # slots 0 and 2 form the first column, so swapping them changes the sign
    for (a, b, c), p in section.coeffs.items():
        assert section.component((c, b, a)) == -p
    alpha = eigenvalue(canonicalize((2, 1), 3, 0, Fraction(1, 3)))(Fraction(1, 3))
    assert classical_casimir(section) == section.scale(alpha)


def test_random_section_rejects_a_diagram_deeper_than_the_rank():
    # no semistandard filling exists, and a zero section would pass any eigenvalue check
    rng = random.Random(1)
    for rank, rows in ((2, (1, 1, 1)), (3, (2, 1, 1, 1)), (1, (1, 1))):
        with pytest.raises(ValueError, match="no filling"):
            random_section(rank, rows, 0, Fraction(0), 2, rng)


def test_random_section_refuses_each_budget_and_a_negative_degree_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a polynomial")

    monkeypatch.setattr(sections, "random_polynomial", no_draw)
    rng = random.Random(0)
    for rank, rows, max_degree, message in (
        (5, (3, 3, 2), 3, "a section of diagram 3,3,2 at m = 5 stores up to 5^8 = 390625 "
         "index tuples, over the budget of 100000"),
        (2, (20000,), 3, "a section of diagram 20000 at m = 2 stores at least 2^17 = 131072 "
         "index tuples, over the budget of 100000"),
        (2, (1,), 100000, "5000150001 monomials of degree <= 100000 in 2 variables "
         "exceed the budget of 1000000"),
        (600, (1,), 2, "a section of diagram 1 at m = 600 draws up to 600 x 180901 = "
         "108540600 coefficients of degree <= 2, over the budget of 10000000"),
        (2, (1,), -1, "max_degree -1 leaves only the zero section"),
    ):  # fmt: skip
        with pytest.raises(ValueError) as refused:
            random_section(rank, rows, 0, Fraction(0), max_degree, rng)
        assert str(refused.value) == message


def test_random_section_draws_again_while_the_section_is_zero():
    class ZerosFirst:
        """Draws `zeros` zero coefficients, then those of a seeded generator."""

        def __init__(self, zeros: int, seed: int) -> None:
            self.zeros, self.rng = zeros, random.Random(seed)

        def randint(self, low: int, high: int) -> int:
            if self.zeros:
                self.zeros -= 1
                return 0
            return self.rng.randint(low, high)

    # zeros: fillings times monomials, the draws of one whole section
    for rank, rows, max_degree, zeros in ((2, (1,), 1, 2 * 3), (3, (2, 1), 0, 8 * 1)):
        section = random_section(rank, rows, 0, Fraction(1, 3), max_degree, ZerosFirst(zeros, 5))
        assert section
        assert section == random_section(
            rank, rows, 0, Fraction(1, 3), max_degree, random.Random(5)
        )


def test_random_section_draws_what_the_row_and_column_constructors_drew():
    # digest of the sections the one-row and two-box-column constructors gave for
    # these draws before every diagram went through young_section
    digest = hashlib.sha256()
    for m in range(2, 6):
        for rows in ((), (1,), (2,), (3,), (1, 1)):
            for twist in (0, 1):
                rng = random.Random(1000 * m + len(rows))
                for _ in range(3):
                    section = random_section(m, rows, twist, Fraction(1, 3), 2, rng)
                    for index in sorted(section.coeffs):
                        terms = sorted(section.coeffs[index].coeffs.items())
                        digest.update(repr((index, terms)).encode())
                digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == (
        "9831f2660a11285e2c066acfcfcefecc5379a91b0cb32799826e77187c5b3f70"
    )


def test_lift_plan_trivial():
    plan = lift_plan(canonicalize((), 3, 0, 0), Fraction(0))
    assert len(plan.nodes) == 1 and plan.edges == ()
    assert plan.root.coefficient is None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lift_plan_single_row_chain(k):
    m = 2
    label = canonicalize((k,), m, 0, 0)
    delta = Fraction(0)
    plan = lift_plan(label, delta)
    assert [node.removals.norm for node in plan.nodes] == list(range(k + 1))
    assert len(plan.edges) == k
    alpha0 = eigenvalue(plan.nodes[0].component)(delta)
    for node in plan.nodes[1:]:
        gap = alpha0 - eigenvalue(node.component)(delta)
        assert node.coefficient == Fraction(-2) / gap


def test_lift_plan_reaches_every_node_from_root():
    rng = random.Random(77)
    checked = 0
    while checked < 15:
        label = canonicalize(
            tuple(
                sorted((rng.randint(0, 3) for _ in range(rng.randint(0, 2))), reverse=True)
            ),
            rng.choice((2, 3, 4)),
            rng.randint(-1, 1),
            0,
        )
        if Fraction(0) in resonances(label):
            continue
        plan = lift_plan(label, Fraction(0))
        adjacency = {}
        for src, dst in plan.edges:
            adjacency.setdefault(src, []).append(dst)
        reached = {plan.root.removals}
        frontier = [plan.root.removals]
        while frontier:
            for nxt in adjacency.get(frontier.pop(), ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        assert reached == {node.removals for node in plan.nodes}
        assert all(dst.norm == src.norm + 1 for src, dst in plan.edges)
        checked += 1


def test_lift_plan_edges_are_the_single_box_steps_between_nodes():
    # every ordered pair of nodes whose padded removal vectors differ by one
    # unit vector e_i, in node order and then i ascending
    delta = Fraction(1, 997)  # no gap root at these ranks has 997 in its denominator
    for m in range(2, 8):
        units = [tuple(int(j == i) for j in range(m)) for i in range(m)]
        for rows in all_canonical_diagrams(5, m):
            plan = lift_plan(canonicalize(rows, m, 0, 0), delta)
            padded = [(node.removals, node.removals.padded(m)) for node in plan.nodes]
            want = [
                (p, q)
                for p, p_pad in padded
                for unit in units
                for q, q_pad in padded
                if tuple(b - a for a, b in zip(p_pad, q_pad)) == unit
            ]
            assert plan.edges == tuple(want), (m, rows)


def test_lift_plan_at_rank_20000_is_fast():
    # each node's edges read the row slacks up to the depth, not a padded
    # tuple per row: this call took 42 s
    start = time.perf_counter()
    plan = lift_plan(canonicalize((3, 1), 20000), Fraction(1, 3))
    assert time.perf_counter() - start < 1
    assert (len(plan.nodes), len(plan.edges)) == (6, 7)


def test_lift_plan_resonant_denominators():
    m, k = 2, 2
    label = canonicalize((k,), m, 0, 0)
    hits = resonances(label)
    assert hits == {Fraction(5, 3), Fraction(4, 3)}
    for delta in hits:
        with pytest.raises(ResonantWeight):
            lift_plan(label, delta)
    plan = lift_plan(label, Fraction(1, 3))
    assert all(node.coefficient is not None for node in plan.nodes[1:])


def test_each_gap_root_goes_with_its_own_removal_vector():
    # against `eigenvalue` of each component: alpha_0 - alpha_q must be
    # |q| (r_q - delta) with the root gap_roots pairs with q, and each lift
    # scalar -2 / (alpha_0 - alpha_q); a root paired with the wrong q fails both
    delta = Fraction(1, 7)  # root denominators divide 2(m+1)|q|, free of 7 here
    checked = 0
    for m in range(2, 6):
        for rows in all_canonical_diagrams(6, m):
            for twist in (-1, 0, 2):
                label = canonicalize(rows, m, twist)
                parent = extend_rank(label)
                removals = branch_labels(parent)
                alpha = [eigenvalue(component(parent, q)) for q in removals]
                roots = gap_roots(label)
                assert len(roots) == len(removals) - 1 and delta not in roots
                for q, alpha_q, root in zip(removals[1:], alpha[1:], roots):
                    assert (alpha_q.c2, alpha_q.c1) == (alpha[0].c2, alpha[0].c1 + q.norm)
                    assert alpha[0].c0 - alpha_q.c0 == q.norm * root
                nodes = lift_plan(label, delta).nodes
                assert [node.removals for node in nodes] == removals
                for node, alpha_q in zip(nodes[1:], alpha[1:]):
                    assert node.coefficient == -2 / (alpha[0](delta) - alpha_q(delta))
                    checked += 1
    assert checked == 843


def test_lift_plan_scalars_step_the_quantization_coefficients():
    # the -2/(alpha_0 - alpha_q) scalars against a second construction, the
    # quantization: on a single row (k) the node q = (l) scales the step from
    # c_(l-1) to c_l of the quantization, up to the delta-free factor
    # gamma_l = -(k-l+1)(lam + (k-l)/(m+1))/2.  The weights below 1 are never
    # resonant for (k), and no gamma_l vanishes at these lam, so every step
    # tests its scalar.
    checked = 0
    for m in range(2, 6):
        for k in range(1, 7):
            label = canonicalize((k,), m)
            for delta in (Fraction(0), Fraction(1, 7), Fraction(-3)):
                nodes = lift_plan(label, delta).nodes
                kappa = {node.removals.norm: node.coefficient for node in nodes}
                for lam in (Fraction(1, 2), Fraction(-1, 7), Fraction(-5, 2)):
                    c = density_quant_coefficients(m, k, lam, lam + delta).values
                    for level in range(1, k + 1):
                        gamma = -(k - level + 1) * (lam + Fraction(k - level, m + 1)) / 2
                        assert gamma and c[level] == c[level - 1] * kappa[level] * gamma
                        checked += 1
    assert checked == 4 * 3 * 3 * sum(range(1, 7))
