"""The packed polynomial kernel against the tuple-keyed Fraction reference."""

import copy
import pickle
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projquant.flatmodel import Poly
from projquant.flatmodel.poly import poly_combination, poly_sum

from support import RefPoly

NVARS = st.integers(min_value=1, max_value=4)
# mixed denominators, negatives, and zeros (which both sides drop)
COEFFS = st.fractions(min_value=-12, max_value=12, max_denominator=6)
SCALARS = st.one_of(
    st.just(0), st.integers(min_value=-5, max_value=5), COEFFS
)


@st.composite
def poly_pairs(draw):
    """Two coefficient maps in the same variables; the second reuses some
    monomials of the first with negated coefficients, so sums cancel terms
    and can cancel to zero."""
    nvars = draw(NVARS)
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * nvars)
    a = draw(st.dictionaries(exps, COEFFS, max_size=6))
    b = draw(st.dictionaries(exps, COEFFS, max_size=4))
    for k in draw(st.lists(st.sampled_from(sorted(a)), unique=True) if a else st.just([])):
        b[k] = -a[k]
    return nvars, a, b


def _same(poly: Poly, ref: RefPoly) -> None:
    view = poly.coeffs
    assert view == ref.coeffs
    assert all(type(v) in (int, Fraction) and v != 0 for v in view.values())
    assert poly.nvars == ref.nvars
    assert poly.total_degree() == ref.total_degree()
    assert bool(poly) == bool(ref.coeffs)


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), SCALARS)
def test_kernel_matches_reference(pair, factor):
    nvars, a, b = pair
    pa, pb = Poly(nvars, a), Poly(nvars, b)
    ra, rb = RefPoly(nvars, a), RefPoly(nvars, b)
    _same(pa, ra)
    _same(pb, rb)
    _same(pa + pb, ra + rb)
    _same(pa - pb, ra - rb)
    _same(pb - pa, rb - ra)
    _same(pa * pb, ra * rb)
    _same(pa * (pa - pb), ra * (ra - rb))
    _same(-pa, -ra)
    _same(pa.scale(factor), ra.scale(factor))
    _same(pa * factor, ra.scale(factor))
    _same(factor * pa, ra.scale(factor))
    for i in range(nvars):
        _same(pa.diff(i), ra.diff(i))
        _same((pa * pb).diff(i), (ra * rb).diff(i))
    point = tuple(Fraction(i + 2, 3) for i in range(nvars))
    assert pa.eval(point) == ra.eval(point)
    assert (pa * pb).eval(point) == (ra * rb).eval(point)


@settings(max_examples=60, deadline=None)
@given(
    poly_pairs(),
    st.lists(st.integers(min_value=-4, max_value=4), max_size=5),
    st.integers(min_value=1, max_value=12),
)
def test_integer_combination_matches_reference(pair, factors, den):
    nvars, a, b = pair
    polys = [Poly(nvars, a), Poly(nvars, b)] * 3
    refs = [RefPoly(nvars, a), RefPoly(nvars, b)] * 3
    expected = RefPoly(nvars)
    for c, r in zip(factors, refs):
        expected = expected + r.scale(Fraction(c, den))
    _same(poly_combination(nvars, zip(factors, polys), den), expected)
    _same(poly_sum(nvars, polys[: len(factors)]), sum(refs[: len(factors)], RefPoly(nvars)))


# products of 2 and 3, so that factors, contents and denominators share primes
SMOOTH = st.sampled_from((1, 2, 3, 4, 6, 9, 12))


@st.composite
def scaled_copies(draw):
    """(nvars, c, p, den) for c * p / den, where c shares factors with den
    and with p's denominator, and p's numerators share a content with den."""
    nvars = draw(NVARS)
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    numerators = draw(st.dictionaries(exps, st.integers(-5, 5).filter(bool), max_size=5))
    content, p_den = draw(SMOOTH), draw(SMOOTH)
    p = Poly(nvars, {e: Fraction(v * content, p_den) for e, v in numerators.items()})
    c = draw(st.integers(min_value=-3, max_value=3)) * draw(SMOOTH)
    return nvars, c, p, draw(SMOOTH)


@settings(max_examples=200, deadline=None)
@given(scaled_copies())
def test_scaled_copy_matches_reference_and_is_reduced(case):
    nvars, c, p, den = case
    ref = RefPoly(nvars, p.coeffs)
    copies = [
        (poly_combination(nvars, [(c, p)], den), ref.scale(Fraction(c, den))),
        (p.scale(Fraction(c, den)), ref.scale(Fraction(c, den))),
        (p.scale(c), ref.scale(c)),
        (-p, -ref),
    ]
    for got, expected in copies:
        _same(got, expected)
        # one representation per value: numerators coprime to the denominator
        # as a whole, and the zero polynomial over 1
        assert gcd(got._den, *got._terms.values()) == 1
        assert got._terms or got._den == 1


def _assert_canonical(p: Poly) -> None:
    """Content num/den times a primitive part with a positive lead."""
    terms, num, den = p._terms, p._num, p._den
    if not terms:
        assert (terms, num, den) == ({}, 0, 1)
        return
    assert all(type(v) is int and v for v in terms.values())
    assert gcd(*terms.values()) == 1
    assert terms[max(terms)] > 0
    assert num and den > 0 and gcd(num, den) == 1


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), SCALARS, st.integers(min_value=1, max_value=12))
def test_every_result_is_in_canonical_form(pair, factor, den):
    nvars, a, b = pair
    pa, pb = Poly(nvars, a), Poly(nvars, b)
    results = [
        pa,
        pb,
        pa + pb,
        pa - pb,
        pa - pa,
        pa * pb,
        pa.scale(factor),
        pa * factor,
        -pa,
        poly_sum(nvars, [pa, pb, pa]),
        poly_sum(nvars, [pb]),
        poly_combination(nvars, [(3, pa), (-2, pb)], den),
        poly_combination(nvars, [(2, pa)], den),
    ]
    results += [pa.diff(i) for i in range(nvars)]
    results += [(pa * pb).diff(i) for i in range(nvars)]
    for p in results:
        _assert_canonical(p)


@settings(max_examples=100, deadline=None)
@given(poly_pairs(), SCALARS.filter(bool), st.integers(min_value=1, max_value=12))
def test_scaled_copies_share_the_terms_and_leave_the_original(pair, factor, den):
    nvars, a, _ = pair
    p = Poly(nvars, a)
    before = p.coeffs
    copies = [p.scale(factor), -p, factor * p, poly_combination(nvars, [(-3, p)], den)]
    if p:
        assert all(q._terms is p._terms for q in copies)
    for q in copies:
        _assert_canonical(q)
        # a later sum merges into a fresh dict, never into a shared one
        assert q + p - p == q
        assert not q - q
    assert p.coeffs == before
    assert p == Poly(nvars, a)


@settings(max_examples=100, deadline=None)
@given(poly_pairs())
def test_equal_polynomials_compare_and_hash_equal(pair):
    nvars, a, b = pair
    pa, pb = Poly(nvars, a), Poly(nvars, b)
    ra, rb = RefPoly(nvars, a), RefPoly(nvars, b)
    assert (pa == pb) == (ra.coeffs == rb.coeffs)
    # one value reached by different routes has one representation
    routes = [
        pa + pb,
        pb + pa,
        (pa.scale(Fraction(1, 3)) + pb.scale(Fraction(1, 3))).scale(3),
        pa - (-pb),
        Poly(nvars, (ra + rb).coeffs),
        Poly(nvars, (pa + pb).coeffs),
    ]
    for p in routes:
        assert p == routes[0]
        assert hash(p) == hash(routes[0])
    assert pa - pa == Poly.zero(nvars)
    assert hash(pa - pa) == hash(Poly.zero(nvars))
    assert (pa - pa).coeffs == {}


@settings(max_examples=50, deadline=None)
@given(poly_pairs())
def test_copies_and_pickles_combine_with_the_original(pair):
    nvars, a, b = pair
    pa, pb = Poly(nvars, a), Poly(nvars, b)
    for clone in (copy.copy(pa), copy.deepcopy(pa), pickle.loads(pickle.dumps(pa))):
        assert clone == pa and hash(clone) == hash(pa)
        assert clone + pb == pa + pb and clone * pb == pa * pb
        assert not clone - pa


def test_coeffs_view_reads_back_the_constructor_input():
    p = Poly(2, {(1, 0): Fraction(1, 2), (0, 2): Fraction(-3, 4), (1, 1): 2, (0, 0): 0})
    assert p.coeffs == {(1, 0): Fraction(1, 2), (0, 2): Fraction(-3, 4), (1, 1): 2}
    assert type(p.coeffs[(1, 1)]) is int
    assert p.scale(4).coeffs == {(1, 0): 2, (0, 2): -3, (1, 1): 8}
    assert all(type(v) is int for v in p.scale(4).coeffs.values())


def test_inexact_coefficients_raise():
    with pytest.raises(TypeError):
        Poly(2, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        Poly.constant(2, 1.0)
    x = Poly.variable(2, 0)
    with pytest.raises(TypeError):
        x.scale(0.5)
    with pytest.raises(TypeError):
        x * 0.5


def test_malformed_monomials_raise():
    with pytest.raises(ValueError):
        Poly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Poly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Poly.variable(2, 0) + Poly.variable(3, 0)
    with pytest.raises(ValueError):
        Poly.variable(2, 0) * Poly.variable(3, 0)


@pytest.mark.parametrize("nvars", [1, 2, 4, 7])
def test_product_past_the_packed_field_raises(nvars):
    top = Poly.zero(nvars).max_degree
    rest = (0,) * (nvars - 1)
    x_first = Poly.variable(nvars, 0)
    x_last = Poly.variable(nvars, nvars - 1)
    # up to the limit, products stay exact
    below = Poly.monomial(nvars, (top - 1,) + rest, 3)
    assert (below * x_first).coeffs == {(top,) + rest: 3}
    high_first = Poly.monomial(nvars, (top,) + rest)
    high_last = Poly.monomial(nvars, rest + (top,))
    assert high_first.total_degree() == high_last.total_degree() == top
    # one more degree would carry an exponent into the next field
    for high in (high_first, high_last):
        for x in (x_first, x_last):
            with pytest.raises(OverflowError):
                high * x
    with pytest.raises(OverflowError):
        Poly.monomial(nvars, (top + 1,) + rest)


def test_derivatives_at_twenty_thousand_variables():
    # each variable's key for diff has 160,000 bits here, so it is made only
    # for the variables differentiated: all of them would take 400 MB
    n = 20000
    tracemalloc.start()
    try:
        x = Poly.variable(n, n - 1)
        assert (x * x).diff(n - 1) == x.scale(2)
        assert not x.diff(0)
        assert Poly.monomial(n, (0,) * (n - 1) + (3,)).total_degree() == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
