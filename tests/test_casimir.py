import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projquant import (
    BranchLabel,
    IrrepLabel,
    YoungDiagram,
    branch_labels,
    canonicalize,
    component,
    dual,
    eigenvalue,
    extend_rank,
    is_resonant,
    littlewood_richardson,
    resonances,
    resonances_for_symbols,
    symbol_rep,
)
from projquant.casimir import gap_roots
from support import (
    all_canonical_diagrams,
    eigenvalue_by_double_sum,
    lr_by_fillings,
    random_canonical_label,
    resonances_generic,
)


def all_canonical_labels(max_size, ranks, twists=(0,)):
    for rank in ranks:
        seen = set()
        for depth in range(0, rank):
            for rows in product(range(max_size, 0, -1), repeat=depth):
                if any(a < b for a, b in zip(rows, rows[1:])):
                    continue
                if sum(rows) > max_size:
                    continue
                if rows in seen:
                    continue
                seen.add(rows)
                for n in twists:
                    yield canonicalize(rows, rank, n, 0)


def test_leading_coefficient_is_half_rank():
    rng = random.Random(3)
    for _ in range(30):
        label = random_canonical_label(rng, rng.choice((2, 3, 4)))
        assert eigenvalue(label).c2 == Fraction(label.rank, 2)


def test_trivial_label_eigenvalue():
    for m in (2, 3, 4):
        poly = eigenvalue(canonicalize((), m, 0, 0))
        for delta in (Fraction(0), Fraction(1, 2), Fraction(-3, 4)):
            assert poly(delta) == Fraction(m, 2) * (delta * delta - delta)
        assert poly(0) == 0


def test_vector_field_eigenvalue():
    assert eigenvalue(canonicalize((1,), 2, 0, 0))(Fraction(0)) == 1


def test_single_row_eigenvalue_closed_form():
    # alpha((k), n=0, delta=0) = k(m+k)/2m + k(m-1)(m+k)/(2m(m+1))
    for m in (2, 3, 4):
        for k in (1, 2, 3, 4):
            expected = Fraction(k * (m + k), 2 * m) + Fraction(
                k * (m - 1) * (m + k), 2 * m * (m + 1)
            )
            assert eigenvalue(canonicalize((k,), m, 0, 0))(Fraction(0)) == expected


def test_eigenvalue_double_sum_closed_form():
    # the diagram part of the eigenvalue, summed in closed form:
    # m*sum d_i^2 - d^2 + 2m*sum d_i(m-i) - d*m(m-1), all over 2m(m+1)
    rng = random.Random(47)
    for _ in range(30):
        label = random_canonical_label(rng, rng.choice((2, 3, 4)))
        m = label.rank
        d = label.diagram.padded(m)
        size = label.size
        closed = (
            m * sum(x * x for x in d)
            - size * size
            + 2 * m * sum(d[i - 1] * (m - i) for i in range(1, m + 1))
            - size * m * (m - 1)
        )
        expected = Fraction(m * label.twist + size, 1)
        first = expected * (expected + m) / (2 * m)
        total = first + Fraction(closed, 2 * m * (m + 1))
        assert eigenvalue(label).c0 == total


def test_eigenvalue_matches_the_double_sum_over_all_index_pairs():
    rng = random.Random(53)
    for rank in range(2, 13):
        for _ in range(40):
            label = random_canonical_label(rng, rank, max_size=14)
            assert eigenvalue(label) == eigenvalue_by_double_sum(label), label


def test_resonances_single_row():
    for m in (2, 3, 4):
        for k in (1, 2, 3, 4):
            want = {Fraction(m + 2 * k - q, m + 1) for q in range(1, k + 1)}
            assert resonances(canonicalize((k,), m, 0, 0)) == want
    assert resonances(canonicalize((1,), 2, 0, 0)) == {Fraction(1)}


def test_resonances_trivial_empty():
    for m in (2, 3, 4):
        assert resonances(canonicalize((), m, 0, 0)) == frozenset()


def test_resonances_closed_equals_generic():
    for label in all_canonical_labels(4, (2, 3, 4), twists=(-1, 0, 1, 2)):
        assert resonances(label) == resonances_generic(label)


def test_eigenvalue_gap_is_affine_with_slope_norm():
    rng = random.Random(41)
    for _ in range(25):
        label = random_canonical_label(rng, rng.choice((2, 3, 4)))
        parent = extend_rank(label)
        alpha0 = eigenvalue(component(parent, branch_labels(parent)[0]))
        for q in branch_labels(parent):
            if q.norm == 0:
                continue
            alphaq = eigenvalue(component(parent, q))
            assert alphaq.c2 == alpha0.c2
            assert alphaq.c1 - alpha0.c1 == q.norm


def test_resonance_count_bounded_by_labels():
    rng = random.Random(43)
    for _ in range(25):
        label = random_canonical_label(rng, rng.choice((2, 3, 4)))
        count = len(branch_labels(extend_rank(label)))
        assert len(resonances(label)) <= count - 1


def test_base_shift():
    label = canonicalize((2,), 3, 0, 0)
    plain = resonances(label)
    shifted = resonances(label, base=Fraction(1, 3))
    assert shifted == {v - Fraction(1, 3) for v in plain}


def test_is_resonant():
    assert is_resonant(canonicalize((1,), 2, 0, 0), Fraction(1))
    assert not is_resonant(canonicalize((), 3, 0, 0), Fraction(7, 5))
    for k in (1, 2, 3, 4):
        for n in (0, 1, 2):
            assert not is_resonant(canonicalize((k,), 3, n, 0), Fraction(0))


def test_resonances_for_symbols_densities():
    trivial_low = canonicalize((), 2, 0, 0)
    trivial_high = canonicalize((), 2, 0, 1)
    got = resonances_for_symbols(trivial_low, trivial_high, 2)
    assert got == {Fraction(1), Fraction(5, 3), Fraction(4, 3)}
    assert resonances_for_symbols(trivial_low, trivial_high, 0) == frozenset()


def test_resonances_for_symbols_matches_componentwise():
    v = canonicalize((1,), 2, 0, 0)
    got = resonances_for_symbols(v, v, 0)
    want = frozenset()
    for term, _ in littlewood_richardson(dual(v), v).terms:
        want |= resonances(term)
    assert got == want
    assert symbol_rep(v, v, 0).terms == littlewood_richardson(dual(v), v).terms


def test_resonances_for_symbols_is_the_union_over_each_symbol_space():
    rng = random.Random(47)
    for _ in range(25):
        rank = rng.choice((2, 3, 4, 5))
        v1 = random_canonical_label(rng, rank, max_size=4)
        v2 = random_canonical_label(rng, rank, max_size=4)
        kmax = rng.randint(0, 4)
        want = frozenset()
        for k in range(kmax + 1):
            for term, _ in symbol_rep(v1, v2, k).terms:
                want |= resonances(term)
        assert resonances_for_symbols(v1, v2, kmax) == want


def test_resonances_for_symbols_by_fillings_and_eigenvalue_gaps():
    # independent of tensor._strips and gap_roots: the terms of v1* (x) v2 and
    # of each term (x) S^k are counted by LR fillings, and each term's
    # resonances are read off the eigenvalue gaps of its rank extension
    generic = lru_cache(maxsize=None)(resonances_generic)
    for m in (2, 3, 4):
        diagrams = list(all_canonical_diagrams(3, m))
        for rows1, rows2 in product(diagrams, repeat=2):
            v1 = canonicalize(rows1, m, 1, Fraction(1, 2))
            v2 = canonicalize(rows2, m, 0, Fraction(-1, 3))
            pairs = lr_by_fillings(dual(v1), v2)
            want = frozenset()
            for kmax in range(4):
                power = canonicalize((kmax,), m)
                for pair in pairs:
                    for term in lr_by_fillings(pair, power):
                        want |= generic(term)
                assert resonances_for_symbols(v1, v2, kmax) == want, (v1, v2, kmax)


def test_resonances_for_symbols_rank_mismatch():
    with pytest.raises(ValueError):
        resonances_for_symbols(canonicalize((), 2), canonicalize((), 3), 1)


@st.composite
def content_labels(draw):
    """Canonical labels up to rank 60, depth 8 and rows of 12 boxes."""
    m = draw(st.integers(2, 60))
    depth = draw(st.integers(0, min(8, m - 1)))
    rows = sorted(draw(st.lists(st.integers(1, 12), min_size=depth, max_size=depth)))
    return IrrepLabel(YoungDiagram(rows[::-1]), m, draw(st.integers(-4, 4)))


@settings(max_examples=200, deadline=None)
@given(content_labels())
def test_eigenvalue_equals_the_double_sum_up_to_rank_60(label):
    # the content form against all m^2 index pairs of the rows padded to the rank
    assert eigenvalue(label) == eigenvalue_by_double_sum(label)


def content(boxes):
    """Sum of column - row over (row, column) boxes, both counted from 0."""
    return sum(col - row for row, col in boxes)


@settings(max_examples=200, deadline=None)
@given(content_labels())
def test_eigenvalue_and_gap_roots_equal_the_content_forms(label):
    # the flat Casimir on a Young section of shape D is
    # (m/2) t(t-1) + k(1-t) + k(k-1)/2(m+1) + c(D)/(m+1) with t = delta - n, k = |D|:
    # the swap sum over slot pairs is the sum of the Jucys-Murphy elements,
    # which acts on the Young-symmetrizer image of D by its content c(D)
    m, n, rows, k = label.rank, label.twist, label.diagram.rows, label.size
    c = content((i, j) for i, r in enumerate(rows) for j in range(r))
    alpha = eigenvalue(label)
    for delta in (Fraction(0), Fraction(1), Fraction(-7, 3)):
        t = delta - n
        tail = Fraction(k * (k - 1) + 2 * c, 2 * (m + 1))
        assert alpha(delta) == Fraction(m, 2) * t * (t - 1) + k * (1 - t) + tail
    # removing q_i boxes from the end of row i leaves the gap |q| (r_q - delta)
    roots = []
    for q in branch_labels(extend_rank(label))[1:]:
        size = q.norm
        ends = zip(rows, q.removals)
        removed = content((i, j) for i, (r, qi) in enumerate(ends) for j in range(r - qi, r))
        num = size * (2 * (m + 1) * (n + 1) + 2 * k - size - 1) + 2 * removed
        roots.append(Fraction(num, 2 * (m + 1) * size))
    assert gap_roots(label) == roots


def test_gap_roots_are_the_eigenvalue_gaps_in_branch_labels_order():
    # lift_plan pairs gap_roots(label) with the nonzero q of branch_labels, so
    # the i-th root must be the gap of the i-th such component, read off eigenvalue
    rng = random.Random(53)
    for _ in range(150):
        label = random_canonical_label(rng, rng.randint(2, 7), max_size=7)
        parent = extend_rank(label)
        base = eigenvalue(component(parent, BranchLabel()))
        roots = []
        for q in branch_labels(parent):
            if q.norm:
                alpha = eigenvalue(component(parent, q))
                roots.append((base.c0 - alpha.c0) / (alpha.c1 - base.c1))
        assert gap_roots(label) == roots, label
