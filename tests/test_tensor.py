import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projquant import (
    canonicalize,
    dimension,
    extend_rank,
    littlewood_richardson,
    pieri,
    symbol_rep,
)
from projquant.tensor import _strips
from support import (
    char_eval,
    label_pairs,
    lr_by_fillings,
    random_canonical_label,
    random_point,
    unpruned_outer_shapes,
)


def test_pieri_trivial_base():
    trivial = canonicalize((), 3, 0, 0)
    for k in range(4):
        terms = pieri(trivial, k).terms
        assert len(terms) == 1
        label, mult = terms[0]
        assert label.diagram.rows == ((k,) if k else ()) and mult == 1


def test_pieri_box_times_box():
    box3 = canonicalize((1,), 3, 0, 0)
    got = {label.diagram.rows: mult for label, mult in pieri(box3, 1).terms}
    assert got == {(2,): 1, (1, 1): 1}

    # over the plane the column becomes a determinant twist
    box2 = canonicalize((1,), 2, 0, 0)
    got = {(label.diagram.rows, label.twist): mult for label, mult in pieri(box2, 1).terms}
    assert got == {((2,), 0): 1, ((), 1): 1}


def test_pieri_dimension_conservation():
    base = canonicalize((2, 1), 3, 0, 0)
    decomposition = pieri(base, 2)
    total = sum(mult * dimension(label) for label, mult in decomposition.terms)
    assert total == dimension(base) * dimension(canonicalize((2,), 3, 0, 0))
    assert total == 8 * 6


def test_pieri_multiplicity_free():
    rng = random.Random(2)
    for _ in range(15):
        rank = rng.choice((2, 3, 4))
        label = random_canonical_label(rng, rank, max_size=5)
        k = rng.randint(0, 3)
        assert all(mult == 1 for _, mult in pieri(label, k).terms)


def test_lr_identity_with_trivial():
    rng = random.Random(3)
    for _ in range(10):
        rank = rng.choice((2, 3, 4))
        label = random_canonical_label(rng, rank)
        unit = canonicalize((), rank, 0, 0)
        got = littlewood_richardson(label, unit)
        assert got.terms == ((label, 1),)
        swapped = littlewood_richardson(unit, label)
        assert swapped.terms == ((label, 1),)


def test_lr_box_square():
    box = canonicalize((1,), 3, 0, 0)
    got = {label.diagram.rows: mult for label, mult in littlewood_richardson(box, box).terms}
    assert got == {(2,): 1, (1, 1): 1}


def test_lr_multiplicity_two():
    hook = canonicalize((2, 1), 4, 0, 0)
    decomposition = littlewood_richardson(hook, hook)
    assert decomposition.multiplicity(canonicalize((3, 2, 1), 4, 0, 0)) == 2
    rng = random.Random(7)
    for _ in range(20):
        point = random_point(rng, 4)
        lhs = char_eval(hook, point) ** 2
        rhs = sum(mult * char_eval(term, point) for term, mult in decomposition.terms)
        assert lhs == rhs


def test_lr_hook_square_known_expansion():
    # the square of the (2,1) hook, with enough rows that nothing truncates
    hook = canonicalize((2, 1), 6, 0, 0)
    got = {
        label.diagram.rows: mult
        for label, mult in littlewood_richardson(hook, hook).terms
    }
    assert got == {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }


def test_lr_character_oracle():
    rng = random.Random(11)
    for _ in range(20):
        rank = rng.choice((2, 3, 4))
        a = random_canonical_label(rng, rank, max_size=5)
        b = random_canonical_label(rng, rank, max_size=5)
        decomposition = littlewood_richardson(a, b)
        assert all(
            label.weight == a.weight + b.weight for label, _ in decomposition.terms
        )
        for _ in range(4):
            point = random_point(rng, rank)
            product = char_eval(a, point) * char_eval(b, point)
            total = sum(
                mult * char_eval(label, point) for label, mult in decomposition.terms
            )
            assert product == total


@settings(max_examples=100, deadline=None)
@given(label_pairs())
def test_lr_commutative(pair):
    a, b = pair
    assert littlewood_richardson(a, b).terms == littlewood_richardson(b, a).terms


def test_lr_rank_mismatch():
    with pytest.raises(ValueError):
        littlewood_richardson(canonicalize((), 2), canonicalize((), 3))


def test_pieri_agrees_with_lr_row():
    rng = random.Random(17)
    for _ in range(12):
        rank = rng.choice((2, 3))
        label = random_canonical_label(rng, rank, max_size=4)
        k = rng.randint(0, 3)
        row = canonicalize((k,), rank, 0, 0)
        assert pieri(label, k).terms == littlewood_richardson(label, row).terms


@st.composite
def strip_cases(draw):
    inner = tuple(sorted(draw(st.lists(st.integers(1, 4), max_size=4)), reverse=True))
    depth = draw(st.integers(max(len(inner), 1), 5))
    return inner, draw(st.integers(0, 7)), depth


@settings(max_examples=150, deadline=None)
@given(strip_cases())
def test_outer_shapes_lists_every_partition_under_the_ceilings_once(case):
    # Pieri's step: the horizontal strips of `size` boxes on `inner` within
    # `depth` rows are the partitions whose row i + 1 reaches at most old row i
    inner, size, depth = case
    total = sum(inner) + size
    padded = inner + (0,) * (depth - len(inner))
    ceilings = ((padded[0] + size,) + padded)[:depth]
    expected = [
        tuple(r for r in rows if r)
        for rows in product(*(range(low, high + 1) for low, high in zip(padded, ceilings)))
        if sum(rows) == total and all(a >= b for a, b in zip(rows, rows[1:]))
    ]
    shapes = [outer for outer, _ in _strips(inner, size, depth)]
    assert len(set(shapes)) == len(shapes)
    assert sorted(shapes) == sorted(expected)
    assert sorted(shapes) == sorted(unpruned_outer_shapes(inner, total, ceilings))


@st.composite
def lr_cases(draw):
    """Two labels of one rank m = 2..7, each with at most 8 boxes."""
    rank = draw(st.integers(2, 7))

    def factor():
        rows = sorted(draw(st.lists(st.integers(1, 8), max_size=rank - 1)), reverse=True)
        while sum(rows) > 8:
            rows.pop()
        twist = draw(st.integers(-2, 2))
        weight = draw(st.fractions(min_value=-2, max_value=2, max_denominator=5))
        return canonicalize(rows, rank, twist, weight)

    return factor(), factor()


@settings(max_examples=200, deadline=None)
@given(lr_cases())
def test_lr_strip_walk_matches_the_fillings_of_every_outer_shape(pair):
    a, b = pair
    got = dict(littlewood_richardson(a, b).terms)
    assert got == lr_by_fillings(a, b)


def test_lr_staircase_square_at_rank_eight_is_fast_and_conserves_dimension():
    stair = canonicalize((6, 5, 4, 3, 2, 1), 8, 0, 0)
    start = time.perf_counter()
    decomposition = littlewood_richardson(stair, stair)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    total = sum(mult * dimension(label) for label, mult in decomposition.terms)
    assert total == dimension(stair) ** 2
    assert len(decomposition.terms) == 2701
    assert sum(mult for _, mult in decomposition.terms) == 361712


@settings(max_examples=100, deadline=None)
@given(label_pairs())
def test_lr_dimension_conservation(pair):
    a, b = pair
    total = sum(
        mult * dimension(label)
        for label, mult in littlewood_richardson(a, b).terms
    )
    assert total == dimension(a) * dimension(b)


def test_symbol_rep_densities():
    lam, mu = Fraction(1, 3), Fraction(5, 6)
    low = canonicalize((), 2, 0, lam)
    high = canonicalize((), 2, 0, mu)
    for k in range(4):
        terms = symbol_rep(low, high, k).terms
        assert len(terms) == 1
        label, mult = terms[0]
        assert mult == 1
        assert label.diagram.rows == ((k,) if k else ())
        assert label.weight == mu - lam and label.twist == 0


def test_symbol_rep_vector_inputs():
    v = canonicalize((1,), 2, 0, 0)
    decomposition = symbol_rep(v, v, 0)
    total = sum(mult * dimension(label) for label, mult in decomposition.terms)
    assert total == 4
    assert all(label.weight == 0 for label, _ in decomposition.terms)


def test_symbol_rep_weight_shift():
    rng = random.Random(23)
    for _ in range(10):
        rank = rng.choice((2, 3))
        v1 = random_canonical_label(rng, rank, max_size=3)
        v2 = random_canonical_label(rng, rank, max_size=3)
        k = rng.randint(0, 2)
        decomposition = symbol_rep(v1, v2, k)
        assert all(
            label.weight == v2.weight - v1.weight for label, _ in decomposition.terms
        )
        total = sum(mult * dimension(label) for label, mult in decomposition.terms)
        srank = dimension(canonicalize((k,), rank, 0, 0))
        assert total == dimension(v1) * dimension(v2) * srank


def test_rank_extension_of_product_contains_extended_terms():
    # Components of a product, labelled by their raw shapes (full columns
    # restored instead of folded into the twist), reappear among the
    # components of the product of rank extensions.  With fully stripped
    # labels the statement fails: the determinant component of the plane's
    # tensor square would extend to the rank-3 determinant, which does not
    # sit inside the tensor square of rank-3 space.
    from projquant import YoungDiagram

    rng = random.Random(29)
    for _ in range(10):
        rank = rng.choice((2, 3))
        a = random_canonical_label(rng, rank, max_size=3, weights=(Fraction(0),))
        b = random_canonical_label(rng, rank, max_size=3, weights=(Fraction(0),))
        small = littlewood_richardson(a, b)
        big = littlewood_richardson(extend_rank(a), extend_rank(b))
        big_counts = {
            (label.diagram, label.twist): mult for label, mult in big.terms
        }
        base_twist = a.twist + b.twist
        for label, mult in small.terms:
            stripped = label.twist - base_twist
            assert stripped >= 0
            raw = tuple(r + stripped for r in label.diagram.padded(rank))
            key = (YoungDiagram(raw), base_twist)
            assert big_counts.get(key, 0) >= mult
