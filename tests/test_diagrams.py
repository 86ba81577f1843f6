import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projquant import (
    IrrepLabel,
    YoungDiagram,
    canonicalize,
    dimension,
    dual,
    extend_rank,
    extend_rank_dual,
)
from projquant import diagrams
from projquant.diagrams import parse_rational
from support import (
    char_eval,
    labels,
    random_canonical_label,
    random_point,
    schur_by_tableaux,
    schur_eval,
)


def test_diagram_normalization_and_text():
    d = YoungDiagram((3, 2, 2, 0, 0))
    assert d.rows == (3, 2, 2)
    assert d.size == 7 and d.depth == 3
    assert str(d) == "3,2,2"
    assert YoungDiagram.parse("3,2,2") == d
    assert YoungDiagram.parse("0") == YoungDiagram(())
    assert str(YoungDiagram(())) == "0"


def test_diagram_rejects_bad_rows():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, -1))
    # the checks see the rows as given, before the trim
    with pytest.raises(ValueError, match=r"non-increasing: \(1, 2, 0\)$"):
        YoungDiagram((1, 2, 0))


def test_diagram_trims_a_long_zero_tail_in_one_slice():
    # dropping one zero per copy is quadratic: this tail took about 16 s
    start = time.perf_counter()
    assert YoungDiagram((1,) + (0,) * 100000).rows == (1,)
    assert time.perf_counter() - start < 1


def test_canonicalize_examples():
    label = canonicalize((2, 1), 3, 0, 0)
    assert label.diagram.rows == (2, 1) and label.twist == 0 and label.weight == 0

    stripped = canonicalize((2, 1, 1), 3, 0, 0)
    assert stripped.diagram.rows == (1,) and stripped.twist == 1 and stripped.weight == 0

    with pytest.raises(ValueError):
        canonicalize((1, 2), 3, 0, 0)
    with pytest.raises(ValueError):
        canonicalize((1, 1, 1, 1), 3, 0, 0)
    with pytest.raises(ValueError):
        canonicalize((), 0, 0, 0)  # rank 0: no row to strip, and below the minimum rank
    with pytest.raises(ValueError, match="rank must be at least 2, got -3"):
        canonicalize((), -3)  # not "diagram depth 0 exceeds rank -3"


def test_label_text_round_trip():
    label = canonicalize((3, 2, 2), 4, -1, Fraction(1, 2))
    assert str(label) == "D=3,2,2; m=4; n=-1; delta=1/2"
    assert IrrepLabel.parse(str(label)) == label
    trivial = canonicalize((), 2, 0, Fraction(-2, 3))
    assert IrrepLabel.parse(str(trivial)) == trivial
    assert IrrepLabel.parse(" ; delta=0;; M=2; n=0; d=1 ;") == canonicalize((1,), 2)


@pytest.mark.parametrize(
    "text,problem",
    [
        ("D=0; m=2; m=3; n=0; delta=0", "repeated field 'm'"),
        ("D=1; m=2; n=0; delta=0; M=3", "repeated field 'M'"),
        ("D=1; m=2; n=0; delta=0; x=1", "unknown field 'x'"),
        ("D=1; m=2; n=0; delta=0; rank", "unknown field 'rank'"),
    ],
)
def test_label_parse_rejects_unknown_and_repeated_fields(text, problem):
    # the first of a repeated field used to be overwritten, and a stray field
    # ignored, so the label answered for text the caller did not write
    with pytest.raises(ValueError) as exc:
        IrrepLabel.parse(text)
    assert str(exc.value) == f"{problem} in label text {text!r}"


def test_rational_text_is_refused_past_the_digit_limit(monkeypatch):
    # Fraction computes 10**exponent unbounded, so the size is read first
    limit = sys.get_int_max_str_digits()
    assert parse_rational("1" * limit) == int("1" * limit)
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(" -2.5E-3 ") == Fraction(-1, 400)

    def no_fraction(text):
        raise AssertionError(f"Fraction({text!r}) was called")

    monkeypatch.setattr(diagrams, "Fraction", no_fraction)
    for text in ("1" * (limit + 1), f"1e{limit}", "1e-5000", "2.5e+1000000000"):
        with pytest.raises(ValueError, match=f"spans more than {limit} digits"):
            parse_rational(text)


@settings(max_examples=100, deadline=None)
@given(labels())
def test_label_parse_inverts_str(label):
    assert IrrepLabel.parse(str(label)) == label


@settings(max_examples=100, deadline=None)
@given(labels())
def test_canonicalize_is_idempotent(label):
    assert canonicalize(label.diagram.rows, label.rank, label.twist, label.weight) == label


def test_label_requires_canonical_depth():
    with pytest.raises(ValueError):
        IrrepLabel(YoungDiagram((1, 1)), 2)
    with pytest.raises(ValueError):
        IrrepLabel(YoungDiagram(()), 1)


def test_dual_examples():
    trivial = canonicalize((), 2, 0, 0)
    assert dual(trivial) == trivial

    standard = canonicalize((1,), 2, 0, 0)
    assert dual(standard) == canonicalize((1,), 2, -1, 0)


def test_dual_character_oracle():
    # the dual character at x equals the character at the inverted point
    rng = random.Random(101)
    for _ in range(40):
        rank = rng.choice((2, 3, 4))
        label = random_canonical_label(rng, rank)
        point = random_point(rng, rank)
        inverted = tuple(1 / x for x in point)
        assert char_eval(dual(label), point) == char_eval(label, inverted)


@settings(max_examples=100, deadline=None)
@given(labels())
def test_dual_is_involution(label):
    assert dual(dual(label)) == label


def test_extend_rank_examples():
    label = canonicalize((3, 2, 2), 4, 0, Fraction(5, 2))
    lifted = extend_rank(label)
    assert lifted.diagram.rows == (3, 2, 2)
    assert lifted.rank == 5 and lifted.twist == 0 and lifted.weight == 0

    for delta in (Fraction(1, 3), Fraction(-2)):
        scalar = canonicalize((), 2, 0, delta)
        assert extend_rank(scalar) == canonicalize((), 3, 0, 0)

    for k in range(1, 5):
        row = canonicalize((k,), 3, 2, Fraction(1, 2))
        lifted = extend_rank(row)
        assert lifted.diagram.rows == (k,) and lifted.twist == 2 and lifted.weight == 0


def test_extend_rank_dual_prepends_first_row():
    label = canonicalize((3, 2, 2), 4, 0, 0)
    assert extend_rank_dual(label).diagram.rows == (3, 3, 2, 2)
    assert extend_rank_dual(label).rank == 5

    scalar = canonicalize((), 2, 1, Fraction(1, 2))
    out = extend_rank_dual(scalar)
    assert out.diagram.rows == () and out.rank == 3 and out.twist == 1


def test_extend_rank_dual_matches_hand_composition():
    # chase dual -> extend -> dual by hand for single rows over rank 2
    for k in (1, 2):
        label = canonicalize((k,), 2, 0, 0)
        inner = dual(label)
        assert inner == canonicalize((k,), 2, -k, 0)
        lifted = extend_rank(inner)
        outer = dual(lifted)
        assert outer.diagram.rows == (k, k)
        assert extend_rank_dual(label) == outer


def test_extend_rank_dual_keeps_twist():
    rng = random.Random(13)
    for _ in range(25):
        label = random_canonical_label(rng, rng.choice((2, 3, 4)))
        out = extend_rank_dual(label)
        assert out.twist == label.twist and out.weight == 0


@given(st.integers(2, 9).flatmap(labels))
def test_extend_rank_dual_is_the_double_complement(label):
    # the closed form against its definition
    assert extend_rank_dual(label) == dual(extend_rank(dual(label)))


def test_dimension_values():
    assert dimension(canonicalize((), 3)) == 1
    assert dimension(canonicalize((1,), 3)) == 3
    # S^2 of the plane has basis xx, xy, yy
    assert dimension(canonicalize((2,), 2)) == 3


def test_dimension_equals_the_weyl_product_over_every_pair():
    # the library telescopes the zero rows; here every pair is multiplied
    rng = random.Random(44)
    for _ in range(300):
        m = rng.randint(2, 12)
        label = random_canonical_label(rng, m, max_size=rng.randint(1, 12))
        lam = label.diagram.padded(m)
        weyl = Fraction(1)
        for i in range(m):
            for j in range(i + 1, m):
                weyl *= Fraction(lam[i] - lam[j] + j - i, j - i)
        assert dimension(label) == weyl


def test_dimension_at_a_large_rank_does_not_walk_the_zero_rows():
    # every pair up to the rank took about 5 s at m = 10^5
    start = time.perf_counter()
    assert dimension(canonicalize((1,), 10**5)) == 10**5
    assert time.perf_counter() - start < 0.1


def test_dimension_dual_invariant():
    rng = random.Random(23)
    for _ in range(30):
        label = random_canonical_label(rng, rng.choice((2, 3, 4)))
        assert dimension(dual(label)) == dimension(label)


def test_schur_eval_basics():
    point = (Fraction(1), Fraction(2), Fraction(3))
    assert schur_eval(YoungDiagram(()), point) == 1
    assert schur_eval(YoungDiagram((1,)), point) == 6


def test_schur_eval_tableau_oracle():
    point = (Fraction(1), Fraction(2), Fraction(3))
    assert schur_by_tableaux((2, 1), point) == 60
    assert schur_eval(YoungDiagram((2, 1)), point) == 60

    rng = random.Random(31)
    for _ in range(25):
        m = rng.choice((2, 3, 4))
        rows = tuple(
            sorted((rng.randint(0, 3) for _ in range(rng.randint(0, m))), reverse=True)
        )
        rows = tuple(r for r in rows if r)
        point = random_point(rng, m)
        assert schur_eval(YoungDiagram(rows), point) == schur_by_tableaux(rows, point)


def test_schur_bialternant_identity_rank_two():
    rng = random.Random(37)
    for _ in range(20):
        a = rng.randint(0, 5)
        b = rng.randint(0, a)
        x, y = random_point(rng, 2)
        expected = (x ** (a + 1) * y**b - x**b * y ** (a + 1)) / (x - y)
        assert schur_eval(YoungDiagram((a, b)), (x, y)) == expected


def test_schur_eval_rejects_bad_points():
    with pytest.raises(ValueError):
        schur_eval(YoungDiagram((1,)), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        schur_eval(YoungDiagram((1,)), (Fraction(0), Fraction(1)))


def test_schur_deep_diagram_vanishes():
    assert schur_eval(YoungDiagram((1, 1, 1)), (Fraction(2), Fraction(3))) == 0
