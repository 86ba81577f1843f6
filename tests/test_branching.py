import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projquant import (
    BranchLabel,
    YoungDiagram,
    branch_labels,
    canonicalize,
    component,
    dimension,
    dual,
    extend_rank,
    extend_rank_dual,
    max_removal_embedding,
    zero_removal_embedding,
)
from projquant.flatmodel import Poly, young_section
from support import (
    LinearSystem,
    char_eval,
    labels,
    padded_branch_labels,
    padded_component,
    padded_row_slacks,
    random_canonical_label,
    random_point,
    schur_eval,
)


def test_branch_labels_of_box():
    parent = canonicalize((1,), 3, 0, Fraction(1, 2))
    labels = branch_labels(parent)
    assert labels == [BranchLabel(()), BranchLabel((1,))]
    assert component(parent, labels[0]).diagram.rows == (1,)
    assert component(parent, labels[1]).diagram.rows == ()
    for q in labels:
        child = component(parent, q)
        assert child.twist == 0 and child.weight == Fraction(1, 2)


def test_branch_label_trims_zeros_in_one_slice():
    assert BranchLabel((0, 1, 0, 0)).removals == (0, 1)
    assert BranchLabel((0, 0)).removals == ()
    # dropping one zero per copy is quadratic: this tail took about 16 s
    start = time.perf_counter()
    assert BranchLabel((1,) + (0,) * 100000).removals == (1,)
    assert time.perf_counter() - start < 1


def test_branch_labels_of_322():
    parent = canonicalize((3, 2, 2), 4, 0, 0)
    labels = branch_labels(parent)
    assert len(labels) == 6
    assert all(q.padded(3)[1] == 0 for q in labels)
    assert {q.padded(3)[0] for q in labels} == {0, 1}
    assert {q.padded(3)[2] for q in labels} == {0, 1, 2}
    # lexicographic output order
    assert [q.padded(3) for q in labels] == sorted(q.padded(3) for q in labels)


def test_branch_labels_trivial():
    parent = canonicalize((), 3, 1, 0)
    assert branch_labels(parent) == [BranchLabel(())]


def test_component_examples():
    parent = canonicalize((3, 2, 2), 4, 0, 0)
    child = component(parent, BranchLabel((1, 0, 2)))
    assert child.diagram.rows == (2, 2)

    with pytest.raises(ValueError):
        component(parent, BranchLabel((2, 0, 0)))
    with pytest.raises(ValueError):
        component(parent, BranchLabel((0, 1, 0)))


def test_component_refusals_keep_their_messages():
    parent = canonicalize((3, 2, 2), 4, 0, 0)
    cases = [
        (
            parent,
            (2,),
            "removal vector 2 violates row bounds (1, 0, 2) of D=3,2,2; m=4; n=0; delta=0",
        ),
        (parent, (0, 0, 0, 1), "removal vector 0,0,0,1 too long for rank-4 parent"),
        # both faults at once: the length is refused first
        (parent, (5, 0, 0, 1), "removal vector 5,0,0,1 too long for rank-4 parent"),
        # a nonzero entry past the depth takes from a row with no boxes;
        # the bounds are listed for every row up to the child rank
        (
            canonicalize((2,), 4, 1, Fraction(1, 3)),
            (0, 0, 1),
            "removal vector 0,0,1 violates row bounds (2, 0, 0) of D=2; m=4; n=1; delta=1/3",
        ),
    ]
    for label, removals, message in cases:
        with pytest.raises(ValueError) as exc:
            component(label, BranchLabel(removals))
        assert str(exc.value) == message


def _parents(rng, rank: int):
    """A random canonical parent of the rank and a depth-(rank - 1) one
    from the dualized extension of a rank - 1 label."""
    deep = extend_rank_dual(random_canonical_label(rng, rank - 1, max_size=7))
    assert deep.rank == rank
    return [random_canonical_label(rng, rank, max_size=8), deep]


def test_branching_on_the_nonzero_rows_matches_the_padded_reference():
    rng = random.Random(31)
    full_depth = 0  # parents with depth m
    for rank in range(3, 10):
        for _ in range(12):
            for parent in _parents(rng, rank):
                full_depth += parent.diagram.depth == rank - 1
                labels = branch_labels(parent)
                assert labels == padded_branch_labels(parent)
                for q in labels:
                    assert component(parent, q) == padded_component(parent, q)
                # random vectors up to one slot past the child rank, in and
                # out of bounds: the same child or the same refusal
                for _ in range(6):
                    q = BranchLabel(rng.randint(0, 2) for _ in range(rng.randint(0, rank)))
                    try:
                        expected = padded_component(parent, q)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as got:
                            component(parent, q)
                        assert str(got.value) == str(exc)
                    else:
                        assert component(parent, q) == expected
    assert full_depth


def test_component_strips_full_columns():
    # depth-m parents (from the dualized extension) can leave full columns
    parent = extend_rank_dual(canonicalize((2,), 2, 0, 0))
    assert parent.diagram.rows == (2, 2)
    child = component(parent, BranchLabel((0, 1)))
    assert child.diagram.rows == (1,)
    assert child.twist == parent.twist + 1


def test_zero_removal_embedding():
    rng = random.Random(5)
    for _ in range(30):
        label = random_canonical_label(rng, rng.choice((2, 3, 4)))
        q = zero_removal_embedding(label)
        assert q == BranchLabel(())
        assert component(extend_rank(label), q).diagram == label.diagram


def test_max_removal_embedding_recovers_diagram():
    label = canonicalize((3, 2, 2), 4, 0, 0)
    q = max_removal_embedding(label)
    parent = extend_rank_dual(label)
    assert component(parent, q).diagram == label.diagram

    assert max_removal_embedding(canonicalize((), 2)) == BranchLabel(())


@given(st.integers(2, 9).flatmap(labels))
def test_max_removal_embedding_is_the_slacks_of_the_double_complement(label):
    parent = dual(extend_rank(dual(label)))
    assert max_removal_embedding(label) == BranchLabel(padded_row_slacks(parent))


def test_rank_extensions_at_a_large_rank_read_only_the_rows():
    # the double complement walked every row up to the rank: about 0.5 s
    # each at m = 10^6
    label = canonicalize((3, 1), 10**6)
    start = time.perf_counter()
    extended = extend_rank_dual(label)
    q = max_removal_embedding(label)
    assert time.perf_counter() - start < 0.05
    assert extended == canonicalize((3, 3, 1), 10**6 + 1)
    assert q == BranchLabel((0, 2, 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_max_removal_unique_maximum_single_row(k):
    label = canonicalize((k,), 2, 0, 0)
    parent = extend_rank_dual(label)
    assert parent.diagram.rows == (k, k)
    labels = branch_labels(parent)
    top = max(q.norm for q in labels)
    best = [q for q in labels if q.norm == top]
    assert len(best) == 1
    assert component(parent, best[0]).diagram.rows == (k,)
    assert best[0] == max_removal_embedding(label)


def test_dimension_conservation_21_over_rank3():
    parent = canonicalize((2, 1), 3, 0, 0)
    total = sum(dimension(component(parent, q)) for q in branch_labels(parent))
    assert total == dimension(parent)


def test_dimension_conservation_random():
    rng = random.Random(11)
    for _ in range(40):
        rank = rng.choice((3, 4, 5))
        parent = random_canonical_label(rng, rank)
        total = sum(dimension(component(parent, q)) for q in branch_labels(parent))
        assert total == dimension(parent)


def test_character_identity_random():
    rng = random.Random(17)
    for _ in range(15):
        rank = rng.choice((3, 4, 5))
        parent = random_canonical_label(rng, rank)
        point = random_point(rng, rank)
        xs, t = point[:-1], point[-1]
        m = rank - 1
        d = parent.diagram.padded(m)
        total = Fraction(0)
        for q in branch_labels(parent):
            removed = q.padded(m)
            rows = tuple(d[i] - removed[i] for i in range(m))
            total += schur_eval(YoungDiagram(rows), xs) * t**q.norm
        assert schur_eval(parent.diagram, point) == total


def test_character_identity_with_twists():
    # the same identity phrased through canonicalized component labels
    rng = random.Random(19)
    for _ in range(10):
        rank = rng.choice((3, 4))
        parent = random_canonical_label(rng, rank)
        point = random_point(rng, rank)
        xs, t = point[:-1], point[-1]
        total = Fraction(0)
        for q in branch_labels(parent):
            child = component(parent, q)
            total += char_eval(child, xs) * t ** (q.norm + parent.twist)
        assert char_eval(parent, point) == total


def test_multiplicity_free():
    rng = random.Random(29)
    for _ in range(20):
        parent = random_canonical_label(rng, rng.choice((3, 4, 5)))
        labels = branch_labels(parent)
        assert len(set(labels)) == len(labels)


def test_branch_requires_child_rank_two():
    with pytest.raises(ValueError):
        branch_labels(canonicalize((1,), 2, 0, 0))


def _diagrams(max_size: int, max_depth: int):
    """Every diagram with at most max_size boxes and max_depth rows."""

    def rows_below(n, largest):
        if n == 0:
            yield ()
        for first in range(min(n, largest), 0, -1):
            for rest in rows_below(n - first, first):
                yield (first,) + rest

    every = (rows for n in range(max_size + 1) for rows in rows_below(n, n))
    return [rows for rows in every if len(rows) <= max_depth]


def _young_image_rank(rank: int, rows: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Dimension over Q of the Young image of the arrangements of one content.

    The symmetrizer spreads each key over the rearrangements within every
    row first, so keys with sorted row segments already span the image.
    """
    arrangements = sorted(set(permutations(content)))
    column = {index: c for c, index in enumerate(arrangements)}
    starts = [sum(rows[:r]) for r in range(len(rows))]
    system = LinearSystem(len(arrangements))
    for index in arrangements:
        if any(list(index[s : s + r]) != sorted(index[s : s + r]) for s, r in zip(starts, rows)):
            continue
        image = young_section(rank, rows, 0, 0, {index: Poly.constant(rank, 1)}).coeffs
        row = [0] * len(arrangements)
        for key, p in image.items():
            row[column[key]] = p.eval((0,) * rank)
        system.add(row, 0)
    return system.rank


def test_young_image_at_the_next_rank_grades_as_the_branching_rule():
    # the tensor side of GL(m+1) -> GL(m): grade the rank-(m+1) Young image by
    # how many slots hold the last index m; grade j must have the dimension of
    # the components with j boxes removed (full columns each hold one m)
    for m, max_size in ((2, 5), (3, 5), (4, 4)):
        for rows in _diagrams(max_size, m + 1):
            parent = canonicalize(rows, m + 1, 0, 0)
            grades = Counter()
            for content in combinations_with_replacement(range(m + 1), sum(rows)):
                grades[content.count(m)] += _young_image_rank(m + 1, rows, content)
            expected = Counter()
            for q in branch_labels(parent):
                expected[q.norm + parent.twist] += dimension(component(parent, q))
            assert +grades == expected, (m, rows)
