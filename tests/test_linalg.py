from fractions import Fraction

from projquant.linalg import LinearSystem


def system_of(rows):
    system = LinearSystem(len(rows[0][0]))
    for row, rhs in rows:
        system.add(row, rhs)
    return system


def test_back_substitution_solves_a_dense_two_by_two():
    system = system_of([([1, 1], 3), ([1, -1], 1)])
    assert system.rank == 2 and not system.inconsistent
    assert system.solve() == [2, 1]


def test_back_substitution_solves_a_dense_three_by_three():
    # x = 1, y = -2, z = 1/2
    system = system_of([([2, 1, -1], Fraction(-1, 2)), ([1, 3, 2], -4), ([3, -1, 4], 7)])
    assert system.solve() == [1, -2, Fraction(1, 2)]


def test_rank_deficient_system_has_no_unique_solution():
    system = system_of([([1, 2], 3), ([2, 4], 6)])
    assert system.rank == 1 and not system.inconsistent
    assert system.solve() is None


def test_inconsistent_system_is_flagged():
    system = system_of([([1, 1], 1), ([2, 2], 3), ([1, -1], 0)])
    assert system.inconsistent and system.rank == 2
    assert system.solve() is None
