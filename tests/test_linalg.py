from support import LinearSystem


def system_of(rows):
    system = LinearSystem(len(rows[0][0]))
    for row, rhs in rows:
        system.add(row, rhs)
    return system


def test_rank_deficient_system_has_no_unique_solution():
    system = system_of([([1, 2], 3), ([2, 4], 6)])
    assert system.rank == 1 and not system.inconsistent


def test_inconsistent_system_is_flagged():
    system = system_of([([1, 1], 1), ([2, 2], 3), ([1, -1], 0)])
    assert system.inconsistent and system.rank == 2
