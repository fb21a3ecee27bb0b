import doctest
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import toricflow.lattice
from toricflow import (
    LatticeVector,
    M_SIDE,
    N_SIDE,
    dot,
    gcd_all,
    generates_full_lattice,
    integer_kernel,
    matrix_rank,
    pairing,
    primitive,
)


def test_doctests():
    failed, _ = doctest.testmod(toricflow.lattice)
    assert failed == 0


def test_primitive_divides_by_gcd_and_keeps_sign():
    assert primitive(LatticeVector((2, -4))).entries == (1, -2)
    assert primitive(LatticeVector((-2, 4))).entries == (-1, 2)
    assert primitive(LatticeVector((0, 0, 7))).entries == (0, 0, 1)
    assert primitive(LatticeVector((3,), N_SIDE)).side == N_SIDE


def test_primitive_of_zero_rejected():
    with pytest.raises(ValueError):
        primitive(LatticeVector((0, 0)))


def test_gcd_all():
    assert gcd_all([4, -6, 10]) == 2
    assert gcd_all([0, 0, 5]) == 5
    assert gcd_all([7]) == 7


def test_pairing_orientation():
    n = LatticeVector((1, 2), N_SIDE)
    m = LatticeVector((3, -1), M_SIDE)
    assert pairing(n, m) == 1
    with pytest.raises(ValueError):
        pairing(m, n)
    with pytest.raises(ValueError):
        pairing(n, n)


def test_vector_arithmetic_and_sides():
    a = LatticeVector((1, 2), M_SIDE)
    b = LatticeVector((3, -1), M_SIDE)
    assert (a + b).entries == (4, 1)
    assert (a - b).entries == (-2, 3)
    assert (-a).entries == (-1, -2)
    assert (3 * a).entries == (3, 6)
    assert (a * 3).side == M_SIDE
    n = LatticeVector((1, 2), N_SIDE)
    with pytest.raises(ValueError):
        a + n
    # combining tagged and untagged vectors is refused too
    with pytest.raises(ValueError):
        a + LatticeVector((5, 5))


def test_vector_container_protocol():
    v = LatticeVector((4, 5, 6))
    assert list(v) == [4, 5, 6]
    assert v[1] == 5
    assert len(v) == 3
    assert v.rank == 3
    assert not v.is_zero
    assert LatticeVector((0, 0)).is_zero


def test_flexible_constructors():
    assert LatticeVector.n(1, 2).entries == (1, 2)
    assert LatticeVector.n((1, 2)).entries == (1, 2)
    assert LatticeVector.m([0, -3]).side == M_SIDE


def test_matrix_rank_known_values():
    assert matrix_rank([(1, 0), (0, 1)]) == 2
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(0, 0)]) == 0
    assert matrix_rank([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 2


def _fraction_rank(rows):
    # independent oracle: Gaussian elimination over the rationals
    grid = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(grid[0]) if grid else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(grid)) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[row], grid[pivot] = grid[pivot], grid[row]
        for r in range(len(grid)):
            if r != row and grid[r][col]:
                factor = grid[r][col] / grid[row][col]
                grid[r] = [a - factor * b for a, b in zip(grid[r], grid[row])]
        row += 1
        rank += 1
    return rank


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_matrix_rank_matches_rational_elimination(rows):
    assert matrix_rank([tuple(r) for r in rows]) == _fraction_rank(rows)


def test_integer_kernel_frozen_example():
    kernel = integer_kernel([(1, 1, 1), (0, 1, 2)])
    assert [v.entries for v in kernel] == [(1, -2, 1)]


def test_integer_kernel_trivial():
    assert integer_kernel([(1, 0), (0, 1)]) == []


@given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                min_size=1, max_size=5))
def test_integer_kernel_properties(columns):
    cols = [tuple(c) for c in columns]
    kernel = integer_kernel(list(zip(*cols)))
    # every kernel vector is a genuine integer relation among the columns
    for relation in kernel:
        combo = [sum(k * col[i] for k, col in zip(relation.entries, cols))
                 for i in range(2)]
        assert combo == [0, 0]
        first = next(e for e in relation.entries if e != 0)
        assert first > 0
    # the kernel has the right rank and is lex sorted
    assert len(kernel) == len(cols) - _fraction_rank(list(zip(*cols)))
    entries = [v.entries for v in kernel]
    assert entries == sorted(entries)
    assert matrix_rank(entries) == len(entries) if entries else True


def test_generates_full_lattice():
    assert generates_full_lattice([(1, 0), (0, 1)], 2)
    assert generates_full_lattice([(2,), (3,)], 1)
    assert not generates_full_lattice([(2, 0), (0, 1)], 2)
    assert not generates_full_lattice([(1, 0)], 2)
    assert generates_full_lattice([(1, 0), (1, 1), (1, 2)], 2)


def test_dot():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
