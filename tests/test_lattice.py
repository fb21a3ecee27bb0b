import doctest
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import toricflow.lattice
from toricflow import (
    LatticeVector,
    M_SIDE,
    N_SIDE,
    classify,
    dot,
    generates_full_lattice,
    integer_kernel,
    is_root,
    limit_point,
    matrix_rank,
    primitive,
    torus_point,
)
from toricflow.algebra import AlgebraElement
from toricflow.lattice import adjugate

from conftest import laplace_cofactors, permutation_det


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


def test_vector_arithmetic_and_sides():
    a = LatticeVector((1, 2), M_SIDE)
    b = LatticeVector((3, -1), M_SIDE)
    assert (a + b).entries == (4, 1)
    assert (a + b).side == M_SIDE
    assert (-a).entries == (-1, -2)
    n = LatticeVector((1, 2), N_SIDE)
    with pytest.raises(ValueError):
        a + n
    # combining tagged and untagged vectors is refused too
    with pytest.raises(ValueError):
        a + LatticeVector((5, 5))
    # a tuple is no vector: the sum returns NotImplemented and Python refuses it
    with pytest.raises(TypeError):
        a + (1, 2)


def test_vector_validation():
    with pytest.raises(ValueError, match="empty vector"):
        LatticeVector(())
    with pytest.raises(ValueError, match="side must be"):
        LatticeVector((1, 2), "X")


def test_vector_container_protocol():
    v = LatticeVector((4, 5, 6))
    assert list(v) == [4, 5, 6]
    assert v.rank == 3


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


def _square_matrices(d):
    return st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=d, max_size=d)


@example([(0, 1), (1, 0)])  # zero leading entry: one row swap
@example([(1, 2), (3, 4)])  # det -2
@example([(-5,)])
@example([(0, 2, 1, 0), (3, 1, 0, 0), (0, 0, 0, 1), (0, 0, 2, 5)])  # swaps at steps 0 and 2
@example([(1, 2), (2, 4)])  # singular
@given(st.integers(1, 4).flatmap(_square_matrices))
def test_adjugate_matches_expansion_oracles(rows):
    size = permutation_det(rows)
    if size == 0:
        with pytest.raises(ValueError):
            adjugate(rows)
    else:
        assert adjugate(rows) == (size, laplace_cofactors(rows))


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
    with pytest.raises(ValueError, match="length mismatch"):
        dot((1, 2), (1, 2, 3))


@pytest.mark.parametrize("entries", [(1,), (0, 1, 0)])
def test_dot_is_the_one_rank_check(quadric, entries):
    # no caller checks a vector's length: the pairing refuses the wrong rank
    point = torus_point(quadric, (3, 2))
    calls = [lambda: classify(quadric.weight_cone, LatticeVector(entries, N_SIDE)),
             lambda: quadric.decompose(entries),
             lambda: quadric.contains(entries),
             lambda: is_root(quadric.dual_cone, entries),
             lambda: limit_point(quadric, LatticeVector(entries, N_SIDE), point),
             lambda: AlgebraElement(quadric, [(entries, 1)])]
    for call in calls:
        with pytest.raises(ValueError, match="length mismatch in dot product"):
            call()
    quadric.saturation()  # contains now takes the cone's facet test
    with pytest.raises(ValueError, match="length mismatch in dot product"):
        quadric.contains(entries)
