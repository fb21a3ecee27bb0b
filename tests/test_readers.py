"""Caller numbers enter through one reader per kind: integer entries
through lattice.int_entries, rationals through algebra.rational.  Neither
truncates, and neither takes a float as a binary fraction."""

from fractions import Fraction

import pytest

from toricflow import (
    AffineMonoid,
    Cone,
    HomogeneousLND,
    LatticeVector,
    M_SIDE,
    N_SIDE,
    ToricPoint,
    ga_flow_point,
    is_root,
    torus_point,
    verify_compatible,
)
from toricflow.algebra import rational
from toricflow.lattice import int_entries

QUADRIC = AffineMonoid([(1, 0), (1, 1), (1, 2)], 2)
LND = HomogeneousLND(QUADRIC, LatticeVector((0, -1), M_SIDE))
POINT = torus_point(QUADRIC, (2, 3))
SUBGROUP = LatticeVector((0, 1), N_SIDE)
PLANE = Cone.from_rays([(1, 0), (0, 1)], 2, N_SIDE)

# Each of these was once truncated, read as a binary fraction or crashed.
INEXACT = {
    "vector-float": lambda: LatticeVector((1.5, 2), M_SIDE),
    "vector-fraction": lambda: LatticeVector((Fraction(3, 2), 2)),
    "vector-str": lambda: LatticeVector(("7", 2)),
    "cone-ray-float": lambda: Cone.from_rays([(1.9, 0), (0, 1)], 2, N_SIDE),
    "monoid-generator-float": lambda: AffineMonoid([(1, 0), (0.7, 1)], 2),
    "root-float": lambda: is_root(PLANE, (-1.2, 0)),
    "torus-float": lambda: torus_point(QUADRIC, (0.5, 3)),
    "gm-sample-float": lambda: verify_compatible(QUADRIC, SUBGROUP, POINT, gm_samples=(0.5,)),
    "flow-time-float": lambda: ga_flow_point(LND, 0.1, POINT),
    "provenance-float": lambda: ToricPoint(QUADRIC, None, ("torus", (0.5, 3))),
}


@pytest.mark.parametrize("case", INEXACT)
def test_inexact_numbers_raise_type_error(case):
    with pytest.raises(TypeError):
        INEXACT[case]()


def test_integer_reader_keeps_ints_and_vectors():
    assert int_entries([3, -2, True]) == (3, -2, 1)
    vector = LatticeVector((4, 5), M_SIDE)
    assert int_entries(vector) is vector.entries
    assert LatticeVector(vector, M_SIDE) == vector
    cone = Cone.from_rays([(4, 5), (0, 1)], 2, N_SIDE)
    assert Cone.from_rays([vector, (0, 1)], 2, N_SIDE) == cone


def test_rational_reader_keeps_exact_kinds():
    half = Fraction(1, 2)
    assert rational(half) is half
    assert rational(3) == Fraction(3) and type(rational(3)) is Fraction
    assert rational("-7/3") == Fraction(-7, 3)
    with pytest.raises(ValueError):
        rational("x")
    assert ToricPoint(QUADRIC, None, ("torus", (2, 3))) == POINT
    assert ga_flow_point(LND, "1/3", POINT) == ga_flow_point(LND, Fraction(1, 3), POINT)
    by_strings = verify_compatible(QUADRIC, SUBGROUP, POINT, gm_samples=("1/2",), ga_samples=(1,))
    assert by_strings.gm_samples == (half,) and by_strings.ga_samples == (Fraction(1),)
