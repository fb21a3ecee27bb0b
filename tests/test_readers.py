"""Caller numbers enter through one reader per kind: integer entries
through lattice.int_entries, rationals through algebra.rational.  Neither
truncates, and neither takes a float as a binary fraction.  rational holds
the one grammar of rational text, and a character is read by
int_entries(u, M_SIDE), which refuses an N-side vector."""

import time
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
    roots_in_box,
    torus_point,
    verify_compatible,
)
from toricflow.algebra import AlgebraElement, rational
from toricflow.errors import SceneError
from toricflow.lattice import int_entries
from toricflow.scene import parse_rational

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
    "roots-box-fraction": lambda: roots_in_box(PLANE, Fraction(3, 2)),
    "roots-box-float": lambda: roots_in_box(PLANE, 1.5),
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


# Each of these was once read by Fraction's own, wider grammar.
OFF_GRAMMAR = ["1e9", "1.5", "1_0", "\uff11", " 3/4 ", "1e10000000"]


@pytest.mark.parametrize("text", OFF_GRAMMAR)
def test_rational_refuses_text_off_the_grammar(text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        rational(text)
    assert time.perf_counter() - start < 0.5


RATIONAL_TEXTS = OFF_GRAMMAR + [
    "3", "-7/3", "+2/4", "0", "-0/5", "007", "1/0", "", "/3", "3/", "3/-4", "--3",
    "+", "0x10", "\u0663", "nan", "inf", "3/4/5", "3 /4", "3\n", "1" * 5000]


@pytest.mark.parametrize("text", RATIONAL_TEXTS)
def test_scene_refuses_exactly_the_text_that_rational_refuses(text):
    try:
        expected = rational(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SceneError):
            parse_rational(text, "x")
    else:
        assert parse_rational(text, "x") == expected


N_VECTOR = LatticeVector((1, 1), N_SIDE)
SATURATED = AffineMonoid.of_cone(QUADRIC.weight_cone)

# Each of these once read the N-side vector as a character.
N_SIDE_CHARACTER = {
    "monoid": lambda: AffineMonoid([(1, 0), N_VECTOR, (1, 2)], 2),
    "contains": lambda: QUADRIC.contains(N_VECTOR),
    "contains-saturated": lambda: SATURATED.contains(N_VECTOR),
    "decompose": lambda: QUADRIC.decompose(N_VECTOR),
    "element": lambda: AlgebraElement(QUADRIC, [(N_VECTOR, 1)]),
    "degree": lambda: LND.degree(N_VECTOR),
}


@pytest.mark.parametrize("case", N_SIDE_CHARACTER)
def test_characters_refuse_n_side_vectors(case):
    with pytest.raises(ValueError, match="M-side"):
        N_SIDE_CHARACTER[case]()


def test_characters_keep_tuples_and_untagged_vectors():
    plain, untagged, tagged = (1, 1), LatticeVector((1, 1)), LatticeVector((1, 1), M_SIDE)
    assert AlgebraElement(QUADRIC, [(untagged, 1), (tagged, -1)]).terms == ()
    assert (AlgebraElement(QUADRIC, [(plain, 1)]) == AlgebraElement(QUADRIC, [(untagged, 1)])
            == AlgebraElement(QUADRIC, [(tagged, 1)]))
    assert AffineMonoid([(1, 0), LatticeVector((1, 1)), (1, 2)], 2) == QUADRIC
    for u in (plain, untagged, tagged):
        assert QUADRIC.contains(u) and SATURATED.contains(u)
        assert QUADRIC.decompose(u) == (0, 1, 0)
        assert LND.degree(u) == 1


def test_later_steps_refuse_what_the_removed_guards_refused():
    # verify_compatible and Cone.from_rays leave these to limit_point and
    # primitive_tuple, which refuse them with the same ValueError
    plane_point = torus_point(AffineMonoid([(1, 0), (0, 1)], 2), (2, 5))
    with pytest.raises(ValueError, match="different monoid"):
        verify_compatible(QUADRIC, SUBGROUP, plane_point)
    with pytest.raises(ValueError, match="zero vector"):
        Cone.from_rays([(1, 0), (0, 0)], 2, N_SIDE)
