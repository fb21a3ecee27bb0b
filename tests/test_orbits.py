from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricflow import (
    AffineMonoid,
    AlgebraElement,
    HomogeneousLND,
    LatticeVector,
    M_SIDE,
    NormalityRequired,
    NotParabolic,
    ToricPoint,
    evaluate,
    ga_flow_point,
    gm_scale,
    limit_point,
    smallest_root_at_ray,
    torus_point,
    verify_compatible,
)

from conftest import FLOW_CASES, flow_case, pullback_flow_coords


def n(*entries):
    return LatticeVector.n(*entries)


def test_torus_point_coordinates(quadric, a2):
    p = torus_point(quadric, (3, 2))
    assert p.coords == (3, 6, 12)
    assert p.is_torus
    assert p.provenance == ("torus", (Fraction(3), Fraction(2)))
    x = torus_point(a2, (2, 5))
    assert x.coords == (2, 5)


def test_torus_point_rejects_zero(quadric):
    with pytest.raises(ValueError):
        torus_point(quadric, (3, 0))


def test_point_relations_enforced(quadric):
    # coordinates must satisfy c0*c2 = c1^2
    with pytest.raises(ValueError):
        ToricPoint(quadric, (3, 6, 11), ("limit",))
    with pytest.raises(ValueError):
        ToricPoint(quadric, (0, 5, 0), ("limit",))
    ok = ToricPoint(quadric, (3, 0, 0), ("limit",))
    assert not ok.is_torus


def test_gm_scale_agrees_with_coordinate_action(quadric):
    p = torus_point(quadric, (3, 2))
    scaled = gm_scale(quadric, n(0, 1), Fraction(2), p)
    # coordinate route: multiply coord j by t0^{<l, u_j>}
    assert scaled.coords == (3, 12, 48)
    # provenance route: the new point is the torus point of (3, 4)
    assert scaled.provenance == ("torus", (Fraction(3), Fraction(4)))
    assert scaled.coords == torus_point(quadric, (3, 4)).coords


def test_gm_scale_rejects_zero_scalar(quadric):
    p = torus_point(quadric, (3, 2))
    with pytest.raises(ValueError):
        gm_scale(quadric, n(0, 1), 0, p)


def test_limit_points(a2, quadric):
    x = torus_point(a2, (2, 5))
    lim = limit_point(a2, n(1, 0), x)
    assert lim.coords == (0, 5)
    assert lim.provenance == ("limit",)
    assert limit_point(a2, n(1, -1), x) is None
    assert limit_point(a2, n(1, 1), x).coords == (0, 0)
    p = torus_point(quadric, (3, 2))
    assert limit_point(quadric, n(0, 1), p).coords == (3, 0, 0)
    # nonzero coordinate of negative degree: no limit
    assert limit_point(quadric, n(0, -1), p) is None


def test_evaluate_on_limit_point(quadric):
    boundary = ToricPoint(quadric, (3, 0, 0), ("limit",))
    chi_b = AlgebraElement.monomial(quadric, quadric.generators[1])
    chi_a = AlgebraElement.monomial(quadric, quadric.generators[0])
    assert evaluate(chi_b, boundary) == 0
    assert evaluate(chi_a, boundary) == 3
    assert evaluate(AlgebraElement.one(quadric), boundary) == 1


def test_evaluate_matches_torus_fast_path(quadric):
    p = torus_point(quadric, (3, 2))
    f = (AlgebraElement.monomial(quadric, quadric.generators[1], Fraction(1, 2))
         + AlgebraElement.monomial(quadric, quadric.generators[2]))
    direct = f.evaluate_at_torus((Fraction(3), Fraction(2)))
    assert evaluate(f, p) == direct == 15


def test_ga_flow_frozen_trace(quadric):
    lnd = HomogeneousLND(quadric, LatticeVector((0, -1), M_SIDE))
    p = torus_point(quadric, (3, 2))
    flowed = ga_flow_point(lnd, Fraction(1), p)
    assert flowed.coords == (3, 9, 27)
    assert flowed.provenance == ("flow",)
    # the flowed point still satisfies c0*c2 = c1^2 (checked on build),
    # and flowing by -2 from the start lands on the boundary
    at_limit = ga_flow_point(lnd, Fraction(-2), p)
    assert at_limit.coords == (3, 0, 0)
    # the closed form needs torus coordinates: limit and flow points have none
    for start in (at_limit, ToricPoint(quadric, (3, 0, 0), ("limit",))):
        with pytest.raises(ValueError):
            ga_flow_point(lnd, Fraction(1), start)


torus_values = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


@pytest.mark.parametrize("name", sorted(FLOW_CASES))
@settings(max_examples=30)
@given(t=st.tuples(torus_values, torus_values),
       s=st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_ga_flow_point_matches_pullback(name, t, s):
    mon, lnd = flow_case(name)
    point = torus_point(mon, t)
    assert ga_flow_point(lnd, s, point).coords == pullback_flow_coords(lnd, s, point)


@pytest.mark.parametrize("name, subgroup",
                         [("quadric", (0, 1)), ("a2", (1, 0)), ("thin50", (1, 0)),
                          ("thin50", (1, 50))],
                         ids=["quadric", "a2", "thin50-near", "thin50-wide"])
@settings(max_examples=10)
@given(t=st.tuples(torus_values, torus_values))
def test_ga_flow_point_at_solved_parameter_matches_pullback(name, subgroup, t):
    mon, _ = flow_case(name)
    point = torus_point(mon, t)
    report = verify_compatible(mon, n(*subgroup), point)
    assert report.passed and report.flow_parameter is not None
    lnd = HomogeneousLND(mon, report.root)
    at_solved = ga_flow_point(lnd, report.flow_parameter, point)
    assert at_solved.coords == report.limit.coords
    assert at_solved.coords == pullback_flow_coords(lnd, report.flow_parameter, point)


def test_smallest_roots(a2, quadric):
    root, box = smallest_root_at_ray(quadric.dual_cone, 0)
    assert root.vector.entries == (0, -1)
    assert box == 5
    root, box = smallest_root_at_ray(a2.dual_cone, 1)
    assert root.vector.entries == (-1, 0)


@given(t=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
       s=st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_equivariance_quadric(t, s):
    # t . phi_s(x) = phi_{t^{-<l,e>} s}(t . x) with l = (0,1), e = (0,-1)
    if t == 0:
        return
    mon = AffineMonoid([(1, 0), (1, 1), (1, 2)], 2)
    subgroup = n(0, 1)
    lnd = HomogeneousLND(mon, LatticeVector((0, -1), M_SIDE))
    exponent = -sum(a * b for a, b in zip(subgroup.entries, lnd.root.vector.entries))
    x = torus_point(mon, (3, 2))
    left = gm_scale(mon, subgroup, t, ga_flow_point(lnd, s, x))
    right = ga_flow_point(lnd, t ** exponent * s, gm_scale(mon, subgroup, t, x))
    assert left.coords == right.coords


@given(t=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
       s=st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_equivariance_a2(t, s):
    if t == 0:
        return
    mon = AffineMonoid([(1, 0), (0, 1)], 2)
    subgroup = n(1, 0)
    lnd = HomogeneousLND(mon, LatticeVector((-1, 0), M_SIDE))
    exponent = -sum(a * b for a, b in zip(subgroup.entries, lnd.root.vector.entries))
    assert exponent == 1
    x = torus_point(mon, (2, 5))
    left = gm_scale(mon, subgroup, t, ga_flow_point(lnd, s, x))
    right = ga_flow_point(lnd, t ** exponent * s, gm_scale(mon, subgroup, t, x))
    assert left.coords == right.coords


def test_verify_compatible_a2(a2):
    report = verify_compatible(a2, n(1, 0), torus_point(a2, (2, 5)))
    assert report.passed
    assert report.ray_index == 1
    assert report.ray.entries == (1, 0)
    assert report.root.vector.entries == (-1, 0)
    assert report.limit.coords == (0, 5)
    assert report.flow_parameter == -2
    assert report.reached_exactly is True
    assert len(report.invariant_checks) == 1
    check = report.invariant_checks[0]
    assert check.exponent.entries == (0, 1)
    assert check.base_value == 5
    assert check.constant and check.annihilated
    assert {f["fact"] for f in report.derived_facts} == {
        "not_rigid", "open_orbit_meets_divisor"}


def test_verify_compatible_quadric(quadric):
    report = verify_compatible(quadric, n(0, 1), torus_point(quadric, (3, 2)))
    assert report.passed
    assert report.ray_index == 0
    assert report.root.vector.entries == (0, -1)
    assert report.limit.coords == (3, 0, 0)
    assert report.flow_parameter == -2
    assert report.reached_exactly is True
    assert report.gm_samples == (2, Fraction(1, 2), -3)
    assert report.ga_samples == (1, -1, Fraction(7, 3))


def test_verify_compatible_custom_samples(quadric):
    report = verify_compatible(quadric, n(0, 1), torus_point(quadric, (3, 2)),
                               gm_samples=(5,), ga_samples=(Fraction(1, 7),))
    assert report.passed
    assert report.gm_samples == (5,)


def test_verify_rejections(a2, cusp):
    x = torus_point(a2, (2, 5))
    with pytest.raises(NotParabolic) as info:
        verify_compatible(a2, n(1, -1), x)
    assert info.value.verdict == "NotParabolic(Hyperbolic)"
    with pytest.raises(NotParabolic) as info:
        verify_compatible(a2, n(1, 1), x)
    assert info.value.verdict == "NotParabolic(Elliptic)"
    with pytest.raises(NormalityRequired):
        verify_compatible(cusp, n(1), torus_point(cusp, (2,)))
    with pytest.raises(ValueError):
        verify_compatible(a2, n(1, 0), x, gm_samples=(0,))
    boundary = ToricPoint(a2, (0, 5), ("limit",))
    with pytest.raises(ValueError):
        verify_compatible(a2, n(1, 0), boundary)


def test_verify_scaled_subgroup_still_passes(quadric):
    # l = (0,2) is parabolic at the same ray; the limit and flow agree
    report = verify_compatible(quadric, n(0, 2), torus_point(quadric, (3, 2)))
    assert report.passed
    assert report.ray_index == 0


def test_points_of_wrong_monoid_rejected(a2, quadric):
    p = torus_point(quadric, (3, 2))
    with pytest.raises(ValueError):
        verify_compatible(a2, n(1, 0), p)
    lnd = HomogeneousLND(a2, LatticeVector((-1, 0), M_SIDE))
    with pytest.raises(ValueError):
        ga_flow_point(lnd, 1, p)
