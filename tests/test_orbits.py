import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricflow import (
    AffineMonoid,
    HomogeneousLND,
    LatticeVector,
    N_SIDE,
    M_SIDE,
    NormalityRequired,
    NotParabolic,
    ToricPoint,
    classify,
    dot,
    ga_flow_point,
    limit_point,
    smallest_root_at_ray,
    torus_point,
    verify_compatible,
)

import toricflow.monoid
import toricflow.orbits
from toricflow.cli import main
from toricflow.orbits import evaluate, witness_derivation

from conftest import (FLOW_CASES, QUADRIC_SCENE, add, character_value_by_powers, flow_case,
                      gm_scale, monomial, pullback_flow_coords)


def n(*entries):
    return LatticeVector(entries, N_SIDE)


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


def test_torus_point_coords_must_be_its_characters(a2, quadric):
    # (1, 1) is on the variety, but not the point t = (2, 5): the flow would
    # read t for the root and the coordinates for the rest
    with pytest.raises(ValueError, match="not the characters"):
        ToricPoint(a2, (1, 1), ("torus", (2, 5)))
    with pytest.raises(ValueError):
        ToricPoint(a2, (0, 5), ("torus", (0, 5)))
    with pytest.raises(ValueError):
        ToricPoint(quadric, (3, 6, 12), ("torus", (3, 2, 1)))
    assert ToricPoint(a2, (2, 5), ("torus", (2, 5))).coords == (2, 5)


def test_point_coordinates_convert_to_fractions(quadric):
    # ints and "p/q" strings convert; Fractions are kept
    mixed = ToricPoint(quadric, (3, "-6/5", Fraction(12, 25)), ("limit",))
    exact = ToricPoint(quadric, (Fraction(3), Fraction(-6, 5), Fraction(12, 25)), ("limit",))
    assert mixed == exact and hash(mixed) == hash(exact)
    assert all(type(c) is Fraction for c in mixed.coords)
    with pytest.raises(ValueError):
        ToricPoint(quadric, (3, "x", 12), ("limit",))
    by_ints = torus_point(quadric, (3, -2))
    assert by_ints == torus_point(quadric, (Fraction(3), Fraction(-2)))
    assert all(type(x) is Fraction for x in by_ints.provenance[1] + by_ints.coords)
    assert torus_point(quadric, ("3", "-1/2")) == torus_point(quadric, (3, Fraction(-1, 2)))
    with pytest.raises(ValueError):
        torus_point(quadric, (3, "x"))


def test_point_relations_enforced(quadric):
    # coordinates must satisfy c0*c2 = c1^2
    with pytest.raises(ValueError):
        ToricPoint(quadric, (3, 6, 11), ("limit",))
    with pytest.raises(ValueError):
        ToricPoint(quadric, (0, 5, 0), ("limit",))
    ok = ToricPoint(quadric, (3, 0, 0), ("limit",))
    assert not ok.is_torus


def test_point_provenance_and_coordinate_count(quadric):
    with pytest.raises(ValueError, match="coordinate count"):
        ToricPoint(quadric, (3, 0), ("limit",))
    # a flow or limit point needs its coordinates, a torus point its t,
    # and no other provenance is a point's
    for coords, provenance in [(None, ("flow",)), (None, ("limit",)), ((3, 0, 0), ("torus",)),
                               ((3, 0, 0), ("bogus",)), ((3, 0, 0), ()),
                               ((3, 0, 0), ("limit", 1)), ((3, 0, 0), ["limit"])]:
        with pytest.raises(ValueError, match="provenance must be"):
            ToricPoint(quadric, coords, provenance)


def test_point_support_must_be_a_face():
    # the rational normal curve: weight cone cone((1,0),(1,3)) with the
    # relations c0*c2 = c1^2, c1*c3 = c2^2 and c0*c3 = c1*c2
    curve = AffineMonoid([(1, 0), (1, 1), (1, 2), (1, 3)], 2)
    # satisfies a lattice basis of the relations, but c1*c3 - c2^2 = -1:
    # the support {(1,2), (1,3)} is not the generator set of a face
    with pytest.raises(ValueError):
        ToricPoint(curve, (0, 0, 1, 1), ("limit",))
    with pytest.raises(ValueError):
        ToricPoint(curve, (0, 1, 0, 0), ("limit",))
    for coords in ((2, 0, 0, 0), (0, 0, 0, 5), (0, 0, 0, 0)):
        ToricPoint(curve, coords, ("limit",))
    p = torus_point(curve, (3, 2))
    for subgroup in ((0, 1), (3, -1), (1, 0)):
        limit = limit_point(curve, n(*subgroup), p)
        assert limit is not None
    assert limit_point(curve, n(0, 1), p).coords == (3, 0, 0, 0)
    assert limit_point(curve, n(3, -1), p).coords == (0, 0, 0, 24)
    assert limit_point(curve, n(1, 0), p).coords == (0, 0, 0, 0)
    report = verify_compatible(curve, n(0, 1), p)
    assert report.passed and report.flow_parameter is not None
    at_solved = ga_flow_point(HomogeneousLND(curve, report.root),
                              report.flow_parameter, p)
    assert at_solved.coords == report.limit.coords == (3, 0, 0, 0)


def test_gm_scale_agrees_with_coordinate_action(quadric):
    p = torus_point(quadric, (3, 2))
    scaled = gm_scale(quadric, n(0, 1), Fraction(2), p)
    # coordinate route: multiply coord j by t0^{<l, u_j>}
    assert scaled.coords == (3, 12, 48)
    # provenance route: the new point is the torus point of (3, 4)
    assert scaled.provenance == ("torus", (Fraction(3), Fraction(4)))
    assert scaled.coords == torus_point(quadric, (3, 4)).coords


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
    with pytest.raises(ValueError, match="N-side"):
        limit_point(a2, LatticeVector((1, 0), M_SIDE), x)
    with pytest.raises(ValueError, match="different monoid"):
        limit_point(quadric, n(0, 1), x)


def test_evaluate_on_limit_point(quadric):
    boundary = ToricPoint(quadric, (3, 0, 0), ("limit",))
    chi_b = monomial(quadric, quadric.generators[1])
    chi_a = monomial(quadric, quadric.generators[0])
    assert evaluate(chi_b, boundary) == 0
    assert evaluate(chi_a, boundary) == 3
    assert evaluate(monomial(quadric, (0, 0)), boundary) == 1


def test_evaluate_matches_torus_fast_path(quadric):
    p = torus_point(quadric, (3, 2))
    f = add(monomial(quadric, quadric.generators[1], Fraction(1, 2)),
            monomial(quadric, quadric.generators[2]))
    direct = sum(c * character_value_by_powers((3, 2), u.entries) for u, c in f.terms)
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
    # the closed form s* = -chi^(-e)(t) is the time solved from a coordinate
    # that is linear along the flow
    assert report.flow_parameter == -1 / character_value_by_powers(t, report.root.vector.entries)
    j = next(j for j, g in enumerate(mon.generators) if lnd.degree(g) == 1)
    slope = character_value_by_powers(t, (mon.generators[j] + report.root.vector).entries)
    assert report.flow_parameter == (report.limit.coords[j] - point.coords[j]) / slope


_PARABOLIC_FLOW_CASES = [("quadric", (0, 1)), ("a2", (1, 0)), ("thin50", (1, 0)),
                         ("thin50", (1, 50))]


# The full scaled and flowed points that verify_compatible no longer
# builds are the oracle for its closed-form invariant values.
@pytest.mark.parametrize("name, subgroup", _PARABOLIC_FLOW_CASES,
                         ids=["quadric", "a2", "thin50-near", "thin50-wide"])
@pytest.mark.parametrize("samples", ["default", "custom", "vanishing"])
def test_invariant_values_match_full_points(name, subgroup, samples):
    mon, _ = flow_case(name)
    subgroup = n(*subgroup)
    point = torus_point(mon, (3, Fraction(-2, 5)))
    kwargs = {}
    if samples == "custom":
        kwargs = {"gm_samples": (5, Fraction(-1, 3)), "ga_samples": (Fraction(1, 7), -4)}
    elif samples == "vanishing":
        # the flow time s* at which every factor 1 + s*t^e is zero
        ray_index = classify(mon.weight_cone, subgroup).ray_index
        root, _ = smallest_root_at_ray(mon.dual_cone, ray_index)
        root_value = character_value_by_powers(point.provenance[1], root.vector.entries)
        kwargs = {"ga_samples": (-1 / root_value, 2)}
        assert 1 + kwargs["ga_samples"][0] * root_value == 0
    report = verify_compatible(mon, subgroup, point, **kwargs)
    assert report.passed
    lnd = HomogeneousLND(mon, report.root)
    scaled = [gm_scale(mon, subgroup, t, point) for t in report.gm_samples]
    flowed = [ga_flow_point(lnd, s, point) for s in report.ga_samples]
    assert [c.exponent for c in report.invariant_checks] == list(lnd.kernel_generators())
    for check in report.invariant_checks:
        j = mon.generators.index(check.exponent)
        assert check.base_value == point.coords[j]
        assert check.gm_values == tuple(q.coords[j] for q in scaled)
        assert check.ga_values == tuple(q.coords[j] for q in flowed)


def test_verify_takes_the_witness_it_is_given(quadric, a2, cusp, monkeypatch):
    point = torus_point(quadric, (3, 2))
    witness = witness_derivation(quadric, classify(quadric.weight_cone, n(0, 1)))
    searched = verify_compatible(quadric, n(0, 1), point)

    def refuse(*args):
        raise AssertionError("a given witness was searched for or classified again")

    monkeypatch.setattr(toricflow.orbits, "smallest_root_at_ray", refuse)
    monkeypatch.setattr(toricflow.orbits, "classify", refuse)
    assert verify_compatible(quadric, n(0, 1), point, witness=witness) == searched
    assert verify_compatible(quadric, n(0, 2), point, witness=witness).passed
    monkeypatch.undo()
    other_ray = witness_derivation(quadric, classify(quadric.weight_cone,
                                                     quadric.dual_cone.rays[1]))
    other_monoid = witness_derivation(a2, classify(a2.weight_cone, n(0, 1)))
    assert other_monoid[0].ray == witness[0].ray
    for wrong in (other_ray, other_monoid):
        with pytest.raises(ValueError):
            verify_compatible(quadric, n(0, 1), point, witness=wrong)
    # saturation is decided before the grading
    with pytest.raises(NormalityRequired):
        witness_derivation(cusp, classify(cusp.weight_cone, n(-1)))
    with pytest.raises(NotParabolic):
        witness_derivation(a2, classify(a2.weight_cone, n(1, 1)))


def test_limit_and_flowed_point_share_their_face_relations(monkeypatch):
    mon = AffineMonoid([(1, 0), (1, 1), (1, 2)], 2)
    point = torus_point(mon, (3, 2))
    calls = []
    kernel = toricflow.monoid.integer_kernel

    def counted(rows):
        calls.append(rows)
        return kernel(rows)

    monkeypatch.setattr(toricflow.monoid, "integer_kernel", counted)
    report = verify_compatible(mon, n(0, 1), point)
    assert report.passed and report.limit.coords == (3, 0, 0)
    assert len(calls) == 1


def _watch_certificate(monkeypatch):
    """The torus points that _root_value is called on, and the (coords,
    provenance) of each point past the torus that orbits builds."""
    root_values, built = [], []
    root_value, point_class = toricflow.orbits._root_value, toricflow.orbits.ToricPoint

    def counted(lnd, point):
        root_values.append(point)
        return root_value(lnd, point)

    def recorded(monoid, coords, provenance):
        point = point_class(monoid, coords, provenance)
        if provenance[0] != "torus":
            built.append((point.coords, provenance[0]))
        return point

    monkeypatch.setattr(toricflow.orbits, "_root_value", counted)
    monkeypatch.setattr(toricflow.orbits, "ToricPoint", recorded)
    return root_values, built


@pytest.mark.parametrize("name, subgroup, t", [("quadric", (0, 1), (3, 2)),
                                               ("a2", (1, 0), (2, 5))])
def test_verify_forms_t_to_the_e_once_and_builds_only_the_limit(request, monkeypatch,
                                                                 name, subgroup, t):
    mon = request.getfixturevalue(name)
    point = torus_point(mon, t)
    root_values, built = _watch_certificate(monkeypatch)
    report = verify_compatible(mon, n(*subgroup), point)
    assert report.passed and report.derived_facts
    assert root_values == [point]
    # the flow at s* reaches the limit, whose coordinates were checked once
    assert built == [(report.limit.coords, "limit")]


def test_verify_checks_a_flowed_point_that_misses_the_limit(quadric, monkeypatch):
    point = torus_point(quadric, (3, 2))
    other = ToricPoint(quadric, (5, 0, 0), ("limit",))  # on the variety, not the limit
    monkeypatch.setattr(toricflow.orbits, "limit_point", lambda *args: other)
    supports = []
    relations = toricflow.monoid.AffineMonoid.face_relations

    def recorded(mon, support):
        supports.append(tuple(support))
        return relations(mon, support)

    monkeypatch.setattr(toricflow.monoid.AffineMonoid, "face_relations", recorded)
    root_values, built = _watch_certificate(monkeypatch)
    report = verify_compatible(quadric, n(0, 1), point)
    assert root_values == [point]
    assert built == [((3, 0, 0), "flow")] and supports == [(0,)]
    assert not report.passed and not report.reached_exactly
    assert report.limit is other and report.derived_facts == ()


# Faults in the flow or in the limit, each made by patching orbits: the
# certificate must fail on the first and the face check refuse the second.
def _double_a_fixed_coordinate(coords, degrees):
    j = degrees.index(0)
    return coords[:j] + (2 * coords[j],) + coords[j + 1:]


def _set_a_moving_coordinate_to_one(coords, degrees):
    j = next(j for j, k in enumerate(degrees) if k > 0)
    return coords[:j] + (Fraction(1),) + coords[j + 1:]


def _break(monkeypatch, target, fault):
    if target == "_flowed":
        flowed = toricflow.orbits._flowed
        monkeypatch.setattr(toricflow.orbits, "_flowed", lambda lnd, step, coords: fault(
            flowed(lnd, step, coords), list(lnd.degrees)))
    else:
        limit = toricflow.orbits.limit_point

        def broken(mon, subgroup, point):
            degrees = [dot(subgroup.entries, g.entries) for g in mon.generators]
            return ToricPoint(mon, fault(limit(mon, subgroup, point).coords, degrees), ("limit",))
        monkeypatch.setattr(toricflow.orbits, "limit_point", broken)


@pytest.mark.parametrize("target", ["_flowed", "limit_point"])
def test_verify_fails_on_a_flow_or_limit_that_moves_a_fixed_coordinate(quadric, monkeypatch,
                                                                       capsys, target):
    _break(monkeypatch, target, _double_a_fixed_coordinate)
    report = verify_compatible(quadric, n(0, 1), torus_point(quadric, (3, 2)))
    assert not report.passed and not report.reached_exactly
    assert report.derived_facts == ()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(QUADRIC_SCENE)))
    assert main(["verify", "--point=p", "--l=vertical"]) == 0
    out = capsys.readouterr().out
    assert '"verdict": "fail"' in out and json.loads(out)["derived_facts"] == []


@pytest.mark.parametrize("target", ["_flowed", "limit_point"])
def test_the_face_check_refuses_a_flow_or_limit_off_the_variety(quadric, monkeypatch, target):
    # quadric's generators (1,0), (1,1), (1,2) have degrees 0, 1, 2 under
    # (0,1); a point nonzero at (1,0) and (1,1) alone is on no face
    _break(monkeypatch, target, _set_a_moving_coordinate_to_one)
    with pytest.raises(ValueError, match="not the generators of a face"):
        verify_compatible(quadric, n(0, 1), torus_point(quadric, (3, 2)))


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
