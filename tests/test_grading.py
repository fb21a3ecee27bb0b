import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toricflow import (
    AffineMonoid,
    Face,
    GradingKind,
    LatticeVector,
    N_SIDE,
    NormalityRequired,
    NotParabolic,
    classify,
    hilbert_basis,
    matrix_rank,
    primitive,
    straightening_subtori,
)

from conftest import (cone_fixture, fixed_locus, generator_degree_gcd,
                      negation_is_parabolic, random_monoids, random_subgroups)


def n(*entries):
    return LatticeVector(entries, N_SIDE)


def test_quadric_parabolic(quadric):
    grading = classify(quadric.weight_cone, n(0, 1))
    assert grading.kind is GradingKind.PARABOLIC
    assert grading.ray_index == 0
    assert grading.degree_gcd == 1
    assert grading.effective
    assert [r.entries for r in grading.zero_face.rays] == [(1, 0)]
    assert grading.zero_face.dim == 1  # a facet of the rank-2 weight cone


def test_quadric_other_ray(quadric):
    grading = classify(quadric.weight_cone, n(2, -1))
    assert grading.kind is GradingKind.PARABOLIC
    assert grading.ray_index == 1


def test_scaled_subgroup_is_parabolic_but_not_effective(quadric):
    grading = classify(quadric.weight_cone, n(0, 2))
    assert grading.kind is GradingKind.PARABOLIC
    assert grading.ray_index == 0
    assert grading.degree_gcd == 2
    assert not grading.effective


def test_a2_kinds(a2):
    assert classify(a2.weight_cone, n(1, 0)).kind is GradingKind.PARABOLIC
    assert classify(a2.weight_cone, n(1, 0)).ray_index == 1
    assert classify(a2.weight_cone, n(0, 1)).ray_index == 0
    assert classify(a2.weight_cone, n(1, 1)).kind is GradingKind.ELLIPTIC
    assert classify(a2.weight_cone, n(1, -1)).kind is GradingKind.HYPERBOLIC
    assert classify(a2.weight_cone, n(-1, -1)).kind is GradingKind.HYPERBOLIC


def test_a3_degenerate(a3):
    grading = classify(a3.weight_cone, n(1, 1, 0))
    assert grading.kind is GradingKind.DEGENERATE_NONNEGATIVE
    assert grading.zero_face.dim == 1
    assert grading.ray_index is None


def test_rank_one_parabolic(line):
    grading = classify(line.weight_cone, n(1))
    assert grading.kind is GradingKind.PARABOLIC
    assert grading.ray_index == 0
    assert grading.zero_face.dim == 0


def test_quadric_zero_faces(quadric):
    # weight cone rays (1,0), (1,2): l = (1,1) is positive on both
    assert classify(quadric.weight_cone, n(1, 1)).zero_face == Face((), 0)
    grading = classify(quadric.weight_cone, n(-1, 0))
    assert grading.kind is GradingKind.HYPERBOLIC and grading.zero_face is None


def test_classify_input_validation(a2):
    with pytest.raises(ValueError):
        classify(a2.weight_cone, LatticeVector((1, 0), "M"))
    with pytest.raises(ValueError):  # the N-side cone is not a weight cone
        classify(a2.dual_cone, n(1, 0))
    with pytest.raises(ValueError):
        classify(a2.weight_cone, n(0, 0))
    with pytest.raises(ValueError):
        classify(a2.weight_cone, n(1, 0, 0))


def test_classify_runs_on_unsaturated_monoids(cusp):
    grading = classify(cusp.weight_cone, n(1))
    assert grading.kind is GradingKind.PARABOLIC
    assert grading.degree_gcd == 1


def _sign_oracle(mon, subgroup):
    """(kind, zero face rays, zero face dimension), read off the Hilbert
    basis: the face is spanned by its elements of degree zero, and its rays
    are the weight cone's rays among them."""
    values = {h.entries: sum(a * b for a, b in zip(subgroup.entries, h.entries))
              for h in hilbert_basis(mon.weight_cone)}
    if any(v < 0 for v in values.values()):
        return GradingKind.HYPERBOLIC, None, None
    zero = [h for h, v in values.items() if v == 0]
    zero_rank = matrix_rank(zero) if zero else 0
    rays = sorted(r.entries for r in mon.weight_cone.rays if r.entries in zero)
    if zero_rank == mon.rank - 1:
        return GradingKind.PARABOLIC, rays, zero_rank
    if zero_rank == 0 and not zero:
        return GradingKind.ELLIPTIC, rays, zero_rank
    return GradingKind.DEGENERATE_NONNEGATIVE, rays, zero_rank


def test_sign_oracle_agreement(a2, a3, quadric):
    rng = random.Random(7)
    for mon in (a2, a3, quadric):
        for _ in range(100):
            entries = tuple(rng.randint(-5, 5) for _ in range(mon.rank))
            if all(e == 0 for e in entries):
                continue
            subgroup = n(*primitive(LatticeVector(entries)).entries)
            grading = classify(mon.weight_cone, subgroup)
            face = grading.zero_face
            seen = (None, None) if face is None else (
                sorted(r.entries for r in face.rays), face.dim)
            assert (grading.kind, *seen) == _sign_oracle(mon, subgroup)


@given(st.tuples(st.integers(-7, 7), st.integers(-7, 7)).filter(
    lambda v: v != (0, 0)))
def test_trichotomy_is_total_and_exclusive(entries):
    mon = AffineMonoid([(1, 0), (1, 1), (1, 2)], 2)
    grading = classify(mon.weight_cone, n(*entries))
    assert grading.kind in (GradingKind.ELLIPTIC, GradingKind.PARABOLIC,
                            GradingKind.HYPERBOLIC,
                            GradingKind.DEGENERATE_NONNEGATIVE)
    assert (grading.ray_index is not None) == (
        grading.kind is GradingKind.PARABOLIC)
    assert grading.effective == (grading.degree_gcd == 1)


def test_fixed_locus_quadric(quadric):
    locus = fixed_locus(quadric, n(0, 1))
    assert locus.ray_index == 0
    assert locus.ray.entries == (0, 1)
    assert locus.vanishing == (1, 2)
    assert locus.surviving == (0,)


def test_fixed_locus_a2(a2):
    locus = fixed_locus(a2, n(1, 0))
    assert locus.ray_index == 1
    assert locus.vanishing == (0,)
    assert locus.surviving == (1,)


def test_fixed_locus_refuses_nonparabolic(a2):
    with pytest.raises(NotParabolic) as info:
        fixed_locus(a2, n(1, -1))
    assert info.value.verdict == "NotParabolic(Hyperbolic)"
    with pytest.raises(NotParabolic) as info:
        fixed_locus(a2, n(1, 1))
    assert info.value.verdict == "NotParabolic(Elliptic)"


def test_straightening_quadric(quadric):
    divisors = straightening_subtori(quadric)
    assert [d.ray.entries for d in divisors] == [(0, 1), (2, -1)]
    assert [d.ray_index for d in divisors] == [0, 1]
    assert divisors[0].vanishing == (1, 2)
    assert divisors[0].surviving == (0,)
    assert divisors[1].vanishing == (0, 1)
    assert divisors[1].surviving == (2,)


def test_straightening_subtori_are_parabolic(a2, a3, quadric, line):
    monoids = [a2, a3, quadric, line]
    for name in ("square", "pentagon"):  # non-simplicial weight cones
        sigma = cone_fixture(name)
        monoids.append(AffineMonoid(hilbert_basis(sigma.dual()), sigma.rank))
    for mon in monoids:
        divisors = straightening_subtori(mon)
        assert [d.ray.entries for d in divisors] == [
            r.entries for r in mon.dual_cone.rays]
        for k, divisor in enumerate(divisors):
            p = divisor.ray
            for c in (1, 3):
                grading = classify(mon.weight_cone, LatticeVector([c * x for x in p], N_SIDE))
                assert grading.kind is GradingKind.PARABOLIC
                assert grading.ray_index == k
            flipped = classify(mon.weight_cone, -p)
            assert flipped.kind is GradingKind.HYPERBOLIC


@pytest.mark.parametrize("name", ["square", "pentagon"])
def test_straightening_divisors_are_fixed_loci_on_non_simplicial_cones(name):
    sigma = cone_fixture(name)
    mon = AffineMonoid(hilbert_basis(sigma.dual()), sigma.rank)
    assert mon.dual_cone == sigma and len(sigma.rays) > sigma.rank
    divisors = straightening_subtori(mon)
    assert len(divisors) == len(sigma.rays)
    for k, ray in enumerate(sigma.rays):
        assert divisors[k] == fixed_locus(mon, ray)


def test_straightening_requires_saturation(cusp):
    with pytest.raises(NormalityRequired) as info:
        straightening_subtori(cusp)
    assert "(1,)" in str(info.value)


def test_degree_gcd_uses_generators(cusp):
    # degrees 2 and 3 under l=(1): gcd 1 even though no generator has degree 1
    grading = classify(cusp.weight_cone, n(1))
    assert grading.degree_gcd == generator_degree_gcd(cusp, n(1)) == 1


@given(random_monoids(), st.data())
def test_degree_gcd_matches_the_generator_degrees(mon, data):
    subgroup = data.draw(random_subgroups(mon))
    grading = classify(mon.weight_cone, subgroup)
    assert grading.degree_gcd == generator_degree_gcd(mon, subgroup)
    assert grading.effective is (grading.degree_gcd == 1)


@given(random_monoids(), st.data())
def test_parabolic_negation_is_a_facet_normal(mon, data):
    # the report's warning tests primitive(-l) against the facet normals
    subgroup = data.draw(random_subgroups(mon))
    cone = mon.weight_cone
    assert (primitive(-subgroup) in cone.facet_normals) is negation_is_parabolic(cone, subgroup)
