import doctest
import time
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import toricflow.cones
import toricflow.monoid
from toricflow import (
    AffineMonoid,
    BoundExceeded,
    Cone,
    HomogeneousLND,
    IllDefinedRoot,
    LatticeVector,
    M_SIDE,
    N_SIDE,
    NotEffective,
    NotFullDimensional,
    NotPointed,
    RankLimitExceeded,
    SaturationResult,
    ToricPoint,
    dot,
    generates_full_lattice,
    hilbert_basis,
    roots_in_box,
)
from toricflow.lattice import adjugate

from conftest import (FLOW_CASES, box_scan_hilbert_basis, cone_fixture,
                      laplace_cofactors, permutation_det, random_monoids,
                      rank_pulling, saturation_by_membership)


def test_doctests():
    failed, _ = doctest.testmod(toricflow.monoid)
    assert failed == 0


def test_hilbert_basis_quadrant():
    cone = Cone.from_rays([(1, 0), (0, 1)], 2, M_SIDE)
    assert [v.entries for v in hilbert_basis(cone)] == [(0, 1), (1, 0)]


def test_hilbert_basis_quadric_weight_cone():
    omega = cone_fixture("quadric").dual()
    assert [v.entries for v in hilbert_basis(omega)] == [(1, 0), (1, 1), (1, 2)]


def test_hilbert_basis_wide_cone():
    cone = Cone.from_rays([(0, 1), (3, 1)], 2, M_SIDE)
    assert [v.entries for v in hilbert_basis(cone)] == [
        (0, 1), (1, 1), (2, 1), (3, 1)]


def test_hilbert_basis_octant():
    cone = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, M_SIDE)
    assert [v.entries for v in hilbert_basis(cone)] == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_hilbert_basis_square_cone_has_interior_generator():
    cone = Cone.from_rays([(1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2)], 3, M_SIDE)
    assert [v.entries for v in hilbert_basis(cone)] == [
        (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2),
        (1, 2, 0), (1, 2, 1), (1, 2, 2)]


def test_hilbert_basis_requires_weight_side():
    with pytest.raises(ValueError):
        hilbert_basis(cone_fixture("quadrant"))


def test_hilbert_basis_rank_limit():
    # RANK_LIMIT is the only rank bound: rank 4 has a Hilbert basis, and a
    # rank-5 weight cone is refused when it is built
    orthant = [tuple(1 if i == j else 0 for j in range(4)) for i in range(4)]
    cone = Cone.from_rays(orthant, 4, M_SIDE)
    assert [v.entries for v in hilbert_basis(cone)] == sorted(orthant)
    rays = [tuple(1 if i == j else 0 for j in range(5)) for i in range(5)]
    with pytest.raises(RankLimitExceeded):
        Cone.from_rays(rays, 5, M_SIDE)


def _simplices(cone):
    return toricflow.monoid._pulling(
        tuple(r.entries for r in cone.rays), [h.entries for h in cone.facet_normals],
        cone.rank)


def _simplex_volume(cone):
    return sum(abs(permutation_det(simplex)) for simplex in _simplices(cone))


def test_hilbert_basis_rank4_cube_and_octahedron():
    # The weight cone over the cube [-1,1]^3 has square facets, which the
    # pulling triangulation cuts in two; its simplices fill the cube without
    # overlap, 3! * 8 = 48, and its basis is the cube's 27 lattice points.
    cube = Cone.from_rays([(1,) + v for v in product((-1, 1), repeat=3)], 4, M_SIDE)
    assert _simplex_volume(cube) == 48
    basis = [v.entries for v in hilbert_basis(cube)]
    assert basis == [(1,) + v for v in product((-1, 0, 1), repeat=3)]
    assert basis == box_scan_hilbert_basis(cube)
    # the octahedron, 3! * 4/3 = 8: its six vertices and its centre
    vertices = [(1,) + tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    octahedron = Cone.from_rays(vertices, 4, M_SIDE)
    assert _simplex_volume(octahedron) == 8
    basis = [v.entries for v in hilbert_basis(octahedron)]
    assert basis == sorted(vertices + [(1, 0, 0, 0)])
    assert basis == box_scan_hilbert_basis(octahedron)


def test_hilbert_basis_box_cap():
    # 999 parallelepiped points, though the zonotope box holds 2,000,000
    cone = Cone.from_rays([(1, 0), (1000, 999)], 2, M_SIDE)
    assert [v.entries for v in hilbert_basis(cone)] == [
        (j + 1, j) for j in range(1000)]
    # the triangle over (0,0), (633,0), (0,633) is one simplex of det 633^2
    cone = Cone.from_rays([(1, 0, 0), (1, 633, 0), (1, 0, 633)], 3, M_SIDE)
    with pytest.raises(BoundExceeded, match="400689 candidate points.*400000") as info:
        hilbert_basis(cone)
    assert "HILBERT_CANDIDATE_CAP" in str(info.value)
    assert "give a narrower cone or fewer generators" in str(info.value)


def test_hilbert_basis_walk_cap():
    # The weight cone of cone((1,0),(1,400000)) has 3 basis elements, which
    # the walk finds at once; cone((1,0),(1,k)) itself has the k + 1 elements
    # (1,j), which the walk counts before it builds any: 400,000 of them pass
    # the cap and 400,001 are refused.
    weight = Cone.from_rays([(1, 0), (1, 400000)], 2, N_SIDE).dual()
    assert [v.entries for v in hilbert_basis(weight)] == [(0, 1), (1, 0), (400000, -1)]
    cone = Cone.from_rays([(1, 0), (1, 399999)], 2, M_SIDE)
    assert len(hilbert_basis(cone)) == 400000
    cone = Cone.from_rays([(1, 0), (1, 400000)], 2, M_SIDE)
    with pytest.raises(BoundExceeded) as info:
        hilbert_basis(cone)
    assert str(info.value) == (
        "cone is too wide for a Hilbert basis: its continued-fraction walk has "
        "400001 basis elements, over HILBERT_CANDIDATE_CAP = 400000; give rays "
        "with smaller entries")


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _rank2_cones(bound):
    """Pointed full-dimensional rank-2 weight cones on two rays with entries
    in -bound..bound."""
    vectors = st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))
    return st.tuples(vectors, vectors).filter(lambda pair: _det(*pair)).map(
        lambda pair: Cone.from_rays(list(pair), 2, M_SIDE))


@example(Cone.from_rays([(1, 0), (30, 29)], 2, M_SIDE))
@example(Cone.from_rays([(-30, 1), (30, 1)], 2, M_SIDE))
@given(_rank2_cones(30))
def test_rank2_walk_matches_box_scan(cone):
    assert [v.entries for v in hilbert_basis(cone)] == box_scan_hilbert_basis(cone)


# entries up to 400 keep det(a, b), which bounds the basis size, under the cap
@given(_rank2_cones(400))
def test_rank2_walk_structure(cone):
    # the walk runs from one ray to the other; consecutive elements have
    # det 1, and each inner one is a Hirzebruch-Jung step, u_(i-1) + u_(i+1)
    # = b_i u_i with b_i >= 2
    walk = toricflow.monoid._walk(*(r.entries for r in cone.rays))
    assert {walk[0], walk[-1]} == {r.entries for r in cone.rays}
    assert sorted(walk) == [v.entries for v in hilbert_basis(cone)]
    assert all(_det(u, v) == 1 for u, v in zip(walk, walk[1:]))
    for before, u, after in zip(walk, walk[1:], walk[2:]):
        total = (before[0] + after[0], before[1] + after[1])
        b, remainder = divmod(total[0] * u[0] + total[1] * u[1], u[0] ** 2 + u[1] ** 2)
        assert remainder == 0 and b >= 2 and total == (b * u[0], b * u[1])


@example(Cone.from_rays([(1, 0), (1000, 999)], 2, M_SIDE))
@example(Cone.from_rays([(2, -1), (-397, 1)], 2, M_SIDE))
@given(_rank2_cones(400))
def test_rank2_walk_is_counted_before_it_is_walked(cone):
    # the count the cap reads is the walk's length: a cap of that length
    # passes the walk, and a cap one lower refuses it and names the length
    rays = [r.entries for r in cone.rays]
    walk = toricflow.monoid._walk(*rays)
    with mock.patch.object(toricflow.monoid, "HILBERT_CANDIDATE_CAP", len(walk)):
        assert toricflow.monoid._walk(*rays) == walk
    with mock.patch.object(toricflow.monoid, "HILBERT_CANDIDATE_CAP", len(walk) - 1):
        with pytest.raises(BoundExceeded, match="walk has %d basis elements" % len(walk)):
            toricflow.monoid._walk(*rays)


def test_thin_weight_cones_take_milliseconds():
    start = time.perf_counter()
    for k in (2, 3, 10, 10**3, 5 * 10**5, 10**6, 10**9):
        weight = Cone.from_rays([(1, 0), (1, k)], 2, N_SIDE).dual()
        assert [v.entries for v in hilbert_basis(weight)] == [(0, 1), (1, 0), (k, -1)]
    assert time.perf_counter() - start < 0.5


@st.composite
def pointed_weight_cones(draw, ranks=st.integers(1, 4)):
    """A pointed full-dimensional cone of a rank drawn from ranks (1-4) on
    2-6 generators with entries in -4..4 (-2..2 in rank 4): every generator
    pairs positively with a random functional, so the cone is pointed."""
    rank = draw(ranks)
    functional = draw(st.tuples(*[st.integers(-2, 2)] * rank).filter(any))
    entry = st.integers(-2, 2) if rank == 4 else st.integers(-4, 4)
    vector = st.tuples(*[entry] * rank).filter(
        lambda r: sum(a * b for a, b in zip(functional, r)) > 0)
    generators = draw(st.lists(vector, min_size=max(2, rank), max_size=6))
    try:
        return Cone.from_rays(generators, rank, M_SIDE)
    except NotFullDimensional:
        assume(False)


# a facet value of this cone needs the guard bit's headroom in its packed field
@example(Cone.from_rays([(-5, 2), (2, 3)], 2, M_SIDE))
@given(pointed_weight_cones())
def test_hilbert_basis_matches_box_scan(cone):
    basis = [v.entries for v in hilbert_basis(cone)]
    assert basis == box_scan_hilbert_basis(cone)
    # a cone scene's monoid takes this basis without checking the lattice
    assert generates_full_lattice(basis, cone.rank)


# few rank-4 cones come from the draws over every rank; the example is the
# cone over a pyramid whose hexagonal base misses the first ray
@example(Cone.from_rays([(1, -1, -1, 0), (1, 0, 0, 1), (1, 1, 0, 1), (1, 2, 1, 1),
                         (1, 2, 2, 1), (1, 1, 2, 1), (1, 0, 1, 1)], 4, M_SIDE))
@given(pointed_weight_cones(st.just(4)))
def test_hilbert_basis_matches_box_scan_in_rank_4(cone):
    basis = [v.entries for v in hilbert_basis(cone)]
    assert basis == box_scan_hilbert_basis(cone)
    assert generates_full_lattice(basis, cone.rank)


# the 49-ray cone over the paraboloid (1, x, y, x^2 + y^2), |x|, |y| <= 3
@example(Cone.from_rays([(1, x, y, x * x + y * y) for x in range(-3, 4)
                         for y in range(-3, 4)], 4, M_SIDE))
@given(pointed_weight_cones(st.integers(3, 4)))
def test_pulling_keeps_the_facets_the_rank_test_keeps(cone):
    # the inclusion-maximal cuts are the cuts of rank dim - 1
    args = (tuple(r.entries for r in cone.rays), [h.entries for h in cone.facet_normals],
            cone.rank)
    assert toricflow.monoid._pulling(*args) == rank_pulling(*args)

def test_hilbert_basis_square13_and_thin_cone():
    # The packed support form is W = (max level).bit_length() + 1 bits per
    # facet; the thin cones cone((0,1),(k,-1)) for k = 1..70 cross several
    # field widths, and the cones over the squares [0,n]^2 several more.
    for k in range(1, 71):
        cone = Cone.from_rays([(0, 1), (k, -1)], 2, M_SIDE)
        assert [v.entries for v in hilbert_basis(cone)] == box_scan_hilbert_basis(cone)
    for n in range(1, 16):
        square = [(1, 0, 0), (1, n, 0), (1, 0, n), (1, n, n)]
        cone = Cone.from_rays(square, 3, M_SIDE)
        assert [v.entries for v in hilbert_basis(cone)] == box_scan_hilbert_basis(cone)
    for n in (13, 30):
        square = [(1, 0, 0), (1, n, 0), (1, 0, n), (1, n, n)]
        cone = Cone.from_rays(square, 3, M_SIDE)
        assert [v.entries for v in hilbert_basis(cone)] == [
            (1, a, b) for a in range(n + 1) for b in range(n + 1)]
    cone = Cone.from_rays([(0, 1), (3000, -1)], 2, M_SIDE)
    assert [v.entries for v in hilbert_basis(cone)] == [
        (0, 1), (1, 0), (3000, -1)]


def test_thin_rank3_weight_cones():
    # the weight cone of cone((1,0,0),(0,1,0),(1,1,k)) has k + 4 basis
    # elements among about k^2 parallelepiped points
    for k in (10, 100):
        weight = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, k)], 3, N_SIDE).dual()
        basis = [v.entries for v in hilbert_basis(weight)]
        assert len(basis) == k + 4
        if k == 10:
            assert basis == box_scan_hilbert_basis(weight)


def test_package_built_vectors_are_lattice_vectors():
    # hilbert_basis (the walk included), Cone.from_rays and roots_in_box
    # wrap their own int tuples unchecked; each vector must be the one the
    # checking constructor gives
    sigma = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 5), (2, 1, 1)], 3, N_SIDE)
    rank2 = Cone.from_rays([(0, 1), (7, -2)], 2, M_SIDE)
    vectors = [*sigma.rays, *sigma.facet_normals, *hilbert_basis(sigma.dual()),
               *hilbert_basis(rank2), *(root.vector for root in roots_in_box(sigma, 2))]
    assert {v.side for v in vectors} == {M_SIDE, N_SIDE}
    for v in vectors:
        checked = LatticeVector(v.entries, v.side)
        assert v == checked and hash(v) == hash(checked) and repr(v) == repr(checked)
        assert type(v.entries) is tuple and {type(e) for e in v.entries} == {int}


def test_one_adjugate_per_simplex(monkeypatch):
    # Each pulling simplex is eliminated once, for its det and its cofactors
    # together, and Cone.from_rays eliminates its duality basis once.
    calls = []

    def counting_adjugate(rows):
        calls.append(tuple(rows))
        return adjugate(rows)

    square = Cone.from_rays([(1, 0, 0), (1, 30, 0), (1, 0, 30), (1, 30, 30)], 3, M_SIDE)
    cube = Cone.from_rays([(1,) + v for v in product((-1, 1), repeat=3)], 4, M_SIDE)
    monkeypatch.setattr(toricflow.monoid, "adjugate", counting_adjugate)
    monkeypatch.setattr(toricflow.cones, "adjugate", counting_adjugate)
    for cone in (square, cube):
        calls.clear()
        hilbert_basis(cone)
        assert sorted(calls) == sorted(_simplices(cone))
    assert len(calls) == 6  # three square facets miss the first ray, two simplices each
    calls.clear()
    Cone.from_rays([(1,) + v for v in product((-1, 1), repeat=3)], 4, M_SIDE)
    assert len(calls) == 1


def _coefficients(simplex, x):
    # q with x = sum q_i simplex[i], by Cramer's rule
    size = permutation_det(simplex)
    return [Fraction(permutation_det(simplex[:i] + [x] + simplex[i + 1:]), size)
            for i in range(len(simplex))]


def _square_matrices(d):
    entry = st.integers(-2, 2) if d == 4 else st.integers(-3, 3)
    return st.lists(st.tuples(*[entry] * d), min_size=d, max_size=d)


@example([(3,)])
@example([(1, 0), (1, 7)])
@example([(1, 7), (1, 0)])  # det -7: floors of coefficients over a negative det
@example([(1, 0, 0), (1, 2, 0), (1, 2, 2)])
@example([(1, 0, 0), (1, 2, 0), (1, 0, 2)])  # class group Z/2 x Z/2, box 1x2x2
@example([(2, -1, 3), (0, 3, 1), (-1, 2, 4)])
@given(st.integers(1, 4).flatmap(_square_matrices))
def test_parallelepiped_points(simplex):
    size = abs(permutation_det(simplex))
    assume(size != 0)
    points = toricflow.monoid._parallelepiped_points(
        simplex, permutation_det(simplex), laplace_cofactors(simplex))
    assert len(points) == len(set(points)) == size - 1
    for x in points:
        assert any(x)
        assert all(0 <= q < 1 for q in _coefficients(simplex, x))


def _pointed_ray_pairs():
    vectors = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
        lambda v: v != (0, 0))

    def independent(pair):
        (a, b), (c, d) = pair
        return a * d - b * c != 0

    return st.tuples(vectors, vectors).filter(independent)


@given(_pointed_ray_pairs())
def test_hilbert_basis_generates_all_cone_points(pair):
    # oracle: every lattice point of the cone inside a small box must be a
    # nonnegative integer combination of the basis, and the basis member
    # list must itself be irredundant
    cone = Cone.from_rays(list(pair), 2, M_SIDE)
    basis = hilbert_basis(cone)
    mon = AffineMonoid(basis, 2)
    for point in product(range(-6, 7), repeat=2):
        if point == (0, 0):
            continue
        if cone.contains_tuple(point):
            assert mon.contains(point)
    for i, u in enumerate(basis):
        rest = [v for j, v in enumerate(basis) if j != i]
        if rest:
            assert not _combination(rest, u.entries, cone)


def _combination(generators, target, cone):
    # small exact search: is target a nonnegative combination of generators
    stack = [target]
    seen = set()
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if all(x == 0 for x in t):
            return True
        for g in generators:
            w = tuple(a - b for a, b in zip(t, g.entries))
            if cone.contains_tuple(w):
                stack.append(w)
    return False


def test_monoid_preserves_generator_order():
    mon = AffineMonoid([(0, 1), (1, 0)], 2)
    assert [g.entries for g in mon.generators] == [(0, 1), (1, 0)]


def test_monoid_validation():
    with pytest.raises(ValueError):
        AffineMonoid([], 2)
    with pytest.raises(ValueError):
        AffineMonoid([(0, 0)], 2)
    with pytest.raises(ValueError):
        AffineMonoid([(1, 0), (1, 0)], 2)
    with pytest.raises(ValueError):
        AffineMonoid([(1,)], 2)
    with pytest.raises(ValueError):
        AffineMonoid([(1,)], 0)
    with pytest.raises(RankLimitExceeded):
        AffineMonoid([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)], 5)
    with pytest.raises(NotPointed):
        AffineMonoid([(1, 0), (-1, 0), (0, 1)], 2)
    with pytest.raises(NotEffective):
        AffineMonoid([(2, 0), (0, 1)], 2)
    with pytest.raises(NotEffective):
        AffineMonoid([(2,), (4,)], 1)


def test_decompose_frozen(quadric):
    assert quadric.decompose((2, 3)) == (0, 1, 1)
    assert quadric.decompose((1, 1)) == (0, 1, 0)
    assert quadric.decompose((0, 0)) == (0, 0, 0)
    assert quadric.decompose((1, 3)) is None
    assert quadric.decompose((-1, 0)) is None


def test_decompose_reconstructs(quadric):
    for target in product(range(0, 7), repeat=2):
        coeffs = quadric.decompose(target)
        if coeffs is None:
            continue
        rebuilt = [0, 0]
        for k, g in zip(coeffs, quadric.generators):
            rebuilt = [a + k * b for a, b in zip(rebuilt, g.entries)]
        assert tuple(rebuilt) == target


def test_cusp_membership(cusp):
    present = [n for n in range(0, 8) if cusp.contains((n,))]
    assert present == [0, 2, 3, 4, 5, 6, 7]


def test_saturation_witnesses(a2, quadric, cusp):
    assert a2.saturation().saturated
    assert quadric.saturation().saturated
    result = cusp.saturation()
    assert not result.saturated
    assert result.witness.entries == (1,)
    gapped = AffineMonoid([(1, 0), (1, 2), (1, 3)], 2)
    result = gapped.saturation()
    assert not result.saturated
    assert result.witness.entries == (1, 1)


def _hexagon_weight_monoid():
    hexagon = [(1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 2, 2), (1, 1, 2), (1, 0, 1)]
    return AffineMonoid(hilbert_basis(Cone.from_rays(hexagon, 3, M_SIDE)), 3)


def _holed_square_monoid():
    # the lattice points of the square [0,2]^2 at height one, minus its centre
    return AffineMonoid([(1, x, y) for x in range(3) for y in range(3)
                         if (x, y) != (1, 1)], 3)


# name: (builder, saturated)
MEMBERSHIP_MONOIDS = {
    "quadric": (lambda: AffineMonoid([(1, 0), (1, 1), (1, 2)], 2), True),
    "a2": (lambda: AffineMonoid([(1, 0), (0, 1)], 2), True),
    "thin50": (lambda: AffineMonoid(FLOW_CASES["thin50"][0], 2), True),
    "hexagon": (_hexagon_weight_monoid, True),
    "cusp": (lambda: AffineMonoid([(2,), (3,)], 1), False),
    "gapped": (lambda: AffineMonoid([(1, 0), (1, 2), (1, 3)], 2), False),
    "holed-square": (_holed_square_monoid, False),
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_MONOIDS))
def test_saturation_decomposes_nothing(name, monkeypatch):
    build, saturated = MEMBERSHIP_MONOIDS[name]
    witness = saturation_by_membership(build())

    def refuse(self, u):
        raise AssertionError("saturation tested membership")

    monkeypatch.setattr(AffineMonoid, "decompose", refuse)
    monkeypatch.setattr(AffineMonoid, "contains", refuse)
    assert build().saturation() == SaturationResult(saturated, witness)
    assert (witness is None) is saturated


@given(random_monoids())
def test_saturation_matches_the_membership_scan(mon):
    witness = saturation_by_membership(mon)
    assert mon.saturation() == SaturationResult(witness is None, witness)


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_MONOIDS))
def test_contains_matches_decompose_after_saturation(name, monkeypatch):
    build, saturated = MEMBERSHIP_MONOIDS[name]
    mon = build()
    assert mon.saturation().saturated is saturated
    if saturated:
        # a saturated monoid is weight_cone ∩ M: contains never decomposes
        def refuse(u):
            raise AssertionError("decompose called on a saturated monoid")
        monkeypatch.setattr(mon, "decompose", refuse)
    box = range(-6, 7)
    members = 0
    for u in product(box, repeat=mon.rank):
        expected = AffineMonoid.decompose(mon, u) is not None
        assert mon.contains(u) is expected, u
        members += expected
    assert members > 1


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_MONOIDS))
def test_ill_defined_roots_unchanged_by_saturation(name):
    build, saturated = MEMBERSHIP_MONOIDS[name]
    mon, fresh = build(), build()
    mon.saturation()
    outcomes = []
    for root in roots_in_box(mon.dual_cone, 3):
        ray = mon.dual_cone.rays[root.ray_index].entries
        ill = any(dot(ray, g.entries) > 0 and fresh.decompose(g + root.vector) is None
                  for g in fresh.generators)
        raised = []
        for monoid in (mon, fresh):
            try:
                HomogeneousLND(monoid, root)
                raised.append(False)
            except IllDefinedRoot:
                raised.append(True)
        assert raised == [ill, ill], root
        outcomes.append(ill)
    assert outcomes and any(outcomes) is not saturated


def test_relation_lattice(a2, quadric):
    assert quadric.face_relations(range(3))[0].entries == (1, -2, 1)
    assert len(quadric.face_relations(range(3))) == 1
    assert a2.face_relations(range(2)) == ()
    mon = AffineMonoid([(1, 0), (0, 1), (1, 1)], 2)
    assert [v.entries for v in mon.face_relations(range(3))] == [(1, 1, -1)]


def test_face_relations(quadric):
    curve = AffineMonoid([(1, 0), (1, 1), (1, 2), (1, 3)], 2)
    for mon in (quadric, curve):  # full support: generators span the rank
        n = len(mon.generators)
        assert len(mon.face_relations(range(n))) == n - mon.rank
    # the faces of cone((1,0),(1,3)): the origin, its two rays and itself
    assert curve.face_relations([]) == curve.face_relations([0]) == ()
    assert curve.face_relations([3]) == ()
    message = ("the nonzero coordinates [2, 3] are not the generators of a "
               "face of the weight cone")
    with pytest.raises(ValueError) as info:
        curve.face_relations([2, 3])
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        ToricPoint(curve, (0, 0, 1, 1), ("limit",))
    assert str(info.value) == message
    assert ToricPoint(curve, (0, 0, 0, 0), ("limit",)).coords == (0, 0, 0, 0)


def test_relations_annihilate_generators(quadric):
    cols = [g.entries for g in quadric.generators]
    for relation in quadric.face_relations(range(len(quadric.generators))):
        for i in range(quadric.rank):
            assert sum(k * c[i] for k, c in zip(relation.entries, cols)) == 0


def test_monoid_equality(a2):
    assert a2 == AffineMonoid([(1, 0), (0, 1)], 2)
    assert a2 != AffineMonoid([(0, 1), (1, 0)], 2)
    assert hash(a2) == hash(AffineMonoid([(1, 0), (0, 1)], 2))
