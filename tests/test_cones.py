import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricflow.cones
from toricflow import (
    Cone,
    LatticeVector,
    M_SIDE,
    N_SIDE,
    NotFullDimensional,
    NotPointed,
    RankLimitExceeded,
    dot,
    matrix_rank,
)
from toricflow.lattice import pivot_columns

from conftest import DUALITY_CONES, cone_fixture, fm_cone


def test_quadric_double_description():
    cone = cone_fixture("quadric")
    assert [r.entries for r in cone.rays] == [(0, 1), (2, -1)]
    assert [n.entries for n in cone.facet_normals] == [(1, 0), (1, 2)]
    dual = cone.dual()
    assert dual.side == M_SIDE
    assert [r.entries for r in dual.rays] == [(1, 0), (1, 2)]
    assert [n.entries for n in dual.facet_normals] == [(0, 1), (2, -1)]


def test_orthant_self_duality():
    for rank in (2, 3, 4):
        rays = [tuple(1 if i == j else 0 for j in range(rank))
                for i in range(rank)]
        cone = Cone.from_rays(rays, rank, N_SIDE)
        assert [r.entries for r in cone.rays] == sorted(rays)
        assert [n.entries for n in cone.facet_normals] == sorted(rays)


def test_redundant_and_scaled_rays_are_cleaned():
    cone = Cone.from_rays([(2, 0), (0, 3), (1, 1), (1, 0)], 2, N_SIDE)
    assert [r.entries for r in cone.rays] == [(0, 1), (1, 0)]


def test_not_pointed():
    with pytest.raises(NotPointed):
        Cone.from_rays([(1, 0), (-1, 0), (0, 1)], 2, N_SIDE)
    with pytest.raises(NotPointed):
        Cone.from_rays([(1, 1), (-1, -1)], 2, N_SIDE)


def test_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        Cone.from_rays([(1, 0)], 2, N_SIDE)
    with pytest.raises(NotFullDimensional):
        Cone.from_rays([(1, 0, 0), (0, 1, 0)], 3, N_SIDE)


def test_rank_limit():
    rays = [tuple(1 if i == j else 0 for j in range(5)) for i in range(5)]
    with pytest.raises(RankLimitExceeded):
        Cone.from_rays(rays, 5, N_SIDE)


def test_bad_inputs():
    with pytest.raises(ValueError):
        Cone.from_rays([], 2, N_SIDE)
    with pytest.raises(ValueError):
        Cone.from_rays([(0, 0), (1, 0)], 2, N_SIDE)
    with pytest.raises(ValueError):
        Cone.from_rays([(1, 0, 0)], 2, N_SIDE)
    with pytest.raises(ValueError):
        Cone.from_rays([(1, 0), (0, 1)], 2, "X")
    # a rank below 1 fails the ray length, the zero-vector or the empty-list check
    for rays in ([(1,)], [()], []):
        for rank in (0, -1):
            with pytest.raises(ValueError):
                Cone.from_rays(rays, rank, N_SIDE)


@pytest.mark.parametrize("name,rank,rays", DUALITY_CONES)
def test_dual_recomputed_from_scratch_agrees(name, rank, rays):
    # the dual is stored as a data swap; rebuilding it from its rays runs
    # double description a second time and must reproduce the same facets
    cone = Cone.from_rays(rays, rank, N_SIDE)
    dual = cone.dual()
    rebuilt = Cone.from_rays([r.entries for r in dual.rays], rank, M_SIDE)
    assert rebuilt.rays == dual.rays
    assert rebuilt.facet_normals == dual.facet_normals
    # and back again
    back = Cone.from_rays([r.entries for r in rebuilt.facet_normals], rank, N_SIDE)
    assert back.rays == cone.rays
    assert back.facet_normals == cone.facet_normals


@pytest.mark.parametrize("name,rank,rays", DUALITY_CONES)
def test_rays_pair_nonnegatively_with_dual_rays(name, rank, rays):
    cone = Cone.from_rays(rays, rank, N_SIDE)
    dual = cone.dual()
    for r in cone.rays:
        for s in dual.rays:
            assert sum(a * b for a, b in zip(r.entries, s.entries)) >= 0


@pytest.mark.parametrize("name,rank,rays", DUALITY_CONES)
def test_contains_rays_and_sums(name, rank, rays):
    cone = Cone.from_rays(rays, rank, N_SIDE)
    total = [0] * rank
    for r in cone.rays:
        assert cone.contains_tuple(r.entries)
        total = [a + b for a, b in zip(total, r.entries)]
    assert cone.contains_tuple(tuple(total))
    # pointedness: the negated ray sum leaves the cone
    assert not cone.contains_tuple(tuple(-x for x in total))


@pytest.mark.parametrize("name,rank,rays", DUALITY_CONES)
def test_facets_have_codimension_one(name, rank, rays):
    cone = Cone.from_rays(rays, rank, N_SIDE)
    facets = cone.facets()
    assert len(facets) == len(cone.facet_normals)
    for index, face in enumerate(facets):
        normal = cone.facet_normals[index].entries
        assert face.dim == rank - 1
        assert matrix_rank([r.entries for r in face.rays]) == rank - 1
        for r in face.rays:
            assert sum(a * b for a, b in zip(normal, r.entries)) == 0
        # rays off the facet pair strictly positively
        off = [r for r in cone.rays if r not in face.rays]
        for r in off:
            assert sum(a * b for a, b in zip(normal, r.entries)) > 0


def test_dual_is_involution():
    for name, rank, rays in DUALITY_CONES:
        cone = Cone.from_rays(rays, rank, N_SIDE)
        assert cone.dual().dual() == cone


def _outcome(build, rays, rank):
    try:
        return build(rays, rank)
    except (NotPointed, NotFullDimensional) as error:
        return type(error)


def _double_description(rays, rank):
    cone = Cone.from_rays(rays, rank, N_SIDE)
    return ([r.entries for r in cone.rays],
            [h.entries for h in cone.facet_normals])


@st.composite
def _small_cones(draw):
    """(rank, rays): a rank 1-4 cone on at most 8 nonzero rays with entries
    -3..3.  Most rays pair positively with a sign vector, so that many
    cones are pointed."""
    rank = draw(st.integers(1, 4))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=rank, max_size=rank))
    vector = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    pointed = vector.filter(lambda v: sum(a * b for a, b in zip(signs, v)) > 0)
    return rank, draw(st.lists(st.one_of(pointed, pointed, pointed, vector),
                               min_size=rank, max_size=8))


@settings(max_examples=300)
# no facet survives, so the facet masks that decide NotPointed are none at all
@example((1, [(1,), (-1,)]))
@example((2, [(1, 0), (-1, 0), (0, 1)]))
@example((3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, -1, 0)]))
@example((3, [(1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2), (1, 1, 1)]))
@example((4, [(1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, -1, -1, 1),
              (1, 1, 1, -1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, -1)]))
@given(_small_cones())
def test_from_rays_matches_fourier_motzkin(cone):
    rank, rays = cone
    assert (_outcome(_double_description, rays, rank)
            == _outcome(fm_cone, rays, rank))


@settings(max_examples=200)
@given(_small_cones())
def test_facets_are_cut_from_facet_defining_normals(cone):
    rank, rays = cone
    try:
        built = Cone.from_rays(rays, rank, N_SIDE)
    except (NotPointed, NotFullDimensional):
        return
    facets = built.facets()
    assert len(facets) == len(built.facet_normals)
    for normal, face in zip(built.facet_normals, facets):
        assert face.dim == rank - 1
        assert matrix_rank([r.entries for r in face.rays]) == rank - 1
        assert face.rays == tuple(r for r in built.rays
                                  if dot(normal.entries, r.entries) == 0)


def test_double_description_combines_only_adjacent_pairs():
    # A line plus the cone over a pentagon.  Every dual generator vanishes
    # on both directions of the line, so every pair shares rank - 2
    # incidences.  When (3, 1) arrives, only the third-facet test keeps the
    # square's opposite edges x = 0 and x = 2 from adding the redundant
    # generator (3, -1, 0, 0).
    pentagon = [(0, 0), (0, 2), (2, 0), (2, 2), (3, 1)]
    rays = sorted([(0, 0, 0, 1), (0, 0, 0, -1)] + [(1, x, y, 0) for x, y in pentagon])
    generators = toricflow.cones._double_description(
        rays, pivot_columns(list(zip(*rays))))
    assert sorted(h for h, _ in generators) == [
        (0, 0, 1, 0), (0, 1, 0, 0), (2, -1, 1, 0), (2, 0, -1, 0), (4, -1, -1, 0)]
    with pytest.raises(NotPointed):
        Cone.from_rays(rays, 4, N_SIDE)
