import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from toricflow import (
    BoundExceeded,
    Cone,
    DemazureRoot,
    LatticeVector,
    M_SIDE,
    N_SIDE,
    NotFullDimensional,
    is_root,
    root_growth_witness,
    roots_in_box,
    smallest_root_at_ray,
)
from toricflow import demazure

from conftest import box_scan_roots, cone_fixture

ROOT_CONES = ["quadrant", "quadric", "wide", "octant", "square"]


def test_is_root_a2():
    sigma = cone_fixture("quadrant")
    # sigma rays sort to [(0,1),(1,0)]
    root = is_root(sigma, (-1, 0))
    assert root is not None
    assert root.ray_index == 1
    assert root.vector.side == M_SIDE
    assert is_root(sigma, (-1, 2)).ray_index == 1
    assert is_root(sigma, (0, -1)).ray_index == 0
    assert is_root(sigma, (-1, -1)) is None
    assert is_root(sigma, (0, 0)) is None
    assert is_root(sigma, (1, 1)) is None
    assert is_root(sigma, (-2, 0)) is None


def test_is_root_quadric():
    sigma = cone_fixture("quadric")
    root = is_root(sigma, (2, -1))
    assert root is not None and root.ray_index == 0
    root = is_root(sigma, (0, -1))
    assert root is not None and root.ray_index == 0
    # pairs to -1 with both rays at once: not a root
    assert is_root(sigma, LatticeVector((-1, -1), M_SIDE)) is None


def test_is_root_validation():
    sigma = cone_fixture("quadrant")
    with pytest.raises(ValueError):
        is_root(sigma.dual(), (-1, 0))
    with pytest.raises(ValueError):
        is_root(sigma, (-1, 0, 0))


@pytest.mark.parametrize("name", ROOT_CONES)
@pytest.mark.parametrize("bound", [3, 5])
def test_enumerator_matches_definition_filter(name, bound):
    sigma = cone_fixture(name)
    got = {(r.ray_index, r.vector.entries) for r in roots_in_box(sigma, bound)}
    assert got == set(box_scan_roots(sigma, bound))


def test_a2_box5_count_is_twelve():
    roots = roots_in_box(cone_fixture("quadrant"), 5)
    assert len(roots) == 12
    per_ray = [sum(1 for r in roots if r.ray_index == i) for i in (0, 1)]
    assert per_ray == [6, 6]


def test_quadric_box5_count():
    roots = roots_in_box(cone_fixture("quadric"), 5)
    assert [(r.ray_index, r.vector.entries) for r in roots] == [
        (0, (0, -1)), (0, (1, -1)), (0, (2, -1)), (0, (3, -1)),
        (0, (4, -1)), (0, (5, -1)),
        (1, (0, 1)), (1, (1, 3)), (1, (2, 5)),
    ]


def test_output_is_sorted_by_ray_then_lex():
    for name in ROOT_CONES:
        roots = roots_in_box(cone_fixture(name), 4)
        keys = [(r.ray_index, r.vector.entries) for r in roots]
        assert keys == sorted(keys)


def test_ray_filter_consistency():
    sigma = cone_fixture("square")
    everything = roots_in_box(sigma, 3)
    for index in range(len(sigma.rays)):
        filtered = roots_in_box(sigma, 3, ray_index=index)
        assert filtered == [r for r in everything if r.ray_index == index]


def test_ray_filter_validation():
    sigma = cone_fixture("quadrant")
    with pytest.raises(ValueError):
        roots_in_box(sigma, 3, ray_index=2)
    with pytest.raises(ValueError):
        roots_in_box(sigma, -1)


def test_growth_witness_strictly_increases():
    for name in ROOT_CONES:
        sigma = cone_fixture(name)
        for index in range(len(sigma.rays)):
            small, large = root_growth_witness(sigma, index, 5, 10)
            assert small < large


def test_growth_witness_rank_one():
    from toricflow import Cone, N_SIDE
    ray = Cone.from_rays([(1,)], 1, N_SIDE)
    assert len(roots_in_box(ray, 5)) == 1
    with pytest.raises(ValueError):
        root_growth_witness(ray, 0, 5, 10)


def test_growth_witness_box_order():
    with pytest.raises(ValueError):
        root_growth_witness(cone_fixture("quadrant"), 0, 5, 5)


def _keys(roots):
    return [(r.ray_index, r.vector.entries) for r in roots]


@st.composite
def pointed_cones(draw):
    """Rank and rays of a pointed full-dimensional cone: every ray pairs
    positively with a random sign vector, so the cone is pointed."""
    rank = draw(st.integers(1, 4))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * rank))
    ray = st.tuples(*[st.integers(-5, 5)] * rank).filter(
        lambda r: sum(s * a for s, a in zip(signs, r)) > 0)
    return rank, draw(st.lists(ray, min_size=rank, max_size=rank + 2))


# Primitive rays with no entry of absolute value one, and negative entries,
# so that the pivot division is often inexact and divmod meets both signs.
@example(cone=(2, [(2, 3), (3, -2)]), bound=4)
@example(cone=(2, [(-2, -5), (3, -4)]), bound=4)
@example(cone=(3, [(2, 0, 3), (0, 3, 2), (-2, 3, 5), (3, -2, 4)]), bound=3)
@given(cone=pointed_cones(), bound=st.integers(0, 4))
def test_slice_enumeration_matches_box_scan(cone, bound):
    rank, rays = cone
    try:
        sigma = Cone.from_rays(rays, rank, N_SIDE)
    except NotFullDimensional:
        assume(False)
    assert _keys(roots_in_box(sigma, bound)) == box_scan_roots(sigma, bound)
    for index in range(len(sigma.rays)):
        assert (_keys(roots_in_box(sigma, bound, ray_index=index))
                == box_scan_roots(sigma, bound, index))


def _doubling_oracle(sigma, ray_index):
    box = 5
    while True:
        roots = box_scan_roots(sigma, box, ray_index)
        if roots:
            return roots[0][1], box
        box *= 2


@pytest.mark.parametrize("rank, rays", [
    *((2, [(1, 0), (1, k)]) for k in range(8, 57, 8)),
    (3, [(1, 0, 0), (0, 1, 0), (1, 2, 24)]),
], ids=[*("thin%d" % k for k in range(8, 57, 8)), "rank3"])
def test_smallest_root_matches_doubling_box_scan(rank, rays):
    sigma = Cone.from_rays(rays, rank, N_SIDE)
    for index in range(len(sigma.rays)):
        root, box = smallest_root_at_ray(sigma, index)
        assert root.ray_index == index
        assert (root.vector.entries, box) == _doubling_oracle(sigma, index)


def test_smallest_root_on_thin_cone_600():
    sigma = Cone.from_rays([(1, 0), (1, 600)], 2, N_SIDE)
    assert sigma.rays[1].entries == (1, 600)
    root, box = smallest_root_at_ray(sigma, 1)
    assert root.vector.entries == (599, -1)
    assert box == 640


def test_root_point_cap(monkeypatch):
    sigma = cone_fixture("orthant4")
    # box 31 needs 4 * 63^3 = 1,000,188 slice points
    with pytest.raises(BoundExceeded, match="1000188 slice points, over the cap of 1000000"):
        roots_in_box(sigma, 31)
    # a count equal to the cap is allowed; 4 * 5^3 = 500 points at box 2
    monkeypatch.setattr(demazure, "ROOT_POINT_CAP", 500)
    assert len(roots_in_box(sigma, 2)) == len(box_scan_roots(sigma, 2))
    assert len(roots_in_box(sigma, 3, ray_index=0)) == 4 ** 3
    with pytest.raises(BoundExceeded):
        roots_in_box(sigma, 3)
