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
    roots_in_box,
    smallest_root_at_ray,
)
from toricflow import demazure

from conftest import (DUALITY_CONES, box_scan_roots, cone_fixture, root_growth_witness,
                      roots_by_point, slice_scan_roots, smallest_root_by_point)

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
    # a root is a character: an N-side vector is refused, not read as one,
    # while plain tuples and untagged vectors stay accepted
    with pytest.raises(ValueError, match="M-side"):
        is_root(sigma, LatticeVector((0, -1), N_SIDE))
    assert is_root(sigma, LatticeVector((0, -1))) == is_root(sigma, (0, -1))
    assert is_root(sigma, (0, -1)) == is_root(sigma, LatticeVector((0, -1), M_SIDE))


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
def pointed_cones(draw, entry=5):
    """Rank and rays of a pointed full-dimensional cone, with entries in
    -entry..entry: every ray pairs positively with a random sign vector, so
    the cone is pointed."""
    rank = draw(st.integers(1, 4))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * rank))
    ray = st.tuples(*[st.integers(-entry, entry)] * rank).filter(
        lambda r: sum(s * a for s, a in zip(signs, r)) > 0)
    return rank, draw(st.lists(ray, min_size=rank, max_size=rank + 2))


# Primitive rays with no entry of absolute value one, and negative entries,
# so that the lattice <p,e> = 0 has no basis of unit vectors and the
# rounded bounds meet both signs.
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


@pytest.mark.parametrize("name", [name for name, _, _ in DUALITY_CONES])
def test_roots_in_box_matches_scan_oracles(name):
    sigma = cone_fixture(name)
    for bound in range(5):
        got = _keys(roots_in_box(sigma, bound))
        assert got == slice_scan_roots(sigma, bound) == box_scan_roots(sigma, bound)


def _paraboloid_cone(r):
    """The rank-4 cone over (1, x, y, x^2 + y^2), |x|, |y| <= r: every one of
    its (2r+1)^2 rays is extreme, and each elimination step pairs hundreds
    of rows."""
    return Cone.from_rays([(1, x, y, x * x + y * y) for x in range(-r, r + 1)
                           for y in range(-r, r + 1)], 4, N_SIDE)


def test_roots_match_slice_scan_on_a_many_ray_cone():
    sigma = _paraboloid_cone(2)
    assert len(sigma.rays) == 25
    for bound in (2, 3):
        assert _keys(roots_in_box(sigma, bound)) == slice_scan_roots(sigma, bound)
    for index in range(len(sigma.rays)):
        root, box = smallest_root_at_ray(sigma, index)
        assert [(index, root.vector.entries)] == slice_scan_roots(sigma, box, index)[:1]
        if box > 5:
            assert slice_scan_roots(sigma, box // 2, index) == []


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
    (3, [(1, 0, 0), (1, 40, 0), (0, 0, 1)]),
], ids=[*("thin%d" % k for k in range(8, 57, 8)), "rank3", "rank3-thin40"])
def test_smallest_root_matches_doubling_box_scan(rank, rays):
    sigma = Cone.from_rays(rays, rank, N_SIDE)
    for index in range(len(sigma.rays)):
        root, box = smallest_root_at_ray(sigma, index)
        assert root.ray_index == index
        assert (root.vector.entries, box) == _doubling_oracle(sigma, index)


@example(cone=(3, [(2, 0, 3), (0, 3, 2), (-2, 3, 5), (3, -2, 4)]))
@example(cone=(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 2, 3)]))
@given(cone=pointed_cones())
def test_smallest_root_matches_doubling_box_scan_on_random_cones(cone):
    rank, rays = cone
    try:
        sigma = Cone.from_rays(rays, rank, N_SIDE)
    except NotFullDimensional:
        assume(False)
    found = [smallest_root_at_ray(sigma, index) for index in range(len(sigma.rays))]
    # keep the box scan fast: its rank-4 box at max-norm 20 holds 2.8M points
    assume(max(box for _, box in found) <= (10 if rank == 4 else 20))
    for index, (root, box) in enumerate(found):
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
    # at a ray of the orthant at box b the lift takes two steps of
    # elimination, two rows for each of 1 + (b+1) + (b+1)^2 intervals, one
    # step for each of (b+1) + (b+1)^2 inner values and five (itself and
    # four rays) for each of (b+1)^3 points: 324,924 steps at box 39, so
    # the fourth ray passes the cap of 1,000,000
    with pytest.raises(BoundExceeded, match="max-norm 39 reached 1000003 steps, "
                       "over ROOT_STEP_CAP = 1000000; lower --box"):
        roots_in_box(sigma, 39)
    # a count equal to the cap is allowed: 4 * 175 = 700 steps at box 2
    monkeypatch.setattr(demazure, "ROOT_STEP_CAP", 700)
    assert _keys(roots_in_box(sigma, 2)) == box_scan_roots(sigma, 2)
    assert len(roots_in_box(sigma, 3, ray_index=0)) == 4 ** 3
    with pytest.raises(BoundExceeded, match="max-norm 3 reached 702 steps"):
        roots_in_box(sigma, 3)
    monkeypatch.setattr(demazure, "ROOT_STEP_CAP", 699)
    with pytest.raises(BoundExceeded, match="max-norm 2 reached 700 steps"):
        roots_in_box(sigma, 2)


def test_step_cap_on_a_many_ray_cone(monkeypatch):
    # a point costs a step for each of the 49 rays and an interval one for
    # each of its rows, so the cap trips where a count of nodes would not
    sigma = _paraboloid_cone(3)
    with pytest.raises(BoundExceeded, match="max-norm 200 reached 1000036 steps"):
        roots_in_box(sigma, 200)
    # the first ray's elimination forms 542 rows, then 10,128, each step
    # charged before any of its rows is formed
    monkeypatch.setattr(demazure, "ROOT_STEP_CAP", 10_000)
    with pytest.raises(BoundExceeded, match="max-norm 5 reached 10670 steps"):
        roots_in_box(sigma, 5)
    with pytest.raises(BoundExceeded, match="reached 10670 steps"):
        smallest_root_at_ray(sigma, 0)


def test_smallest_root_checks_its_arguments():
    sigma = cone_fixture("quadric")
    for index in (-1, len(sigma.rays)):
        with pytest.raises(ValueError, match="ray index out of range"):
            smallest_root_at_ray(sigma, index)
        with pytest.raises(ValueError, match="ray index out of range"):
            roots_in_box(sigma, 2, ray_index=index)
    dual = sigma.dual()
    with pytest.raises(ValueError, match="N-side cone"):
        smallest_root_at_ray(dual, 0)
    with pytest.raises(ValueError, match="N-side cone"):
        roots_in_box(dual, 2)


def test_first_root_search_cap(monkeypatch):
    # the search at (1,400,0) spends three steps of elimination on each
    # empty box from 5 to 320, then ten at box 640
    sigma = Cone.from_rays([(1, 0, 0), (1, 400, 0), (0, 0, 1)], 3, N_SIDE)
    index = [r.entries for r in sigma.rays].index((1, 400, 0))
    monkeypatch.setattr(demazure, "ROOT_STEP_CAP", 31)
    assert smallest_root_at_ray(sigma, index)[1] == 640
    monkeypatch.setattr(demazure, "ROOT_STEP_CAP", 30)
    with pytest.raises(BoundExceeded) as info:
        smallest_root_at_ray(sigma, index)
    assert str(info.value) == ("the search for a root at ray (1, 400, 0) reached 31 "
                               "steps, over ROOT_STEP_CAP = 30; give fewer rays or "
                               "rays with smaller entries")
    # at (4,4,3) the search spends 18 steps on the empty box 5, then 29 at
    # box 10 down to the root (3,-7,5): the cap counts all 47, where a
    # count per box would stop at 29
    sigma = Cone.from_rays([(-1, 2, 4), (3, 2, 1), (4, 4, 3)], 3, N_SIDE)
    index = [r.entries for r in sigma.rays].index((4, 4, 3))
    monkeypatch.setattr(demazure, "ROOT_STEP_CAP", 47)
    root, box = smallest_root_at_ray(sigma, index)
    assert (root.vector.entries, box) == ((3, -7, 5), 10)
    monkeypatch.setattr(demazure, "ROOT_STEP_CAP", 46)
    with pytest.raises(BoundExceeded, match="reached 47 steps"):
        smallest_root_at_ray(sigma, index)


def _under_cap(cap, call):
    """call() with ROOT_STEP_CAP = cap, or the text of the BoundExceeded it
    raises."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(demazure, "ROOT_STEP_CAP", cap)
        try:
            return call()
        except BoundExceeded as error:
            return str(error)


def _random_cone(cone):
    rank, rays = cone
    try:
        return Cone.from_rays(rays, rank, N_SIDE)
    except NotFullDimensional:
        assume(False)


# The cap contract is the step at which a run trips ROOT_STEP_CAP, so the
# runs are held to the point-by-point lift step for step: at the oracle's
# count the enumeration passes; one below it, and at half of it, where a
# run may trip part way, both raise the same text.
@example(cone=(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]), bound=2)
@example(cone=(3, [(2, 0, 3), (0, 3, 2), (-2, 3, 3), (3, -2, 3)]), bound=3)
@example(cone=(1, [(1,)]), bound=0)
@given(cone=pointed_cones(entry=3), bound=st.integers(0, 4))
def test_roots_in_box_spends_the_steps_of_the_point_by_point_lift(cone, bound):
    sigma = _random_cone(cone)
    roots, steps = roots_by_point(sigma, bound)
    assert _under_cap(steps, lambda: _keys(roots_in_box(sigma, bound))) == roots
    for cap in (steps - 1, steps // 2):
        assert (_under_cap(cap, lambda: _keys(roots_in_box(sigma, bound)))
                == _under_cap(cap, lambda: roots_by_point(sigma, bound)[0]))


@example(cone=(3, [(-1, 2, 3), (3, 2, 1), (3, 3, 3)]))
@given(cone=pointed_cones(entry=3))
def test_first_root_search_spends_the_steps_of_the_point_by_point_search(cone):
    sigma = _random_cone(cone)
    for index in range(len(sigma.rays)):
        found, steps = smallest_root_by_point(sigma, index)

        def search():
            root, box = smallest_root_at_ray(sigma, index)
            return root.vector.entries, box
        assert _under_cap(steps, search) == found
        for cap in (steps - 1, steps // 2):
            assert (_under_cap(cap, search)
                    == _under_cap(cap, lambda: smallest_root_by_point(sigma, index)[0]))


@pytest.mark.parametrize("count, times", [(1, 4), (5, 1), (5, 3), (7, 6)])
def test_a_bulk_charge_stops_where_single_charges_would(count, times):
    def charge(cap, bulk):
        budget = demazure.StepBudget("a run", "; a remedy")
        budget.spend(20)

        def run():
            if bulk:
                budget.spend(count, times)
            else:
                for _ in range(times):
                    budget.spend(count)
        return _under_cap(cap, run), budget.spent

    # every cap from the run's first step to just past its last
    caps = range(20, 20 + count * times + 3)
    outcomes = [charge(cap, True) for cap in caps]
    assert outcomes == [charge(cap, False) for cap in caps]
    assert outcomes[0] == ("a run reached %d steps, over ROOT_STEP_CAP = 20; a remedy"
                           % (20 + count), 20 + count)
    assert outcomes[-1] == (None, 20 + count * times)
