import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import HealthCheck, settings

from toricflow import (AffineMonoid, AlgebraElement, Cone, HomogeneousLND,
                       LatticeVector, M_SIDE, N_SIDE, evaluate)

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


# Double-description fixtures: (name, rank, rays).  All pointed and
# full-dimensional, mostly rank 2 and 3 with two rank-4 entries.
DUALITY_CONES = [
    ("quadrant", 2, [(1, 0), (0, 1)]),
    ("quadric", 2, [(0, 1), (2, -1)]),
    ("wide", 2, [(0, 1), (3, 1)]),
    ("skew", 2, [(1, 2), (2, -1)]),
    ("thin", 2, [(1, 5), (1, -5)]),
    ("octant", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ("square", 3, [(1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2)]),
    ("tilted", 3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)]),
    ("pentagon", 3, [(2, 0, 1), (0, 2, 1), (-2, 0, 1), (0, -2, 1), (2, 2, 1)]),
    ("orthant4", 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    ("cube4", 4, [(1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, -1, -1, 1),
                  (1, 1, 1, -1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, -1)]),
]


def cone_fixture(name):
    for fix_name, rank, rays in DUALITY_CONES:
        if fix_name == name:
            return Cone.from_rays(rays, rank, N_SIDE)
    raise KeyError(name)


# Flow oracles: the iterated derivation series that the closed forms in
# HomogeneousLND.exp_flow and ga_flow_point replace.
_ORACLE_STEP_CAP = 10_000


def derivation_powers(lnd, f):
    """f, d f, d^2 f, ... up to the last nonzero power, by repeated apply."""
    powers = []
    while not f.is_zero:
        assert len(powers) < _ORACLE_STEP_CAP, "derivation is not nilpotent"
        powers.append(f)
        f = lnd.apply(f)
    return powers


def iterated_exp_flow(lnd, s, f):
    """exp(s*d) f as the series sum_k s^k/k! d^k f."""
    s = Fraction(s)
    total = AlgebraElement.zero(f.monoid)
    for k, power in enumerate(derivation_powers(lnd, f)):
        total = total + power * (s ** k / factorial(k))
    return total


def pullback_flow_coords(lnd, s, point):
    """Flowed coordinates by pullback: each generator's iterated flow,
    evaluated at the point."""
    mon = lnd.monoid
    return tuple(evaluate(iterated_exp_flow(lnd, s, AlgebraElement.monomial(mon, g)),
                          point)
                 for g in mon.generators)


# Rank-2 flow fixtures, (generators, root): the quadric and a2 at low
# degree, and the weight monoid of the thin cone cone((1,0),(1,50)) with a
# root at the ray (1,50), where chi^(0,1) has degree 50.
FLOW_CASES = {
    "quadric": ([(1, 0), (1, 1), (1, 2)], (0, -1)),
    "a2": ([(1, 0), (0, 1)], (-1, 0)),
    "thin50": ([(0, 1), (1, 0), (50, -1)], (49, -1)),
}


def flow_case(name):
    generators, root = FLOW_CASES[name]
    mon = AffineMonoid(generators, 2)
    return mon, HomogeneousLND(mon, LatticeVector(root, M_SIDE))


@pytest.fixture
def line():
    return AffineMonoid([(1,)], 1)


@pytest.fixture
def a2():
    return AffineMonoid([(1, 0), (0, 1)], 2)


@pytest.fixture
def a3():
    return AffineMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)


@pytest.fixture
def quadric():
    # weight monoid of the quadric cone xz = y^2: Hilbert basis of the
    # dual of cone((0,1),(2,-1))
    return AffineMonoid([(1, 0), (1, 1), (1, 2)], 2)


@pytest.fixture
def cusp():
    return AffineMonoid([(2,), (3,)], 1)


QUADRIC_SCENE = {
    "rank": 2,
    "cone_rays": [[0, 1], [2, -1]],
    "points": {"p": {"torus": [3, 2]}},
    "subgroups": {"vertical": [0, 1]},
}

A2_SCENE = {
    "rank": 2,
    "monoid_generators": [[1, 0], [0, 1]],
    "points": {"x": {"torus": [2, 5]}},
    "subgroups": {"l": [1, 0]},
}

CUSP_SCENE = {
    "rank": 1,
    "monoid_generators": [[2], [3]],
    "points": {"p": {"torus": [2]}},
    "subgroups": {"l": [1]},
}


@pytest.fixture
def quadric_scene_path(tmp_path):
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps(QUADRIC_SCENE))
    return str(path)


@pytest.fixture
def a2_scene_path(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2_SCENE))
    return str(path)


@pytest.fixture
def cusp_scene_path(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(CUSP_SCENE))
    return str(path)
