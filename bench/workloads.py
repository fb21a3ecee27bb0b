"""Seeded inputs of the benchmark workloads, with their answers known by
construction.

The scene shapes are fixed; the seed draws only the torus-point rationals.
Every cone scene is the dual of a cone over a lattice polytope P placed at
height one, so the weight cone has rays (1, v) for the vertices v of P.  In
rank 2 and 3, P is a segment or polygon; those are normal, so the Hilbert
basis of the weight cone is exactly {(1, p) : p a lattice point of P}.
There are two exceptions.  The thin cones cone((1,0),(1,k)) of `flow-thin`
have the weight cone cone((0,1),(k,-1)), with the Hilbert basis (0,1),
(1,0), (k,-1).  The rank-4 scenes give the cone over P itself as cone_rays;
only their cones and roots are checked.

Nothing here imports toricflow: the expectations must not come from the
program under test.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd

# A spread of k for cone((1,0),(1,k)); the flow work grows about as k^2.
THIN_KS = (8, 16, 24, 32, 40, 48, 56)
# Primes of alike size: a torus coordinate p/q then has about the same
# number of digits whatever the seed, and so does the exact arithmetic.
PRIMES = (11, 13, 17, 19, 23)
# Sides n of the squares [0,n]^2 whose cones have (n+1)^2 Hilbert basis elements.
SQUARE_SIDES = (4, 7, 10, 13)


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@dataclass
class Scene:
    """One scene document plus what it is known to contain.

    generators: the weight-monoid generators in the program's order.
    sigma: the primitive rays of the N-side cone, lex-sorted as the program
    indexes them.  kinds: the grading kind of each subgroup.  saturated:
    whether the monoid is saturated.  vertices and points: the polytope's
    vertices and lattice points, when the scene is a polytope cone.
    facet_count: the number of facets of the primary cone, when known.
    """

    name: str
    doc: dict
    generators: list
    sigma: list
    kinds: dict = field(default_factory=dict)
    saturated: bool = True
    vertices: list = None
    points: list = None
    facet_count: int = None

    def text(self):
        return json.dumps(self.doc, sort_keys=True)

    def torus(self, point_name):
        return tuple(Fraction(x) for x in self.doc["points"][point_name]["torus"])

    def verdict(self, subgroup_name):
        if not self.saturated:
            return "NormalityRequired"
        kind = self.kinds[subgroup_name]
        return "pass" if kind == "Parabolic" else "NotParabolic(%s)" % kind


@dataclass
class Request:
    """One CLI call: the scene it reads and the arguments after --scene."""

    scene: Scene
    args: list
    fmt: str = "json"

    @property
    def command(self):
        return self.args[0]

    def argv(self, path):
        return ["--scene", path, "--format", self.fmt] + self.args

    @property
    def label(self):
        return "%s:%s" % (self.scene.name, " ".join(
            self.args + ([] if self.fmt == "json" else ["text"])))


def draw_rational(rng):
    """A rational +-p/q for distinct primes p, q in PRIMES."""
    p, q = rng.sample(PRIMES, 2)
    return str(Fraction(rng.choice((1, -1)) * p, q))


def draw_points(rng, rank, count):
    return {"p%d" % i: {"torus": [draw_rational(rng) for _ in range(rank)]}
            for i in range(count)}


def cone_normals(rays):
    """Inward primitive normals of the facets of cone(rays), for rank 2 rays
    or rank 3 rays in cyclic order around the cone."""
    rank = len(rays[0])
    if rank == 1:
        return [(1,)]
    if rank == 2:
        a, b = rays
        return [primitive((-a[1], a[0]) if dot((-a[1], a[0]), b) > 0
                          else (a[1], -a[0])) for a, b in ((a, b), (b, a))]
    normals = []
    count = len(rays)
    for i in range(count):
        a, b = rays[i], rays[(i + 1) % count]
        n = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        inside = rays[(i + 2) % count]
        if dot(n, inside) < 0:
            n = tuple(-x for x in n)
        normals.append(primitive(n))
    return normals


def lattice_points(vertices):
    """Lattice points of a segment or convex polygon, lex-sorted."""
    if len(vertices[0]) == 0:
        return [()]
    rays = [(1,) + tuple(v) for v in vertices]
    normals = cone_normals(rays)
    boxes = [range(min(v[j] for v in vertices), max(v[j] for v in vertices) + 1)
             for j in range(len(vertices[0]))]
    return [p for p in product(*boxes)
            if all(dot(n, (1,) + p) >= 0 for n in normals)]


def polytope_scene(name, vertices, rng, points=0, subgroups=(), monoid=None,
                   drop=()):
    """Scene of the cone over a lattice segment or polygon at height one.

    With monoid=None the scene gives cone_rays (the dual cone); otherwise it
    gives the lattice points as monoid generators in the order of the
    permutation `monoid`, leaving out the indices in `drop`, which must not
    be vertices.  subgroups are names among ray<i>, face<i>, inner and
    neg<i>: a ray of the N-side cone, the sum of two adjacent rays, the sum
    of all rays, or a negated ray.
    """
    rank = len(vertices[0]) + 1
    rays = [(1,) + tuple(v) for v in vertices]
    normals = cone_normals(rays)
    lattice = [(1,) + p for p in lattice_points(vertices)]
    doc = {"rank": rank}
    if monoid is None:
        doc["cone_rays"] = [list(n) for n in normals]
        generators = lattice
    else:
        generators = [lattice[i] for i in monoid if i not in drop]
        doc["monoid_generators"] = [list(g) for g in generators]
    sigma = sorted(set(normals))
    kinds = {}
    named = {}
    for sub in subgroups:
        if sub.startswith("ray"):
            vector, kind = sigma[int(sub[3:])], "Parabolic"
        elif sub.startswith("face"):
            # normals i and i+1 are the facets through the vertex i+1
            i = int(sub[4:])
            vector = tuple(a + b for a, b in zip(normals[i], normals[(i + 1) % len(normals)]))
            kind = "DegenerateNonnegative"
        elif sub == "inner":
            vector = tuple(sum(column) for column in zip(*normals))
            kind = "Elliptic"
        else:
            vector = tuple(-a for a in sigma[int(sub[3:])])
            kind = "Hyperbolic"
        named[sub] = list(vector)
        kinds[sub] = kind
    if named:
        doc["subgroups"] = named
    if points:
        doc["points"] = draw_points(rng, rank, points)
    return Scene(name, doc, generators, sigma, kinds, saturated=not drop,
                 vertices=[tuple(v) for v in vertices],
                 points=[p[1:] for p in lattice], facet_count=len(vertices))


def thin_scene(k, rng):
    doc = {"rank": 2, "cone_rays": [[1, 0], [1, k]],
           "points": draw_points(rng, 2, 2),
           "subgroups": {"near": [1, 0], "wide": [1, k]}}
    return Scene("thin%d" % k, doc, [(0, 1), (1, 0), (k, -1)], [(1, 0), (1, k)],
                 {"near": "Parabolic", "wide": "Parabolic"})


def rank4_scene(name, rays, facet_count, rng):
    doc = {"rank": 4, "cone_rays": [list(r) for r in rays],
           "points": draw_points(rng, 4, 1)}
    return Scene(name, doc, None, sorted(primitive(r) for r in rays),
                 facet_count=facet_count)


def lifted(vertices):
    return [(1,) + tuple(v) for v in vertices]


# Every workload has an odd number of requests, so that the median of the
# pooled samples falls inside one request's samples and not in the gap
# between two requests of different size, where it would jump between them.
def flow_thin(rng):
    requests = []
    for k in THIN_KS:
        scene = thin_scene(k, rng)
        for sub, point in (("near", "p0"), ("wide", "p0"), ("wide", "p1")):
            requests.append(Request(scene, ["verify", "--l", sub, "--point", point]))
    return requests


def report_corpus(rng):
    segment = [(0,), (3,)]
    triangle = [(0, 0), (2, 0), (0, 2)]
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    hexagon = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
    square2 = [(0, 0), (2, 0), (2, 2), (0, 2)]
    scenes = [
        polytope_scene("line", [()], rng, 2, ("ray0", "neg0")),
        polytope_scene("segment", segment, rng, 2, ("ray0", "ray1", "inner", "neg1")),
        polytope_scene("segment-shifted", [(-2,), (1,)], rng, 2, ("ray0", "ray1", "inner")),
        polytope_scene("triangle", triangle, rng, 2,
                       ("ray0", "ray1", "ray2", "face0", "inner", "neg0")),
        polytope_scene("square", square, rng, 2, ("ray0", "ray1", "face1", "inner")),
        polytope_scene("hexagon", hexagon, rng, 1, ("ray0", "face2", "inner", "neg3")),
        polytope_scene("quadric-monoid", [(0,), (2,)], rng, 2,
                       ("ray0", "ray1", "inner"), monoid=(2, 0, 1)),
        polytope_scene("cusp-monoid", segment, rng, 2, ("ray0", "inner", "neg1"),
                       monoid=(0, 1, 2, 3), drop=(1,)),
        polytope_scene("triangle-monoid", triangle, rng, 2,
                       ("ray0", "ray1", "face2", "inner"), monoid=(5, 3, 0, 4, 1, 2)),
        polytope_scene("holed-square-monoid", square2, rng, 2, ("ray0", "inner"),
                       monoid=tuple(range(9)), drop=(4,)),
    ]
    requests = [Request(scene, ["report"]) for scene in scenes]
    for i in (1, 3, 5, 7):
        requests.append(Request(scenes[i], ["report"], fmt="text"))
    orthant = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    tilted = orthant[:3] + [(1, 1, 1, 2)]
    cube = lifted(product((0, 1), repeat=3))
    requests += [
        Request(rank4_scene("orthant4", orthant, 4, rng), ["roots", "--box", "3"]),
        Request(rank4_scene("tilted4", tilted, 4, rng), ["roots", "--box", "3", "--ray", "3"]),
        Request(rank4_scene("cube4", cube, 6, rng), ["roots", "--box", "2"]),
    ]
    return requests


def hilbert_dual(rng):
    requests = []
    for n in SQUARE_SIDES:
        square = [(0, 0), (n, 0), (n, n), (0, n)]
        requests.append(Request(polytope_scene("square%d" % n, square, rng, 1), ["hilbert"]))
    polygons = [
        ("triangle12", [(0, 0), (12, 0), (0, 12)]),
        ("hexagon9", [(0, 0), (5, 0), (9, 4), (9, 9), (4, 9), (0, 5)]),
        ("quad11", [(0, 0), (11, 2), (8, 9), (1, 6)]),
    ]
    for name, vertices in polygons:
        scene = polytope_scene(name, vertices, rng, 1)
        requests += [Request(scene, ["hilbert"]), Request(scene, ["dual"]),
                     Request(scene, ["facets"])]
    cube = lifted(product((0, 1), repeat=3))
    cross = lifted([tuple(s * int(i == j) for j in range(3))
                    for i in range(3) for s in (1, -1)])
    prism = lifted([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)])
    cyclic = [lifted([(t, t * t, t ** 3) for t in range(n)]) for n in (6, 8)]
    for name, rays, facets in [("cube", cube, 6), ("cross", cross, 8),
                               ("prism", prism, 5), ("cyclic6", cyclic[0], 8),
                               ("cyclic8", cyclic[1], 12)]:
        scene = rank4_scene(name, rays, facets, rng)
        requests += [Request(scene, ["dual"]), Request(scene, ["facets"])]
    return requests


WORKLOADS = {
    "flow-thin": flow_thin,
    "report-corpus": report_corpus,
    "hilbert-dual": hilbert_dual,
}


def build(workload, seed):
    """The workload's requests; the same seed gives the same inputs."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
