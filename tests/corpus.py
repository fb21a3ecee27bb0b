"""The contract corpus: a fixed list of command-line runs and what each
one printed.

The contract of the command line is its output bytes and exit codes.
`runs()` builds a fixed list of (scene, argv) pairs from named scenes and
from seeded random ones; `outcome` runs one pair in-process through
`cli.main` with the scene on stdin; corpus.json records, for each run,
its exit code, the SHA-256 of its stdout and its stderr.  A run that
argparse ends (a usage error, --help) records only its exit code, since
argparse words its messages differently across Python versions.  The
table also records the SHA-256 of each scene's text, so that a scene that
changes cannot pass as an output that moved.

tests/test_corpus.py replays the table.  A change that moves an output on
purpose regenerates it:

    PYTHONPATH=src python3 tests/corpus.py

and lists each moved run, which the table's diff shows.
"""

import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

from toricflow.cli import main

from conftest import A2_SCENE, CUSP_SCENE, QUADRIC_SCENE, RANK3_SCENE

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")
SEED = "contract corpus"
FORMATS = ("--format=json", "--format=text")
RANDOM_SCENES = 96
RANDOM_CONE9_SCENES = 8


def digest(text):
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(v):
    g = 0
    for x in v:
        while x:
            g, x = x, g % x
    g = abs(g)
    return [x // g for x in v]


def _polygon_normals(vertices):
    """Inward primitive facet normals of the cone over a convex lattice
    polygon at height one, its vertices in cyclic order."""
    rays = [(1,) + tuple(v) for v in vertices]
    normals = []
    for i, a in enumerate(rays):
        b, inside = rays[(i + 1) % len(rays)], rays[(i + 2) % len(rays)]
        n = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        normals.append(_primitive(n if _dot(n, inside) > 0 else [-x for x in n]))
    return normals


def _grading_names(rays):
    """Named subgroups of a cone: its first two rays (parabolic), their sum,
    the sum of all rays and the first ray negated."""
    rays = [list(r) for r in rays]
    names = {"ray0": rays[0], "ray1": rays[1 % len(rays)],
             "inner": [sum(c) for c in zip(*rays)], "neg0": [-x for x in rays[0]]}
    if len(rays) > 1:
        names["face"] = [a + b for a, b in zip(rays[0], rays[1])]
    return {name: v for name, v in names.items() if any(v)}


_POINTS2 = {"p": {"torus": ["2", "-1/3"]}, "q": {"torus": ["-5/7", "3"]}}
_POINTS3 = {"p": {"torus": ["2", "1/3", "-1"]}, "q": {"torus": ["-1", "5", "-7/2"]}}
_POINTS4 = {"p": {"torus": ["2", "-1/3", "5", "3/7"]}}
_POLYGONS = {
    "triangle": [(0, 0), (2, 0), (0, 2)],
    "square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "hexagon": [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
    "square4": [(0, 0), (4, 0), (4, 4), (0, 4)],
    "triangle12": [(0, 0), (12, 0), (0, 12)],
    "hexagon9": [(0, 0), (5, 0), (9, 4), (9, 9), (4, 9), (0, 5)],
    "quad11": [(0, 0), (11, 2), (8, 9), (1, 6)],
}
_CUBE = [[1, a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
_RANK4 = {
    "orthant4": [[int(i == j) for j in range(4)] for i in range(4)],
    "tilted4": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 2]],
    "cube4": _CUBE,
    "cross4": [[1] + [s * int(i == j) for j in range(3)] for i in range(3) for s in (1, -1)],
    "prism4": [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [1, 1, 0, 1],
               [1, 0, 1, 1]],
    "cyclic6": [[1, t, t * t, t ** 3] for t in range(6)],
}


def _fixed_scenes():
    """name -> scene dict: the golden scenes, the workload shapes and the
    scenes at the walls."""
    scenes = {"quadric": QUADRIC_SCENE, "a2": A2_SCENE, "cusp": CUSP_SCENE, "rank3": RANK3_SCENE,
              "line": {"rank": 1, "cone_rays": [[1]], "points": {"p": {"torus": ["-3/2"]}},
                       "subgroups": {"up": [1], "down": [-1]}}}
    segment = [[0, 1], [3, -1]]  # the cone over the segment [0, 3]
    scenes["segment"] = {"rank": 2, "cone_rays": segment, "points": _POINTS2,
                         "subgroups": _grading_names(segment)}
    for k in (8, 40):
        scenes["thin%d" % k] = {"rank": 2, "cone_rays": [[1, 0], [1, k]], "points": _POINTS2,
                                "subgroups": {"near": [1, 0], "wide": [1, k]}}
    for name, vertices in _POLYGONS.items():
        normals = _polygon_normals(vertices)
        scenes[name] = {"rank": 3, "cone_rays": normals, "points": _POINTS3,
                        "subgroups": _grading_names(normals)}
    # monoid scenes in the workload's shapes: the generators of a weight
    # cone in a mixed order, some with a generator dropped
    scenes["quadric-monoid"] = {"rank": 2, "monoid_generators": [[1, 2], [1, 0], [1, 1]],
                                "points": _POINTS2, "subgroups": _grading_names(segment)}
    scenes["cusp-monoid"] = {"rank": 2, "monoid_generators": [[1, 0], [1, 2], [1, 3]],
                             "points": _POINTS2, "subgroups": _grading_names(segment)}
    scenes["triangle-monoid"] = {
        "rank": 3, "monoid_generators": [[1, 2, 0], [1, 1, 0], [1, 0, 0], [1, 1, 1], [1, 0, 1],
                                         [1, 0, 2]],
        "points": _POINTS3, "subgroups": _grading_names(_polygon_normals(_POLYGONS["triangle"]))}
    scenes["holed-square-monoid"] = {
        "rank": 3, "monoid_generators": [[1, x, y] for x in range(3) for y in range(3)
                                         if (x, y) != (1, 1)],
        "points": _POINTS3, "subgroups": {"ray0": [0, 1, 0], "inner": [4, 0, 0]}}
    for name, rays in _RANK4.items():
        scenes[name] = {"rank": 4, "cone_rays": rays, "points": _POINTS4,
                        "subgroups": _grading_names(rays)}
    # a monoid with a hole at (0, 1), and a saturated one that decomposes
    # each shifted generator, as lnd never runs its saturation check
    scenes["holed"] = {"rank": 2, "monoid_generators": [[1, 0], [0, 2], [0, 3], [1, 1]],
                       "points": _POINTS2, "subgroups": {"l": [1, 0], "m": [0, 1]}}
    scenes["saturated"] = {"rank": 2, "monoid_generators": [[1, 0], [1, 1], [1, 2]],
                           "points": _POINTS2, "subgroups": {"l": [0, 1], "m": [2, -1]}}
    # th3 = cone((1,0,0),(0,1,0),(1,1,k)): its weight cone's basis has k + 4
    # elements, under HILBERT_CANDIDATE_CAP at k = 300 and over it at 1000
    for k in (300, 1000):
        scenes["th3-%d" % k] = {"rank": 3, "cone_rays": [[1, 0, 0], [0, 1, 0], [1, 1, k]],
                                "points": {"p": {"torus": [1, 2, 3]}},
                                "subgroups": {"par": [1, 0, 0], "hyp": [1, 1, -1]}}
    # thin cones with entries up to 10^9: a basis of three elements, powers
    # past POWER_BIT_CAP at (2, 3) and powers of one at (1, -1)
    scenes["thin9"] = {"rank": 2, "cone_rays": [[1, 0], [1, 10**9]],
                       "points": {"p": {"torus": ["2", "3"]}, "one": {"torus": ["1", "-1"]}},
                       "subgroups": {"near": [1, 0], "wide": [1, 10**9]}}
    scenes["power-monoid"] = {"rank": 2, "monoid_generators": [[1, 0], [10**8, 1]],
                              "points": {"p": {"torus": ["2", "3"]}},
                              "subgroups": {"near": [0, 1]}}
    # a weight cone of 10^9 basis elements: the walk's count passes its cap
    scenes["walk9"] = {"rank": 2, "cone_rays": [[0, 1], [10**9 - 1, -10**9]]}
    # cone((1,0,0),(1,400,0),(0,0,1)): the first root at (1,400,0) is in box 640
    scenes["thin3-400"] = {"rank": 3, "cone_rays": [[1, 0, 0], [1, 400, 0], [0, 0, 1]],
                           "points": {"p": {"torus": ["2", "3", "5"]}},
                           "subgroups": {"l": [1, 400, 0]}}
    scenes["wide3"] = {"rank": 3, "cone_rays": [[-344, -869, 3], [676, 1, -1], [3, 0, 0]],
                       "points": {"p": {"torus": [1, 2, 3]}}}
    # a flow whose output has over 4,300 digits, the default int->str limit
    scenes["digits"] = {"rank": 2, "cone_rays": [[1, 0], [1, 40]],
                        "points": {"p": {"torus": ["12345678901234567/3", "98765432109876543/7"]}}}
    scenes["surrogate"] = {"rank": 2, "cone_rays": [[0, 1], [2, -1]],
                           "points": {"\ud800": {"torus": [3, 2]}},
                           "subgroups": {"\udfff": [0, 1]}}
    scenes["rank5"] = {"rank": 5, "cone_rays": [[int(i == j) for j in range(5)] for i in range(5)],
                       "points": {"p": {"torus": [1, 2, 3, 4, 5]}},
                       "subgroups": {"l": [1, 0, 0, 0, 0]}}
    # the cones over (1, x, y, x^2 + y^2) for |x|, |y| <= 3 and 4: 49 and 81
    # rays, whose roots scan at box 1 exits 0 and passes ROOT_STEP_CAP
    for n in (3, 4):
        scenes["paraboloid%d" % (2 * n + 1) ** 2] = {
            "rank": 4, "cone_rays": [[1, x, y, x * x + y * y] for x in range(-n, n + 1)
                                     for y in range(-n, n + 1)]}
    scenes["pentagon"] = {"rank": 3, "cone_rays": [[2, 0, 1], [0, 2, 1], [-2, 0, 1], [0, -2, 1],
                                                   [1, 1, 1]]}
    scenes["not-pointed"] = {"rank": 2, "cone_rays": [[1, 0], [-1, 0], [0, 1]]}
    scenes["low-dim"] = {"rank": 2, "cone_rays": [[1, 0]]}
    scenes["not-effective"] = {"rank": 2, "monoid_generators": [[2, 0], [0, 1]],
                               "points": {"p": {"torus": [2, 3]}}, "subgroups": {"l": [1, 0]}}
    return scenes


# Scene texts that fail to load: each exits 2 before any subcommand runs.
_BAD_SCENES = {
    "empty": "",
    "not-json": "not json",
    "array": "[]",
    "no-rank": '{"cone_rays": [[1]]}',
    "rank-zero": '{"rank": 0, "cone_rays": [[1]]}',
    "rank-bool": '{"rank": true, "cone_rays": [[1]]}',
    "both-lists": '{"rank": 1, "cone_rays": [[1]], "monoid_generators": [[1]]}',
    "unknown-key": '{"rank": 1, "cone_rays": [[1]], "colour": "red"}',
    "empty-list": '{"rank": 1, "cone_rays": []}',
    "zero-ray": '{"rank": 2, "cone_rays": [[1, 0], [0, 0]]}',
    "short-ray": '{"rank": 2, "cone_rays": [[1, 0], [1]]}',
    "bool-entry": '{"rank": 2, "cone_rays": [[1, 0], [true, 1]]}',
    "float-entry": '{"rank": 2, "cone_rays": [[1, 0], [1.5, 1]]}',
    "repeated-generator": '{"rank": 2, "monoid_generators": [[1, 0], [0, 1], [1, 0]]}',
    "points-list": '{"rank": 1, "cone_rays": [[1]], "points": []}',
    "point-shape": '{"rank": 1, "cone_rays": [[1]], "points": {"p": [1]}}',
    "point-length": '{"rank": 2, "cone_rays": [[1, 0], [0, 1]], "points": {"p": {"torus": [1]}}}',
    "point-zero": '{"rank": 1, "cone_rays": [[1]], "points": {"p": {"torus": [0]}}}',
    "point-float": '{"rank": 1, "cone_rays": [[1]], "points": {"p": {"torus": ["1e9"]}}}',
    "point-underscore": '{"rank": 1, "cone_rays": [[1]], "points": {"p": {"torus": ["1_0"]}}}',
    "point-over-zero": '{"rank": 1, "cone_rays": [[1]], "points": {"p": {"torus": ["1/0"]}}}',
    "point-number": '{"rank": 1, "cone_rays": [[1]], "points": {"p": {"torus": [1.5]}}}',
    "subgroups-list": '{"rank": 1, "cone_rays": [[1]], "subgroups": []}',
    "subgroup-zero": '{"rank": 1, "cone_rays": [[1]], "subgroups": {"l": [0]}}',
    "subgroup-length": '{"rank": 1, "cone_rays": [[1]], "subgroups": {"l": [1, 0]}}',
    "long-name": json.dumps({"rank": 1, "cone_rays": [[1]],
                             "points": {"p" * 500: {"torus": [0]}}}),
    "raw-surrogate": '{"rank": 1, "cone_rays": [[1]], "points": {"\ud800": {"torus": [1]}}}',
}

# argv that argparse ends, before any scene is read
_USAGE = [[], ["--help"], ["verify", "--help"], ["nope"], ["--format=xml", "dual"],
          ["verify", "--point=p"], ["lnd"], ["roots", "--box=x"], ["roots", "--ray=1.5"],
          ["dual", "--box=1"]]

# --root and --l values whose comma parts are not plain ASCII integers
_ODD_INTEGERS = ["0_0,-1", " 0,-1", "0,-1 ", "０,-1", "+0,-1", "0,,-1", "0,-1,", "0x0,-1",
                 "", "0,-١"]


def _random_rational(rng):
    return rng.choice(["1", "-1", "2", "-3", "1/2", "-7/3", "5/4", "-2/9"])


def _random_vector(rng, rank, high=3):
    while True:
        v = [rng.randint(-high, high) for _ in range(rank)]
        if any(v):
            return v


def _random_scene(rng, key, rank):
    """A scene of the rank with entries up to 3 (2 in rank 4): most of its
    vectors pair positively with a sign vector, so that most scenes are
    pointed, and most generator lists hold a signed unit basis, so that
    most monoids generate the lattice."""
    high = 2 if rank == 4 else 3
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    vectors, count = [], rng.randint(rank, rank + 2)
    if key == "monoid_generators" and rng.random() < 0.75:
        vectors = [[s * int(i == j) for j in range(rank)] for i, s in enumerate(signs)]
        rng.shuffle(vectors)
        count -= rng.randint(0, rank)
    while len(vectors) < count:
        v = _random_vector(rng, rank, high)
        if (rng.random() < 0.2 or _dot(signs, v) > 0) and v not in vectors:
            vectors.append(v)
    subgroups = {"l": _random_vector(rng, rank)}
    if key == "cone_rays":
        subgroups["ray"] = _primitive(vectors[0])
    return {"rank": rank, key: vectors,
            "points": {"p": {"torus": [_random_rational(rng) for _ in range(rank)]}},
            "subgroups": subgroups}


def _random_cone9(rng, long_walk):
    """A rank-2 cone scene with entries up to 10^9.  With long_walk it is
    walk9's shape, cone((0,1),(k-1,-k)), under two random shears, and its
    weight cone's walk has k elements, past HILBERT_CANDIDATE_CAP."""
    if long_walk:
        k, s, t = rng.randint(400_001, 10**8), rng.randint(-2, 2), rng.randint(-2, 2)
        rays = [[x + s * y, y + t * (x + s * y)] for x, y in ((0, 1), (k - 1, -k))]
    else:
        a = b = _primitive(_random_vector(rng, 2, 10**9))
        while a[0] * b[1] == a[1] * b[0]:
            b = _primitive(_random_vector(rng, 2, 10**9))
        rays = [a, b]
    return {"rank": 2, "cone_rays": rays,
            "points": {"p": {"torus": [_random_rational(rng) for _ in range(2)]}},
            "subgroups": {"l": _random_vector(rng, 2), "ray": rays[0]}}


def _csv(values):
    return ",".join(map(str, values))


def _random_argvs(rng, scene):
    """One argv for each of the 12 subcommands, --root and --l of the
    scene's rank or, now and then, of another length."""
    rank = scene["rank"]

    def vector():
        return _csv(_random_vector(rng, rank if rng.random() < 0.9 else rank % 3 + 1))

    def subgroup():
        return rng.choice(sorted(scene["subgroups"]) + [vector()])

    box = "--box=%d" % rng.randint(0, 2)
    verify = ["verify", "--point=p", "--l=" + subgroup()]
    if rng.random() < 0.3:
        verify.append("--ts=" + _csv(_random_rational(rng) for _ in range(rng.randint(1, 3))))
    if rng.random() < 0.3:
        verify.append("--ss=" + _csv(_random_rational(rng) for _ in range(rng.randint(1, 3))))
    roots = ["roots", box] + (["--ray=%d" % rng.randint(-1, 3)] if rng.random() < 0.4 else [])
    return [["dual"], ["facets"], ["hilbert"], ["saturation"], ["straightening"],
            ["classify", "--l=" + subgroup()], roots, ["lnd", "--root=" + vector()],
            ["flow", "--point=p", "--root=" + vector(), "--s=" + _random_rational(rng)],
            ["limit", "--point=p", "--l=" + subgroup()], verify, ["report", box]]


# The roots that smallest_root_at_ray gives at each ray of the short-walk
# random-cone9 scenes, by scene index: lnd does its work at each, where no
# random --root is a root.  Written out, so that a change to the root search
# renames no run.
_CONE9_ROOTS = {
    0: ("297569281,-475457991", "-157015280,-156856153"),
    2: ("-498494901,764669504", "60588715,-51848757"),
    4: ("-18408849,15836171", "8621845,-64606368"),
    6: ("33813925,8479741", "-4184869,23384467"),
}


def _every_command(scene, root, box=2):
    """An argv for each subcommand of a named scene: classify, limit and
    verify for each of its subgroups and points, lnd and flow at root."""
    points = sorted(scene.get("points", {})) or ["p"]
    subgroups = sorted(scene.get("subgroups", {})) or ["1" + ",0" * (scene["rank"] - 1)]
    argvs = [["dual"], ["facets"], ["hilbert"], ["saturation"], ["straightening"],
             ["roots", "--box=%d" % box], ["report"], ["lnd", "--root=" + root],
             ["flow", "--point=" + points[0], "--root=" + root, "--s=-2/3"]]
    for name in subgroups:
        argvs += [["classify", "--l=" + name], ["verify", "--point=" + points[-1], "--l=" + name]]
    argvs += [["limit", "--point=" + p, "--l=" + subgroups[0]] for p in points]
    return argvs


# The named scenes whose every subcommand is cheap, walk9's refusals
# included: the root that lnd and flow take, and the box of the roots scan.
_EVERY_COMMAND = {
    "quadric": ("0,-1", 3), "a2": ("-1,0", 2), "cusp": ("-1", 3), "rank3": ("0,-1,1", 3),
    "line": ("-1", 2), "segment": ("-1,0", 2), "thin8": ("7,-1", 2), "thin40": ("39,-1", 2),
    "triangle": ("-1,0,1", 2), "square": ("0,-1,0", 2), "hexagon": ("-1,1,0", 2),
    "quadric-monoid": ("-1,1", 2), "cusp-monoid": ("-1,1", 2),
    "triangle-monoid": ("-1,1,0", 2), "holed-square-monoid": ("-1,0,1", 2),
    "orthant4": ("-1,0,0,0", 1), "tilted4": ("-1,0,0,0", 1), "cube4": ("-1,0,0,0", 1),
    "holed": ("-1,1", 2), "saturated": ("-1,1", 2), "surrogate": ("0,-1", 2),
    "rank5": ("-1,0,0,0,0", 2), "pentagon": ("0,0,-1", 2), "not-pointed": ("0,-1", 2),
    "low-dim": ("-1,0", 2), "not-effective": ("-1,0", 2), "walk9": ("-1,-1", 2),
}


def _named_runs(scenes):
    """(scene name, argv) of the named scenes, formats not yet applied."""
    runs = [(name, argv) for name, (root, box) in _EVERY_COMMAND.items()
            for argv in _every_command(scenes[name], root, box)]
    # the workload requests and the walls, each trip under 0.5 s
    runs += [(name, ["hilbert"]) for name in ("square4", "triangle12", "hexagon9", "quad11",
                                              "cross4", "prism4", "cyclic6")]
    runs += [(name, [command]) for name in ("square4", "triangle12", "hexagon9", "quad11",
                                            "cross4", "prism4", "cyclic6")
             for command in ("dual", "facets")]
    runs += [("orthant4", ["roots", "--box=3"]), ("tilted4", ["roots", "--box=3", "--ray=3"]),
             ("cube4", ["roots", "--box=2"]), ("square4", ["report"]),
             ("orthant4", ["roots", "--box=200"]),
             ("saturated", ["lnd", "--root=1000000,-1"])]
    # the golden scenes' flows at other times and limits of other points
    runs += [("quadric", ["flow", "--point=p", "--root=0,-1", "--s=2/3"]),
             ("cusp", ["flow", "--point=p", "--root=-1", "--s=2"]),
             ("rank3", ["flow", "--point=q", "--root=0,-1,1", "--s=-5/2"]),
             ("rank3", ["limit", "--point=q", "--l=par"]),
             ("rank3", ["limit", "--point=p", "--l=ell"])]
    runs += [(name, argv) for name in ("paraboloid49", "paraboloid81")
             for argv in (["dual"], ["facets"], ["roots", "--box=1"])]
    runs += [("th3-300", argv) for argv in (["dual"], ["facets"], ["saturation"], ["hilbert"],
                                            ["classify", "--l=par"], ["classify", "--l=hyp"],
                                            ["roots", "--box=1"], ["lnd", "--root=5,5,5"],
                                            ["verify", "--point=p", "--l=hyp"])]
    runs += [("th3-1000", argv) for argv in _every_command(scenes["th3-1000"], "-1,0,0")]
    runs += [("thin9", argv) for argv in (
        ["hilbert"], ["dual"], ["report"], ["verify", "--l=near", "--point=p"],
        ["verify", "--l=wide", "--point=one"], ["lnd", "--root=-1,1"],
        ["flow", "--point=p", "--root=-1,1", "--s=1"], ["flow", "--point=one", "--root=-1,1",
                                                        "--s=1"],
        ["limit", "--point=p", "--l=wide"], ["classify", "--l=wide"], ["roots", "--box=1"])]
    runs += [("power-monoid", ["verify", "--l=near", "--point=p"]), ("power-monoid", ["report"])]
    runs += [("thin3-400", ["verify", "--l=l", "--point=p"]), ("thin3-400", ["dual"])]
    runs += [("wide3", argv) for argv in (
        ["lnd", "--root=0,-1,560984465"], ["lnd", "--root=0,-1"],
        ["flow", "--point=p", "--root=5,5,5", "--s=1"], ["verify", "--point=p", "--l=1,1,-1"],
        ["verify", "--point=p", "--l=335,-868,2"], ["verify", "--point=q", "--l=1,1,-1"],
        ["verify", "--point=p", "--l=1,1"], ["verify", "--point=p", "--l=1,1,-1", "--ts=0"],
        ["dual"], ["facets"], ["roots", "--box=1"])]
    runs += [("holed", ["lnd", "--root=-1,1000"]), ("holed", ["lnd", "--root=0,-1"]),
             ("holed", ["roots", "--box=1"]), ("holed", ["verify", "--point=p", "--l=1,0"]),
             ("digits", ["flow", "--point=p", "--root=39,-1", "--s=1"])]
    # argument refusals; --box and --ray read integers in the grammar of
    # --root, so argparse refuses 1_0 and full-width digits
    runs += [("quadric", argv) for argv in (
        ["roots", "--box=-1"], ["roots", "--ray=99"], ["roots", "--ray=-1"],
        ["roots", "--box=1_0"], ["roots", "--ray=1_0"], ["roots", "--box=\uff11"],
        ["report", "--box=-1"], ["verify", "--point=nope", "--l=vertical"],
        ["verify", "--point=p", "--l=0,0"], ["verify", "--point=p", "--l=vertical", "--ts=1,0"],
        ["verify", "--point=p", "--l=vertical", "--ts=1e9"],
        ["verify", "--point=p", "--l=vertical", "--ss=1/0"],
        ["flow", "--point=p", "--root=0,-1", "--s=1.5"],
        ["flow", "--point=p", "--root=0,-1", "--s=1_0"], ["lnd", "--root=1,2,3"],
        ["lnd", "--root=1,1"], ["classify", "--l=1,-5"], ["verify", "--point=p", "--l=1,-5"])]
    for text in _ODD_INTEGERS:
        runs += [("quadric", ["lnd", "--root=" + text]),
                 ("quadric", ["classify", "--l=" + text.replace("-1", "1")]),
                 ("rank3", ["limit", "--point=q", "--l=1," + text.replace("-1", "0")])]
    return runs


def runs():
    """(run id, scene name, scene text, argv) of every corpus run, in a
    fixed order; the id is the scene name and the argv, joined by spaces."""
    fixed = _fixed_scenes()
    scenes = dict({name: json.dumps(scene) for name, scene in fixed.items()}, **_BAD_SCENES)
    pairs = _named_runs(fixed)
    pairs += [(name, [command]) for name in _BAD_SCENES for command in ("dual", "report")]
    pairs += [("quadric", argv) for argv in _USAGE]
    # random cone and monoid scenes of rank 1 to 4 with small entries
    rng = random.Random(SEED)
    for index in range(RANDOM_SCENES):
        key = ("cone_rays", "monoid_generators")[index % 2]
        name = "random-%s-%02d" % (key.split("_")[0], index)
        scene = _random_scene(rng, key, index // 2 % 4 + 1)
        scenes[name] = json.dumps(scene)
        pairs += [(name, argv) for argv in _random_argvs(rng, scene)]
    # random rank-2 cone scenes with entries up to 10^9, every other one
    # with a weight cone whose walk passes HILBERT_CANDIDATE_CAP
    rng = random.Random(SEED + ", rank 2")
    for index in range(RANDOM_CONE9_SCENES):
        name = "random-cone9-%d" % index
        scene = _random_cone9(rng, index % 2)
        scenes[name] = json.dumps(scene)
        pairs += [(name, argv) for argv in _random_argvs(rng, scene)]
        pairs += [(name, ["lnd", "--root=" + root]) for root in _CONE9_ROOTS.get(index, ())]
    usage = {tuple(argv) for argv in _USAGE}
    out = []
    for name, argv in pairs:
        # argparse ends a usage run before any format is read
        for argv in [argv] if tuple(argv) in usage else [[fmt] + argv for fmt in FORMATS]:
            out.append((" ".join([name] + argv), name, scenes[name], argv))
    assert len({run[0] for run in out}) == len(out), "two runs share an id"
    return scenes, out


def outcome(text, argv):
    """[exit code, SHA-256 of stdout, stderr] of main(argv) with text on
    stdin, or [exit code] of a run that argparse ends."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as end:
        return [end.code]
    finally:
        sys.stdin = stdin
    return [code, digest(out.getvalue()), err.getvalue()]


def table():
    """The recorded table: {"scenes": name -> digest, "runs": id -> outcome}."""
    with open(TABLE, encoding="utf-8") as handle:
        return json.load(handle)


def _lines(mapping):
    return ",\n".join("    %s: %s" % (json.dumps(key), json.dumps(value))
                      for key, value in mapping.items())


def write_table():
    scenes, corpus = runs()
    recorded = {run_id: outcome(text, argv) for run_id, _, text, argv in corpus}
    with open(TABLE, "w", encoding="utf-8") as handle:
        handle.write('{\n  "scenes": {\n%s\n  },\n  "runs": {\n%s\n  }\n}\n' % (
            _lines({name: digest(text) for name, text in scenes.items()}), _lines(recorded)))
    return len(recorded)


if __name__ == "__main__":
    print("wrote %d runs to %s" % (write_table(), TABLE))
