"""Correctness checks of CLI outputs, independent of the program.

Each check recomputes what it needs from the scene's construction (see
workloads.py) with its own exact arithmetic: closed-form flows, a
root-condition scan of the box, lattice points of polygons, pairing signs
and ranks.  Nothing here imports toricflow.  A check returns a list of
problems; an empty list means the output is correct.
"""

import json
from fractions import Fraction
from itertools import product

from workloads import dot, primitive

# The program's root search starts at this box and doubles it.
ROOT_SEARCH_START = 5


def rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    found = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(found, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for i in range(found + 1, len(rows)):
            factor = rows[i][col] / rows[found][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[found])]
        found += 1
    return found


def roots_at_ray(sigma, index, box):
    """Roots e with max-norm <= box distinguished at sigma[index], lex-sorted.

    Scans the box's slice <p, e> = -1 by solving for one coordinate of e,
    then applies the root condition against every other ray.
    """
    p = sigma[index]
    solve = next(i for i, x in enumerate(p) if x != 0)
    found = []
    for rest in product(range(-box, box + 1), repeat=len(p) - 1):
        e = list(rest[:solve]) + [0] + list(rest[solve:])
        numerator = -1 - dot(p, e)
        if numerator % p[solve]:
            continue
        e[solve] = numerator // p[solve]
        if abs(e[solve]) > box:
            continue
        if all(dot(r, e) >= 0 for i, r in enumerate(sigma) if i != index):
            found.append(tuple(e))
    return sorted(found)


def torus_value(t, u):
    value = Fraction(1)
    for base, exponent in zip(t, u):
        value *= base ** exponent
    return value


def check_roots(problems, sigma, box, ray_filter, doc):
    indices = range(len(sigma)) if ray_filter is None else [ray_filter]
    expected = [(i, e) for i in indices for e in roots_at_ray(sigma, i, box)]
    got = [(r["ray_index"], tuple(r["vector"])) for r in doc["roots"]]
    if got != expected:
        problems.append("roots in box %d differ from the scan (%d vs %d)"
                        % (box, len(got), len(expected)))
    by_ray = [{"ray_index": i, "ray": list(sigma[i]),
               "count": sum(1 for j, _ in expected if j == i)} for i in indices]
    if doc["by_ray"] != by_ray or doc["count"] != len(expected):
        problems.append("root counts differ from the scan")


def check_certificate(problems, scene, subgroup, point_name, doc):
    """A passing verification: the closed-form flow t^u (1 + s t^e)^<p,u> at
    the reported flow parameter s lands on the limit, and the limit keeps
    exactly the coordinates of degree 0."""
    l = tuple(scene.doc["subgroups"][subgroup])
    p = primitive(l)
    index = scene.sigma.index(p)
    t = scene.torus(point_name)
    gens = scene.generators
    where = "%s/%s" % (subgroup, point_name)
    if doc["verdict"] != "pass" or doc["reached_exactly"] is not True:
        problems.append("%s: verdict %s, expected pass" % (where, doc["verdict"]))
        return
    box = doc["root_box"]
    e = tuple(doc["root"]["vector"])
    first = roots_at_ray(scene.sigma, index, box)
    smaller = roots_at_ray(scene.sigma, index, box // 2) if box > ROOT_SEARCH_START else []
    if doc["root"]["ray_index"] != index or not first or first[0] != e or smaller:
        problems.append("%s: root %s is not the first root at ray %d" % (where, e, index))
        return
    x = [torus_value(t, u) for u in gens]
    if [Fraction(c) for c in doc["point"]["coords"]] != x:
        problems.append("%s: point coordinates differ from t^u" % where)
    limit = [Fraction(c) for c in doc["limit"]["coords"]]
    if limit != [c if dot(l, u) == 0 else 0 for c, u in zip(x, gens)]:
        problems.append("%s: limit does not keep exactly the degree-0 coordinates" % where)
    s = Fraction(doc["flow_parameter"])
    te = torus_value(t, e)
    flowed = [c * (1 + s * te) ** dot(p, u) for c, u in zip(x, gens)]
    if flowed != limit:
        problems.append("%s: the flow at s=%s misses the limit" % (where, s))


def check_verify(scene, request, doc):
    problems = []
    args = request.args
    subgroup, point_name = args[args.index("--l") + 1], args[args.index("--point") + 1]
    check_certificate(problems, scene, subgroup, point_name, doc)
    return problems


def check_report(scene, request, doc):
    problems = []
    for name, kind in scene.kinds.items():
        if doc["classification"][name]["kind"] != kind:
            problems.append("%s: classified %s, expected %s"
                            % (name, doc["classification"][name]["kind"], kind))
    pairs = [(s, q) for s in sorted(scene.kinds) for q in sorted(scene.doc["points"])]
    if len(doc["verification"]) != len(pairs):
        problems.append("verification has %d entries, expected %d"
                        % (len(doc["verification"]), len(pairs)))
        return problems
    for (sub, pname), entry in zip(pairs, doc["verification"]):
        expected = scene.verdict(sub)
        got = entry["verdict"] if entry["verdict"] != "refused" else entry["reason"]
        if (entry["subgroup_name"], entry["point_name"]) != (sub, pname) or got != expected:
            problems.append("%s/%s: %s, expected %s" % (sub, pname, got, expected))
        elif expected == "pass":
            check_certificate(problems, scene, sub, pname, entry)
    parabolic = sorted(s for s, k in scene.kinds.items() if k == "Parabolic")
    if scene.saturated:
        if doc["straightening"] is None or [d["subgroup"] for d in doc["straightening"]] \
                != [list(r) for r in scene.sigma]:
            problems.append("straightening subtori differ from the dual cone rays")
        if sorted(doc["witness_lnd"]) != parabolic:
            problems.append("witness derivations cover %s, expected %s"
                            % (sorted(doc["witness_lnd"]), parabolic))
    elif doc["straightening"] is not None or doc["witness_lnd"]:
        problems.append("an unsaturated monoid got a straightening or a witness")
    check_roots(problems, scene.sigma, doc["roots"]["box"], None, doc["roots"])
    return problems


def check_report_text(scene, request, text):
    """Text reports: the verdict and reason lines, in order."""
    problems = []
    lines = [line.strip() for line in text.splitlines()]
    verdicts = [line.split(": ", 1)[1] for line in lines if line.startswith("verdict: ")]
    reasons = [line.split(": ", 1)[1] for line in lines if line.startswith("reason: ")]
    expected = [scene.verdict(s) for s in sorted(scene.kinds)
                for _ in sorted(scene.doc["points"])]
    if verdicts != ["pass" if v == "pass" else "refused" for v in expected] \
            or reasons != [v for v in expected if v != "pass"]:
        problems.append("text verdicts %s, expected %s" % (verdicts, expected))
    return problems


def check_roots_command(scene, request, doc):
    problems = []
    args = request.args
    box = int(args[args.index("--box") + 1])
    ray = int(args[args.index("--ray") + 1]) if "--ray" in args else None
    check_roots(problems, scene.sigma, box, ray, doc)
    return problems


def check_hilbert(scene, request, doc):
    problems = []
    expected = sorted((1,) + tuple(p) for p in scene.points)
    got = [tuple(u) for u in doc["hilbert_basis"]]
    if got != expected:
        problems.append("Hilbert basis has %d elements, the polygon has %d lattice points"
                        % (len(got), len(expected)))
    rays = sorted((1,) + v for v in scene.vertices)
    cone = doc["weight_cone"]
    if [tuple(r) for r in cone["rays"]] != rays \
            or [tuple(n) for n in cone["facet_normals"]] != scene.sigma:
        problems.append("weight cone differs from the cone over the polygon")
    return problems


def check_cone(problems, cone, rays, facet_count):
    """Pairing signs, facet ranks and ray ranks of a double description."""
    rays_got = [tuple(r) for r in cone["rays"]]
    normals = [tuple(n) for n in cone["facet_normals"]]
    d = cone["rank"]
    if rays_got != rays:
        problems.append("cone rays differ from the scene's rays")
    if len(normals) != facet_count or len(set(normals)) != len(normals):
        problems.append("%d facet normals, expected %d" % (len(normals), facet_count))
    if any(primitive(n) != n for n in normals):
        problems.append("a facet normal is not primitive")
    if any(dot(n, r) < 0 for n in normals for r in rays_got):
        problems.append("a facet normal is negative on a ray")
    for n in normals:
        if rank([r for r in rays_got if dot(n, r) == 0]) != d - 1:
            problems.append("normal %s does not cut out a facet" % (n,))
    for r in rays_got:
        if rank([n for n in normals if dot(n, r) == 0]) != d - 1:
            problems.append("ray %s is not extreme" % (r,))


def primary(scene):
    """The cone the scene wrote (cone_rays) and its known facet count."""
    return sorted(primitive(tuple(r)) for r in scene.doc["cone_rays"]), scene.facet_count


def check_dual(scene, request, doc):
    problems = []
    rays, facets = primary(scene)
    check_cone(problems, doc["cone"], rays, facets)
    dual = doc["dual"]
    if dual["rays"] != doc["cone"]["facet_normals"] \
            or dual["facet_normals"] != doc["cone"]["rays"]:
        problems.append("dual does not swap rays and facet normals")
    if scene.vertices is not None and [tuple(r) for r in dual["rays"]] \
            != sorted((1,) + v for v in scene.vertices):
        problems.append("dual rays differ from the cone over the polygon")
    return problems


def check_facets(scene, request, doc):
    problems = []
    rays, facets = primary(scene)
    check_cone(problems, doc["cone"], rays, facets)
    normals = doc["cone"]["facet_normals"]
    if len(doc["facets"]) != len(normals):
        problems.append("facet list and facet normals differ in length")
    for index, facet in enumerate(doc["facets"]):
        on = [r for r in rays if dot(facet["normal"], r) == 0]
        if (facet["normal_index"] != index or facet["normal"] != normals[index]
                or [tuple(r) for r in facet["rays"]] != on
                or facet["dim"] != doc["cone"]["rank"] - 1 or rank(on) != facet["dim"]):
            problems.append("facet %d is wrong" % index)
    return problems


CHECKS = {
    "verify": check_verify,
    "report": check_report,
    "roots": check_roots_command,
    "hilbert": check_hilbert,
    "dual": check_dual,
    "facets": check_facets,
}


def check(request, output):
    """Problems with one request's output text; [] when it is correct."""
    if request.fmt == "text":
        return check_report_text(request.scene, request, output)
    try:
        doc = json.loads(output)
    except json.JSONDecodeError as error:
        return ["output is not JSON: %s" % error]
    try:
        return CHECKS[request.command](request.scene, request, doc)
    except (KeyError, TypeError, ValueError, IndexError) as error:
        return ["output lacks an expected field: %r" % (error,)]
