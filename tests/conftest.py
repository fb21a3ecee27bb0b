import json
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, gcd
from operator import mul

import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from toricflow import (AffineMonoid, Cone, Face, GradingClass, GradingKind,
                       HomogeneousLND, LatticeVector, M_SIDE, N_SIDE,
                       NotFullDimensional, NotParabolic, NotPointed, ToricPoint,
                       classify, dot, generates_full_lattice, hilbert_basis,
                       matrix_rank, primitive, roots_in_box, torus_point)
from toricflow import demazure
from toricflow.algebra import AlgebraElement
from toricflow.grading import _divisor
from toricflow.lattice import _echelon, primitive_tuple
from toricflow.orbits import evaluate

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


def _fm_eliminate(rays, rank):
    """Project {x : x = sum(lam_i * ray_i), lam >= 0} onto the x variables.

    Variables are ordered (lam_1..lam_n, x_1..x_d).  Rows are integer
    coefficient vectors; equalities and inequalities (>= 0) are kept in
    separate lists.  Eliminating lam_i prefers a pivot equality (a plain
    substitution); only when no equality mentions lam_i does the quadratic
    inequality pairing happen.  Returns (inequalities, equalities) over x,
    primitive and deduplicated.
    """
    n, d = len(rays), rank
    width = n + d
    ineqs = []
    for i in range(n):
        row = [0] * width
        row[i] = 1
        ineqs.append(row)
    eqs = []
    for j in range(d):
        row = [rays[i][j] for i in range(n)] + [0] * d
        row[n + j] = -1
        eqs.append(row)

    def tidy(rows):
        seen = set()
        out = []
        for row in rows:
            if all(e == 0 for e in row):
                continue
            key = primitive_tuple(row)
            if key not in seen:
                seen.add(key)
                out.append(list(key))
        return out

    for v in range(n):
        pivot = next((row for row in eqs if row[v] != 0), None)
        if pivot is not None:
            eqs.remove(pivot)
            p = pivot[v]
            sign = 1 if p > 0 else -1

            def substitute(row):
                c = row[v]
                if c == 0:
                    return row
                # row*|p| - pivot*(c*sign) zeroes column v; the row multiplier
                # |p| is positive, so inequality direction is preserved
                return [a * abs(p) - b * c * sign for a, b in zip(row, pivot)]

            ineqs = tidy(substitute(r) for r in ineqs)
            eqs = tidy(substitute(r) for r in eqs)
        else:
            pos = [r for r in ineqs if r[v] > 0]
            neg = [r for r in ineqs if r[v] < 0]
            zero = [r for r in ineqs if r[v] == 0]
            combos = []
            for pr in pos:
                for nr in neg:
                    combos.append([a * pr[v] - b * nr[v] for a, b in zip(nr, pr)])
            ineqs = tidy(zero + combos)
    out_ineqs = tidy([row[n:] for row in ineqs])
    out_eqs = tidy([row[n:] for row in eqs])
    return out_ineqs, out_eqs


def fm_cone(rays, rank):
    """Duality oracle: Fourier-Motzkin elimination, then rank tests that
    keep the facet-defining inequalities and the extreme rays.  Returns
    (rays, facet normals) as lex-sorted primitive tuples, or raises
    NotPointed or NotFullDimensional as Cone.from_rays does.  Meant for
    cones on a handful of rays: the row count is not capped."""
    ray_tuples = sorted({primitive_tuple(r) for r in rays})
    ineqs, eqs = _fm_eliminate(ray_tuples, rank)
    if matrix_rank(ineqs + eqs) < rank:
        raise NotPointed("cone generated by %s contains a line" % (ray_tuples,))
    if eqs:
        raise NotFullDimensional("rays %s span a proper subspace" % (ray_tuples,))
    normals = sorted({tuple(h) for h in ineqs
                      if matrix_rank([r for r in ray_tuples if dot(h, r) == 0])
                      == rank - 1})
    extreme = [r for r in ray_tuples
               if matrix_rank([h for h in normals if dot(h, r) == 0]) == rank - 1]
    return extreme, normals


def box_scan_roots(sigma, bound, ray_index=None):
    """Root oracle: the definition filter over every point of the max-norm
    box, as (ray index, entries) pairs in (ray, lex) order."""
    rays = [r.entries for r in sigma.rays]
    found = []
    for e in product(range(-bound, bound + 1), repeat=sigma.rank):
        if ray_index is not None and dot(rays[ray_index], e) != -1:
            continue
        values = [sum(a * b for a, b in zip(r, e)) for r in rays]
        if [v for v in values if v < 0] == [-1]:
            index = values.index(-1)
            if ray_index in (None, index):
                found.append((index, e))
    return sorted(found)


def slice_scan_roots(sigma, bound, ray_index=None):
    """Root oracle: for each ray p, walk the slice <p,e> = -1 of the box.
    The coordinate j of largest |p_j| is the pivot: the others run over
    the box and e_j = (-1 - sum of p_i*e_i over i != j) / p_j is kept when
    the division is exact and |e_j| <= bound.  Returns (ray index,
    entries) pairs in (ray, lex) order."""
    rays = [r.entries for r in sigma.rays]
    indices = range(len(rays)) if ray_index is None else [ray_index]
    found = []
    for i in indices:
        p = rays[i]
        j = max(range(len(p)), key=lambda k: abs(p[k]))
        rest = p[:j] + p[j + 1:]
        for others in product(range(-bound, bound + 1), repeat=sigma.rank - 1):
            level = -1 - sum(a * b for a, b in zip(rest, others))
            pivot, remainder = divmod(level, p[j])
            if remainder or abs(pivot) > bound:
                continue
            point = others[:j] + (pivot,) + others[j:]
            values = [sum(a * b for a, b in zip(r, point)) for r in rays]
            if [v for v in values if v < 0] == [-1] and values[i] == -1:
                found.append((i, point))
    return sorted(found)


def root_growth_witness(sigma, ray_index, small, large):
    """Root counts at the distinguished ray for two box sizes.

    Strict growth of the pair witnesses an infinite root set.  Undefined
    in rank one, where each ray has exactly one root.
    """
    if sigma.rank < 2:
        raise ValueError("root sets at a fixed ray are finite in rank one")
    if not small < large:
        raise ValueError("box sizes must increase")
    at_small = len(roots_in_box(sigma, small, ray_index))
    at_large = len(roots_in_box(sigma, large, ray_index))
    return at_small, at_large


def _distinguished_ray(rays, entries):
    """Index of the one ray pairing to -1 with entries while every other
    ray pairs nonnegatively, or None when the root condition fails."""
    distinguished = None
    for i, ray in enumerate(rays):
        value = sum(map(mul, ray, entries))
        if value < 0:
            if value != -1 or distinguished is not None:
                return None
            distinguished = i
    return distinguished


def _lift_points(levels, basis, point, prefix, point_cost, budget):
    """The points point + sum of y_i*basis[i] over the integer points y of
    the projected rows that extend prefix, in lex order of y, depth first.

    Each interval is charged its rows, each value of an inner coordinate
    one step and each full point point_cost steps.
    """
    j = len(prefix)
    lower, upper = levels[j]
    budget.spend(len(lower) + len(upper))
    lo = max(-((sum(map(mul, a, prefix)) + c) // k) for a, k, c in lower)
    hi = min((sum(map(mul, a, prefix)) + c) // k for a, k, c in upper)
    step = basis[j]
    last = j + 1 == len(levels)
    cost = point_cost if last else 1
    point = tuple([x + lo * b for x, b in zip(point, step)])
    for y in range(lo, hi + 1):
        budget.spend(cost)
        if last:
            yield point
        else:
            yield from _lift_points(levels, basis, point, prefix + (y,), point_cost, budget)
        point = tuple([x + b for x, b in zip(point, step)])


def _lift_roots_by_point(rays, index, bound, budget):
    """Roots at rays[index] with max-norm at most bound, as entry tuples in
    lex order: e0 and the echelon basis from two echelon forms, then one
    point at a time, each charged 1 + the number of rays and re-checked
    against every ray."""
    p = rays[index]
    d = len(p)
    rows, _ = _echelon([[p[k]] + [int(j == k) for j in range(d)] for k in range(d)],
                       pivot_cols_limit=1)
    e0 = [-x for x in rows[0][1:]]
    basis, _ = _echelon([row[1:] for row in rows[1:]])
    rows = [(tuple([sum(map(mul, q, b)) for b in basis]), sum(map(mul, q, e0)))
            for k, q in enumerate(rays) if k != index]
    for k in range(d):
        column = tuple(b[k] for b in basis)
        rows.append((column, bound + e0[k]))
        rows.append((tuple(-x for x in column), bound - e0[k]))
    levels = demazure._project(rows, d - 1, budget)
    if levels is None:
        return
    point_cost = 1 + len(rays)
    if levels:
        points = _lift_points(levels, basis, tuple(e0), (), point_cost, budget)
    else:
        budget.spend(point_cost)
        points = [tuple(e0)]
    for e in points:
        if _distinguished_ray(rays, e) == index:
            yield e


def roots_by_point(sigma, bound, ray_index=None):
    """Step oracle for roots_in_box: the point-by-point lift with its
    re-check.  Returns the (ray index, entries) pairs in (ray, lex) order
    and the steps spent; raises BoundExceeded as the cap trips."""
    rays = [r.entries for r in sigma.rays]
    indices = range(len(rays)) if ray_index is None else [ray_index]
    budget = demazure.StepBudget("root enumeration at max-norm %d" % bound,
                                 "; lower --box or give fewer rays")
    roots = [(i, e) for i in indices for e in _lift_roots_by_point(rays, i, bound, budget)]
    return roots, budget.spent


def smallest_root_by_point(sigma, ray_index):
    """Step oracle for smallest_root_at_ray: ((entries, box), steps), where
    each box 5*2^k is a point-by-point lift that stops at its first root
    and one budget is charged over all the boxes."""
    rays = [r.entries for r in sigma.rays]
    budget = demazure.StepBudget("the search for a root at ray %s" % (rays[ray_index],),
                                 "; give fewer rays or rays with smaller entries")
    box = 5
    while True:
        root = next(_lift_roots_by_point(rays, ray_index, box, budget), None)
        if root is not None:
            return (root, box), budget.spent
        box *= 2


_BOX_SCAN_CAP = 400_000


def box_scan_hilbert_basis(cone):
    """Hilbert basis oracle: every irreducible element lies in the zonotope
    spanned by the primitive rays (one with a ray coefficient >= 1 splits
    off that ray), so scan the zonotope's bounding box and greedily discard
    sums of two nonzero cone points, in increasing order of a strictly
    positive functional.  Returns lex-sorted entry tuples."""
    rays = [r.entries for r in cone.rays]
    d = cone.rank
    lo = [sum(min(0, r[j]) for r in rays) for j in range(d)]
    hi = [sum(max(0, r[j]) for r in rays) for j in range(d)]
    volume = 1
    for a, b in zip(lo, hi):
        volume *= b - a + 1
    assert volume <= _BOX_SCAN_CAP, "zonotope box too large for the oracle"
    normals = [h.entries for h in cone.facet_normals]

    def positive_level(u):
        return sum(sum(a * b for a, b in zip(h, u)) for h in normals)

    candidates = []
    for u in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if any(e != 0 for e in u) and cone.contains_tuple(u):
            candidates.append(u)
    candidates.sort(key=lambda u: (positive_level(u), u))
    basis = []
    for u in candidates:
        for h in basis:
            w = tuple(a - b for a, b in zip(u, h))
            if any(e != 0 for e in w) and cone.contains_tuple(w):
                break
        else:
            basis.append(u)
    return sorted(basis)


def rank_pulling(rays, normals, dim):
    """Pulling triangulation oracle: the dim-dimensional face on rays is its
    first ray joined to each cut by a facet normal that misses that ray and
    has rank dim - 1, which makes the cut a facet of the face."""
    if dim == 1:
        return [rays]
    cuts = dict.fromkeys(tuple(r for r in rays if dot(h, r) == 0)
                         for h in normals if dot(h, rays[0]))
    return [(rays[0],) + simplex for cut in cuts if matrix_rank(cut) == dim - 1
            for simplex in rank_pulling(cut, normals, dim - 1)]

def fixed_locus(mon, subgroup):
    """The divisor fixed pointwise by a parabolic subgroup: its grading's
    distinguished ray, as straightening_subtori gives it for that ray."""
    grading = classify(mon.weight_cone, subgroup)
    if grading.kind is not GradingKind.PARABOLIC:
        raise NotParabolic(grading.kind,
                           "fixed divisors exist only for parabolic gradings")
    return _divisor(mon, grading.ray_index)


# Closed-form oracles: the searches that AffineMonoid.saturation, classify's
# kind and degree_gcd, HomogeneousLND.kernel_rank and the report's warning on
# a parabolic negation replace with a lookup, a facet normal lookup, gcd(l),
# rank - 1 and a facet normal test.
def saturation_by_membership(mon):
    """The first Hilbert basis element, in lex order, that is no monoid
    member, or None: each is decomposed, as contains() does before the
    monoid is known to be saturated."""
    return next((h for h in hilbert_basis(mon.weight_cone) if mon.decompose(h) is None), None)


def generator_degree_gcd(mon, subgroup):
    """gcd of the degrees <l, g> of the monoid generators g."""
    return gcd(*(dot(subgroup.entries, g.entries) for g in mon.generators))


def kernel_rank_by_echelon(lnd):
    """Rank of the degree-0 generators, by an echelon form."""
    return matrix_rank([g.entries for g in lnd.kernel_generators()])


def classify_by_rank(cone, subgroup):
    """classify with the zero face's dimension taken by an echelon form for
    every nonnegative l.  A face of dimension rank - 1 is a facet, and l is
    then a positive multiple of its normal.  Parabolic is tested before
    Elliptic: in rank one the origin is itself the facet."""
    degree_gcd = gcd(*subgroup.entries)
    values = [dot(subgroup.entries, r.entries) for r in cone.rays]
    if min(values) < 0:
        return GradingClass(GradingKind.HYPERBOLIC, None, None, degree_gcd, degree_gcd == 1)
    face_rays = tuple(r for r, v in zip(cone.rays, values) if v == 0)
    face = Face(face_rays, matrix_rank([r.entries for r in face_rays]))
    if face.dim == cone.rank - 1:
        ray_index = cone.facet_normals.index(primitive(subgroup))
        return GradingClass(GradingKind.PARABOLIC, face, ray_index, degree_gcd, degree_gcd == 1)
    kind = GradingKind.ELLIPTIC if face.dim == 0 else GradingKind.DEGENERATE_NONNEGATIVE
    return GradingClass(kind, face, None, degree_gcd, degree_gcd == 1)


def negation_is_parabolic(cone, subgroup):
    """Whether -l is parabolic on the weight cone, by classify_by_rank."""
    return classify_by_rank(cone, -subgroup).kind is GradingKind.PARABOLIC


@st.composite
def random_monoids(draw, max_rank=3):
    """A monoid of rank 1 to max_rank on a weight cone with small rays, on
    generators in a drawn order: the Hilbert basis, or an unsaturated one
    that drops a basis element h, non-extreme where there is one in mode
    "inner".  When h is extreme or the rest does not generate M, 2h and 3h
    are added; that keeps the cone and the lattice and still misses h, as
    h is irreducible."""
    rank = draw(st.integers(1, max_rank))
    entries = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    rays = draw(st.lists(entries, min_size=rank, max_size=rank + 2))
    try:
        cone = Cone.from_rays(rays, rank, M_SIDE)
    except (NotPointed, NotFullDimensional):
        assume(False)
    basis = [h.entries for h in hilbert_basis(cone)]
    extreme = {r.entries for r in cone.rays}
    inner = [h for h in basis if h not in extreme]
    gens = basis
    mode = draw(st.sampled_from(["saturated", "inner", "any"]))
    if mode != "saturated":
        h = draw(st.sampled_from(inner if mode == "inner" and inner else basis))
        gens = [g for g in basis if g != h]
        if h in extreme or not generates_full_lattice(gens, rank):
            gens += [tuple(2 * x for x in h), tuple(3 * x for x in h)]
    return AffineMonoid(draw(st.permutations(gens)), rank)


def random_subgroups(mon):
    """N-side vectors of the monoid's rank: any small one, a nonzero multiple
    of a facet normal, parabolic or with a parabolic negation, or the sum of
    two or three facet normals, zero on the face where their facets meet."""
    normals = [h.entries for h in mon.weight_cone.facet_normals]
    scaled = st.tuples(st.sampled_from(normals), st.integers(-3, 3).filter(bool)).map(
        lambda pair: tuple(pair[1] * x for x in pair[0]))
    sums = st.lists(st.sampled_from(normals), min_size=2, max_size=3).map(
        lambda some: tuple(map(sum, zip(*some))))
    return st.one_of(st.tuples(*[st.integers(-6, 6)] * mon.rank).filter(any), scaled,
                     sums).map(lambda entries: LatticeVector(entries, N_SIDE))


# Determinant oracles: the expansions that lattice.adjugate replaces.
def permutation_det(rows):
    """Determinant as the signed sum over all permutations (Leibniz)."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j]
                         for i, j in combinations(range(len(perm)), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _laplace_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def laplace_cofactors(rows):
    """Cofactor matrix C of a square int matrix V, each minor expanded along
    its first row: row i of C pairs to det(V) with row i of V and to zero
    with every other row of V."""
    return [tuple((-1) ** (i + j) * _laplace_det([r[:j] + r[j + 1:]
                                                  for k, r in enumerate(rows) if k != i])
                  for j in range(len(rows)))
            for i in range(len(rows))]


# Output oracle: the JSON writer that cli._dumps replaces, one json.dumps
# call per key and per scalar.
def json_dumps_per_scalar(value, indent=0):
    """json.dumps with scalar-only lists and empty containers on one line."""
    if isinstance(value, dict) and value:
        parts = ["%s: %s" % (json.dumps(key), json_dumps_per_scalar(item, indent + 1))
                 for key, item in value.items()]
        brackets = "{}"
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        parts = [json_dumps_per_scalar(item, indent + 1) for item in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    inner = "\n" + "  " * (indent + 1)
    return (brackets[0] + inner + ("," + inner).join(parts)
            + "\n" + "  " * indent + brackets[1])



# Text oracle: the renderer that report.render_text replaces, which tests
# each item with isinstance and writes every string bare.
def _text_scalar(value):
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _text_is_scalar(value):
    return value is None or isinstance(value, (str, int, bool))


def _text_inline(values):
    return "[" + ", ".join(_text_scalar(v) for v in values) + "]"


def _text_all_scalar(values):
    return all(_text_is_scalar(v) for v in values)


def _text_walk(value, indent, lines):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            lines.append(pad + "(empty)")
            return
        for key, item in value.items():
            if _text_is_scalar(item):
                lines.append("%s%s: %s" % (pad, key, _text_scalar(item)))
            elif isinstance(item, list) and _text_all_scalar(item):
                lines.append("%s%s: %s" % (pad, key, _text_inline(item)))
            elif (isinstance(item, list) and item
                  and all(isinstance(x, list) and _text_all_scalar(x) for x in item)):
                lines.append("%s%s: %s" % (pad, key,
                                           " ".join(_text_inline(x) for x in item)))
            else:
                lines.append("%s%s:" % (pad, key))
                _text_walk(item, indent + 1, lines)
    else:  # a list of dicts: the dict branch writes scalar lists inline
        for item in value:
            lines.append(pad + "-")
            _text_walk(item, indent + 1, lines)


def render_text_per_item(document):
    """Plain text: scalars, scalar lists and lists of scalar lists on the
    key's line, dicts and lists of dicts indented below it."""
    lines = []
    _text_walk(document, 0, lines)
    return "\n".join(lines) + "\n"

# Character oracle: the product of Fraction powers that
# algebra.characters replaces with two integer products per row.
def character_value_by_powers(t, u):
    """prod t_k^(u_k), one Fraction power and product per coordinate."""
    value = Fraction(1)
    for base, exponent in zip(t, u):
        value *= Fraction(base) ** exponent
    return value


# Ring oracles: the monoid-algebra arithmetic and the multiplicative action
# that the closed forms made unneeded in the package.  An AlgebraElement
# merges equal exponents and drops zero coefficients when it is built, so
# each operation lists its terms and builds a new element.
def monomial(mon, u, coefficient=1):
    """coefficient * chi^u."""
    return AlgebraElement(mon, [(u, coefficient)])


def zero(mon):
    return AlgebraElement(mon, [])


def add(f, *others):
    """The sum of elements of one monoid algebra."""
    assert all(g.monoid == f.monoid for g in others), "elements of different algebras"
    return AlgebraElement(f.monoid, [t for g in (f,) + others for t in g.terms])


def scale(c, f):
    """c * f for a rational c."""
    return AlgebraElement(f.monoid, [(u, c * a) for u, a in f.terms])


def multiply(f, g):
    """f * g, term by term: chi^u * chi^v = chi^(u + v)."""
    assert f.monoid == g.monoid, "elements of different algebras"
    return AlgebraElement(f.monoid, [(u + v, a * b) for u, a in f.terms
                                     for v, b in g.terms])


def gm_scale(mon, subgroup, t0, point):
    """The point moved by the one-parameter subgroup at time t0: coordinate
    j times t0^<l, u_j>.  A torus point t goes to the torus point with
    coordinates t_k * t0^(l_k).  No power cap, beyond the one of the
    ToricPoint it builds."""
    t0 = Fraction(t0)
    if point.is_torus:
        return torus_point(mon, [x * t0 ** l for x, l in zip(point.provenance[1],
                                                             subgroup.entries)])
    return ToricPoint(mon, [c * t0 ** dot(subgroup.entries, g.entries)
                            for c, g in zip(point.coords, mon.generators)],
                      point.provenance)


# Flow oracles: the iterated derivation series that the closed forms in
# HomogeneousLND.exp_flow and ga_flow_point replace.
_ORACLE_STEP_CAP = 10_000


def derivation_powers(lnd, f):
    """f, d f, d^2 f, ... up to the last nonzero power, by repeated apply."""
    powers = []
    while f.terms:
        assert len(powers) < _ORACLE_STEP_CAP, "derivation is not nilpotent"
        powers.append(f)
        f = lnd.apply(f)
    return powers


def iterated_exp_flow(lnd, s, f):
    """exp(s*d) f as the series sum_k s^k/k! d^k f."""
    s = Fraction(s)
    return add(zero(f.monoid), *(scale(s ** k / factorial(k), power)
                                 for k, power in enumerate(derivation_powers(lnd, f))))


def pullback_flow_coords(lnd, s, point):
    """Flowed coordinates by pullback: each generator's iterated flow,
    evaluated at the point."""
    mon = lnd.monoid
    return tuple(evaluate(iterated_exp_flow(lnd, s, monomial(mon, g)), point)
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

# A rank-3 cone scene with two points and one subgroup of each kind, so the
# report runs every warning and refusal arm: par is parabolic, double is
# parabolic but not effective, ell is elliptic, flat is degenerate and down
# is hyperbolic with a parabolic negation.
RANK3_SCENE = {
    "rank": 3,
    "cone_rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2]],
    "points": {"p": {"torus": [2, "1/3", -1]}, "q": {"torus": [-1, 5, "-7/2"]}},
    "subgroups": {"par": [1, 0, 0], "ell": [1, 1, 1], "double": [2, 0, 0],
                  "down": [-1, 0, 0], "flat": [1, 1, 0]},
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
