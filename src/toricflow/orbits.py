"""Points, multiplicative scaling, limits, additive flows, verification.

Points are coordinate tuples aligned with the monoid generator list:
coordinate j holds the value of chi^(u_j).  They are built as torus
points, as flow images, or as limit points; each constructor checks the
binomial relations from the generator relation lattice as a sanity
assertion.  Flows start from torus points t and use the closed form
chi^u(phi_s(t)) = t^u * (1 + s*t^e)^<p,u> for the root e at the ray p.
Limits are taken as the multiplicative parameter goes to zero.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, HomogeneousLND, character_value
from .demazure import roots_in_box
from .errors import BoundExceeded, NormalityRequired, NotParabolic
from .grading import GradingKind, classify
from .lattice import LatticeVector, N_SIDE, dot

_ROOT_SEARCH_START = 5
_ROOT_SEARCH_CAP = 1280

TORUS = "torus"
FLOW = "flow"
LIMIT = "limit"


@dataclass(frozen=True)
class ToricPoint:
    """Coordinates indexed by the monoid generators, with provenance.

    provenance is ("torus", t) for torus points and ("flow",) or
    ("limit",) for toolkit-computed images.
    """

    monoid: object
    coords: tuple
    provenance: tuple

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != len(self.monoid.generators):
            raise ValueError("coordinate count does not match the generators")
        for relation in self.monoid.relation_lattice():
            lhs = Fraction(1)
            rhs = Fraction(1)
            for c, k in zip(coords, relation.entries):
                if k > 0:
                    lhs *= c ** k
                elif k < 0:
                    rhs *= c ** (-k)
            if lhs != rhs:
                raise ValueError(
                    "coordinates %s violate the relation %s"
                    % (coords, relation.entries))

    @property
    def is_torus(self):
        return self.provenance[0] == TORUS


def torus_point(mon, t):
    """The point with chi^(u_j) = prod_k t_k^(u_j_k); t must be nonzero."""
    t = tuple(Fraction(x) for x in t)
    if len(t) != mon.rank:
        raise ValueError("torus coordinate count must equal the rank")
    if any(x == 0 for x in t):
        raise ValueError("torus coordinates must be nonzero")
    coords = tuple(character_value(t, g.entries) for g in mon.generators)
    return ToricPoint(mon, coords, (TORUS, t))


def gm_scale(mon, subgroup, t0, point):
    """Scale a point by the multiplicative action of subgroup at time t0."""
    if subgroup.side != N_SIDE or subgroup.rank != mon.rank:
        raise ValueError("subgroup must be an N-side vector of the right rank")
    t0 = Fraction(t0)
    if t0 == 0:
        raise ValueError("the multiplicative parameter must be nonzero")
    if point.monoid != mon:
        raise ValueError("point belongs to a different monoid")
    coords = tuple(c * t0 ** dot(subgroup.entries, g.entries)
                   for c, g in zip(point.coords, mon.generators))
    if point.is_torus:
        t = tuple(x * t0 ** l for x, l in zip(point.provenance[1], subgroup.entries))
        return ToricPoint(mon, coords, (TORUS, t))
    return ToricPoint(mon, coords, point.provenance)


def limit_point(mon, subgroup, point):
    """Limit of t.point as t -> 0, or None when a negative degree blocks it.

    The limit exists exactly when every coordinate that is nonzero at the
    point has nonnegative degree; positive-degree coordinates go to zero.
    """
    if subgroup.side != N_SIDE or subgroup.rank != mon.rank:
        raise ValueError("subgroup must be an N-side vector of the right rank")
    if point.monoid != mon:
        raise ValueError("point belongs to a different monoid")
    degrees = [dot(subgroup.entries, g.entries) for g in mon.generators]
    for c, k in zip(point.coords, degrees):
        if c != 0 and k < 0:
            return None
    coords = tuple(c if k == 0 else Fraction(0)
                   for c, k in zip(point.coords, degrees))
    return ToricPoint(mon, coords, (LIMIT,))


def evaluate(element, point):
    """Value of an algebra element at a point.

    Torus points evaluate monomials directly from their torus coordinates.
    Other points use a fixed generator decomposition of each exponent; the
    relation checks at construction make the value independent of the
    decomposition on nonvanishing coordinates.
    """
    if element.monoid != point.monoid:
        raise ValueError("element and point live over different monoids")
    if point.is_torus:
        return element.evaluate_at_torus(point.provenance[1])
    total = Fraction(0)
    for u, c in element.terms:
        decomposition = point.monoid.decompose(u)
        assert decomposition is not None, "exponent invariant violated"
        value = Fraction(1)
        for coordinate, power in zip(point.coords, decomposition):
            if power:
                value *= coordinate ** power
        total += c * value
    return total


def ga_flow_point(lnd, s, point):
    """Image of a torus point t under the additive flow at time s.

    Coordinate j is t^(u_j) * (1 + s*t^e)^<p,u_j>, the closed form of
    exp(s*d)(chi^(u_j)) evaluated at t.
    """
    if point.monoid != lnd.monoid:
        raise ValueError("point belongs to a different monoid")
    if not point.is_torus:
        raise ValueError("the additive flow starts from a torus point")
    t = point.provenance[1]
    step = 1 + Fraction(s) * character_value(t, lnd.root.vector.entries)
    coords = tuple(character_value(t, g.entries) * step ** lnd.degree(g)
                   for g in lnd.monoid.generators)
    return ToricPoint(lnd.monoid, coords, (FLOW,))


def smallest_root_at_ray(sigma, ray_index):
    """First root at the ray in enumeration order, growing the box as
    needed.  Every ray of a pointed full-dimensional cone has one."""
    box = _ROOT_SEARCH_START
    while box <= _ROOT_SEARCH_CAP:
        roots = roots_in_box(sigma, box, ray_index=ray_index)
        if roots:
            return roots[0], box
        box *= 2
    raise BoundExceeded(
        "no root at ray %d within max-norm %d" % (ray_index, _ROOT_SEARCH_CAP))


@dataclass(frozen=True)
class InvariantCheck:
    """One degree-zero generator checked for constancy along both actions."""

    exponent: LatticeVector
    base_value: Fraction
    gm_values: tuple
    ga_values: tuple
    constant: bool
    annihilated: bool


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of verify_compatible, structured for rendering."""

    passed: bool
    subgroup: LatticeVector
    point: ToricPoint
    grading: object
    ray_index: int
    ray: LatticeVector
    root: object
    root_box: int
    invariant_checks: tuple
    limit: ToricPoint
    flow_parameter: Fraction | None
    reached_exactly: bool | None
    gm_samples: tuple
    ga_samples: tuple
    notes: tuple
    derived_facts: tuple


DEFAULT_GM_SAMPLES = (Fraction(2), Fraction(1, 2), Fraction(-3))
DEFAULT_GA_SAMPLES = (Fraction(1), Fraction(-1), Fraction(7, 3))


def verify_compatible(mon, subgroup, point,
                      gm_samples=DEFAULT_GM_SAMPLES,
                      ga_samples=DEFAULT_GA_SAMPLES):
    """Certify that the additive flow of a smallest root at the
    distinguished ray is compatible with the multiplicative action.

    Requires a saturated monoid, a parabolic grading and a torus point.
    The certificate checks, all in exact arithmetic: the degree-zero
    generator coordinates are constant along both sampled actions and are
    annihilated by the derivation; the limit point at t -> 0 exists; and
    the flow reaches that limit exactly at the solved flow time whenever
    some coordinate is linear along the flow (degree one).
    """
    saturation = mon.saturation()
    if not saturation.saturated:
        raise NormalityRequired(saturation.witness.entries)
    grading = classify(mon, subgroup)
    if grading.kind is not GradingKind.PARABOLIC:
        raise NotParabolic(grading.kind,
                           "a compatible additive action needs a parabolic grading")
    if point.monoid != mon:
        raise ValueError("point belongs to a different monoid")
    if not point.is_torus:
        raise ValueError("verification starts from a torus point")
    gm_samples = tuple(Fraction(t) for t in gm_samples)
    ga_samples = tuple(Fraction(s) for s in ga_samples)
    if any(t == 0 for t in gm_samples):
        raise ValueError("multiplicative samples must be nonzero")

    ray_index = grading.ray_index
    ray = mon.dual_cone.rays[ray_index]
    root, root_box = smallest_root_at_ray(mon.dual_cone, ray_index)
    lnd = HomogeneousLND(mon, root)

    scaled = [gm_scale(mon, subgroup, t, point) for t in gm_samples]
    flowed = [ga_flow_point(lnd, s, point) for s in ga_samples]

    notes = []
    checks = []
    degrees = [lnd.degree(g) for g in mon.generators]
    for j, g in enumerate(mon.generators):
        if degrees[j] != 0:
            continue
        base = point.coords[j]
        gm_values = tuple(q.coords[j] for q in scaled)
        ga_values = tuple(q.coords[j] for q in flowed)
        constant = all(v == base for v in gm_values + ga_values)
        annihilated = lnd.apply(AlgebraElement.monomial(mon, g)).is_zero
        checks.append(InvariantCheck(g, base, gm_values, ga_values,
                                     constant, annihilated))

    limit = limit_point(mon, subgroup, point)
    assert limit is not None, "parabolic gradings always have limits"

    flow_parameter = None
    reached = None
    linear = next((j for j, k in enumerate(degrees) if k == 1), None)
    if linear is None:
        notes.append("no coordinate is linear along the flow; "
                     "limit reachability was only sampled")
        reached = any(q.coords == limit.coords for q in flowed)
    else:
        g = mon.generators[linear]
        slope = character_value(point.provenance[1], (g + root.vector).entries)
        assert slope != 0, "torus points have nonvanishing characters"
        flow_parameter = (limit.coords[linear] - point.coords[linear]) / slope
        at_solved = ga_flow_point(lnd, flow_parameter, point)
        reached = at_solved.coords == limit.coords

    passed = (all(c.constant and c.annihilated for c in checks)
              and reached is True)

    derived_facts = ()
    if passed:
        derived_facts = (
            {"label": "derived consequence",
             "fact": "not_rigid",
             "statement": "a nontrivial additive-group action exists "
                          "(the flow of the witness derivation), so the "
                          "variety is not rigid"},
            {"label": "derived consequence",
             "fact": "open_orbit_meets_divisor",
             "statement": "the additive flow moves the limit point back "
                          "into the big orbit, so the open orbit of the "
                          "automorphism group meets the fixed divisor of "
                          "the distinguished ray"},
        )

    return CompatibilityReport(
        passed=passed,
        subgroup=subgroup,
        point=point,
        grading=grading,
        ray_index=ray_index,
        ray=ray,
        root=root,
        root_box=root_box,
        invariant_checks=tuple(checks),
        limit=limit,
        flow_parameter=flow_parameter,
        reached_exactly=reached,
        gm_samples=gm_samples,
        ga_samples=ga_samples,
        notes=tuple(notes),
        derived_facts=derived_facts,
    )
