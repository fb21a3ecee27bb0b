"""Points, limits, additive flows, verification.

Points are coordinate tuples aligned with the monoid generator list:
coordinate j holds the value of chi^(u_j).  They are built as torus
points, as flow images, or as limit points; each constructor checks that
the point lies on the variety: a torus point must hold chi^(u_j)(t), any
other must vanish exactly off the generators of one face of the weight
cone (the orbit-cone correspondence) and satisfy the binomial relations
among them.  Flows start from torus points t and use the closed form
chi^u(phi_s(t)) = t^u * (1 + s*t^e)^<p,u> for the root e at the ray p.
Limits are taken as the multiplicative parameter goes to zero.  Every
exact power is formed by algebra.characters, which bounds each batch first.
"""

from collections import namedtuple
from fractions import Fraction

from .algebra import HomogeneousLND, characters, rational
from .demazure import smallest_root_at_ray
from .errors import NormalityRequired, NotParabolic
from .grading import GradingKind, classify
from .lattice import N_SIDE, Frozen, dot, primitive

TORUS = "torus"
FLOW = "flow"
LIMIT = "limit"
_ZERO = Fraction(0)


class ToricPoint(Frozen):
    """Coordinates indexed by the monoid generators, with provenance.

    provenance is ("torus", t) for torus points, whose coords must be the
    chi^(u_j)(t), and ("flow",) or ("limit",) for toolkit-computed images,
    whose coords must be given.  A torus point given coords None takes the
    chi^(u_j)(t) as its coords.  Any other provenance raises ValueError.
    """

    __slots__ = ("monoid", "coords", "provenance")

    def __init__(self, monoid, coords, provenance):
        if coords is not None:
            coords = tuple(map(rational, coords))
            if len(coords) != len(monoid.generators):
                raise ValueError("coordinate count does not match the generators")
        if len(provenance) == 2 and provenance[0] == TORUS:
            provenance = (TORUS, tuple(map(rational, provenance[1])))
            t = provenance[1]  # chi(t) for a nonzero t meets every relation
            if len(t) != monoid.rank or any(x == 0 for x in t):
                raise ValueError("a torus point needs %d nonzero coordinates" % monoid.rank)
            values = tuple(characters(t, [g.entries for g in monoid.generators]))
            if coords not in (None, values):
                raise ValueError("coordinates %s are not the characters at the "
                                 "torus point %s" % (coords, t))
            coords = values
        elif coords is None or provenance not in ((FLOW,), (LIMIT,)):
            raise ValueError("provenance must be (%r, t), or (%r,) or (%r,) with coordinates"
                             % (TORUS, FLOW, LIMIT))
        else:
            support = [j for j, c in enumerate(coords) if c != 0]
            relations = monoid.face_relations(support)
            values = characters(coords, [r.entries for r in relations])
            for relation, value in zip(relations, values):
                if value != 1:
                    raise ValueError("coordinates %s violate the relation %s"
                                     % (coords, relation.entries))
        self._set(monoid, coords, provenance)

    @property
    def is_torus(self):
        return self.provenance[0] == TORUS


def torus_point(mon, t):
    """The point with chi^(u_j) = prod_k t_k^(u_j_k); t must be nonzero."""
    return ToricPoint(mon, None, (TORUS, t))


def limit_point(mon, subgroup, point):
    """Limit of t.point as t -> 0, or None when a negative degree blocks it.

    The limit exists exactly when every coordinate that is nonzero at the
    point has nonnegative degree; positive-degree coordinates go to zero.
    """
    if subgroup.side != N_SIDE:
        raise ValueError("subgroup must be an N-side vector")
    if point.monoid != mon:
        raise ValueError("point belongs to a different monoid")
    degrees = [dot(subgroup.entries, g.entries) for g in mon.generators]
    for c, k in zip(point.coords, degrees):
        if c != 0 and k < 0:
            return None
    coords = tuple(c if k == 0 else _ZERO for c, k in zip(point.coords, degrees))
    return ToricPoint(mon, coords, (LIMIT,))


def evaluate(element, point):
    """Value of an algebra element at a point: the sum of c * chi^u there.

    A torus point t gives chi^u(t) from t.  Any other point raises its
    coordinates to a fixed generator decomposition of u; the relation
    checks at construction make the value independent of the decomposition
    on nonvanishing coordinates.
    """
    if element.monoid != point.monoid:
        raise ValueError("element and point live over different monoids")
    if point.is_torus:
        values, rows = point.provenance[1], [u.entries for u, _ in element.terms]
    else:
        values, rows = point.coords, [point.monoid.decompose(u) for u, _ in element.terms]
        assert None not in rows, "exponent invariant violated"
    return sum((c * x for (_, c), x in zip(element.terms, characters(values, rows))), _ZERO)


def ga_flow_point(lnd, s, point):
    """Image of a torus point t under the additive flow at time s.

    Coordinate j is t^(u_j) * (1 + s*t^e)^<p,u_j>, the closed form of
    exp(s*d)(chi^(u_j)) evaluated at t.  The point holds the t^(u_j) and
    lnd.degrees the <p,u_j>, so only t^e is formed from t; the image is
    built as a ToricPoint, which checks the relations of its face.
    """
    if point.monoid != lnd.monoid:
        raise ValueError("point belongs to a different monoid")
    if not point.is_torus:
        raise ValueError("the additive flow starts from a torus point")
    step = 1 + rational(s) * _root_value(lnd, point)
    return ToricPoint(lnd.monoid, _flowed(lnd, step, point.coords), (FLOW,))


def _flowed(lnd, step, coords):
    """The c_j * step^<p,u_j> for step = 1 + s*t^e, refused before they are
    formed when they could pass POWER_BIT_CAP bits."""
    powers = iter(characters([step], [[k] for k in lnd.degrees if k]))
    return tuple(c * next(powers) if k else c for c, k in zip(coords, lnd.degrees))


def _root_value(lnd, point):
    """t^e for the root e of lnd at the torus point t, refused before it is
    formed when it could pass POWER_BIT_CAP bits."""
    return characters(point.provenance[1], [lnd.root.vector.entries])[0]


def witness_derivation(mon, grading):
    """The derivation of the smallest root at the distinguished ray of a
    parabolic grading of mon, and the box that held the root.  Raises
    NormalityRequired on an unsaturated monoid, then NotParabolic."""
    saturation = mon.saturation()
    if not saturation.saturated:
        raise NormalityRequired(saturation.witness.entries)
    if grading.kind is not GradingKind.PARABOLIC:
        raise NotParabolic(grading.kind, "a compatible additive action needs a parabolic grading")
    root, box = smallest_root_at_ray(mon.dual_cone, grading.ray_index)
    return HomogeneousLND(mon, root), box


class InvariantCheck(namedtuple("InvariantCheck", "exponent base_value gm_values "
                                "ga_values constant annihilated")):
    """One degree-zero generator u.  For a parabolic l, a positive multiple
    of p, <l,u> = <p,u> = 0: gm_values and ga_values follow the closed forms
    t^u*t0^<l,u> and t^u*(1 + s*t^e)^<p,u>, so constant holds by form, and
    so does annihilated, d(chi^u) = <p,u>*chi^(u+e) = 0."""

    __slots__ = ()


class CompatibilityReport(namedtuple("CompatibilityReport", (
        "passed subgroup point ray_index ray root root_box invariant_checks limit "
        "flow_parameter reached_exactly gm_samples ga_samples derived_facts"))):
    """Outcome of verify_compatible, structured for rendering."""

    __slots__ = ()


DEFAULT_GM_SAMPLES = (Fraction(2), Fraction(1, 2), Fraction(-3))
DEFAULT_GA_SAMPLES = (Fraction(1), Fraction(-1), Fraction(7, 3))


def verify_compatible(mon, subgroup, point,
                      gm_samples=DEFAULT_GM_SAMPLES,
                      ga_samples=DEFAULT_GA_SAMPLES, witness=None):
    """Certify that the additive flow of a smallest root at the
    distinguished ray is compatible with the multiplicative action.

    Requires a saturated monoid, a parabolic grading and a torus point.
    witness is witness_derivation's (lnd, box), built here when None; a
    given one is not classified again, and raises ValueError unless it is
    over mon at the ray primitive(subgroup).  Once l is a positive multiple
    of p, constant, annihilated (see InvariantCheck) and reached_exactly
    follow from closed forms: at s* = -chi^(-e)(t) every factor 1 + s*t^e
    vanishes, so the flow drops the coordinates of positive degree as the
    limit at t -> 0 does.  The run forms t^e once and checks that the
    HomogeneousLND is well defined and that the limit point passes the
    relation checks of its face; flowed coordinates at s* that differ from
    the limit's are built as a flow point, which checks its own face.
    """
    if witness is None:
        witness = witness_derivation(mon, classify(mon.weight_cone, subgroup))
    lnd, root_box = witness
    if lnd.monoid != mon or primitive(subgroup) != lnd.ray:
        raise ValueError("the witness is not at the subgroup's ray of this monoid")
    if not point.is_torus:
        raise ValueError("verification starts from a torus point")
    gm_samples = tuple(map(rational, gm_samples))
    ga_samples = tuple(map(rational, ga_samples))
    if any(t == 0 for t in gm_samples):
        raise ValueError("multiplicative samples must be nonzero")

    # l = c*p, so a generator g of degree <p,g> = 0 has <l,g> = 0: base*t0^0
    # and base*(1 + s*t^e)^0 are base itself, and d(chi^g) = <p,g>*chi^(g+e)
    # vanishes by form
    checks = tuple(InvariantCheck(g, base, (base,) * len(gm_samples),
                                  (base,) * len(ga_samples), True, True)
                   for g, base, k in zip(mon.generators, point.coords, lnd.degrees) if not k)

    limit = limit_point(mon, subgroup, point)
    assert limit is not None, "parabolic gradings always have limits"

    root_value = _root_value(lnd, point)
    flow_parameter = -1 / root_value
    image = _flowed(lnd, 1 + flow_parameter * root_value, point.coords)
    reached = image == limit.coords
    if not reached:
        ToricPoint(mon, image, (FLOW,))

    derived_facts = ()
    if reached:
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
        passed=reached,
        subgroup=subgroup,
        point=point,
        ray_index=lnd.root.ray_index,
        ray=lnd.ray,
        root=lnd.root,
        root_box=root_box,
        invariant_checks=checks,
        limit=limit,
        flow_parameter=flow_parameter,
        reached_exactly=reached,
        gm_samples=gm_samples,
        ga_samples=ga_samples,
        derived_facts=derived_facts,
    )
