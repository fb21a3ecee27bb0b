"""Scene documents: the JSON input format of the command line tool.

A scene fixes the ambient rank and exactly one of

  cone_rays          N-side integer vectors generating the orbit cone
  monoid_generators  M-side integer vectors generating the weight monoid

plus optional named torus points and named subgroup vectors.  Rationals
travel as "p/q" strings or plain integers, never floats.  Cone scenes get
their monoid from the Hilbert basis of the dual weight cone, so they are
saturated by construction; generator order of monoid scenes is preserved
because point coordinates are indexed against it.
"""

import hashlib
import json
from fractions import Fraction

from .cones import Cone
from .errors import SceneError
from .lattice import LatticeVector, M_SIDE, N_SIDE
from .monoid import AffineMonoid, hilbert_basis
from .orbits import torus_point

_TOP_KEYS = {"rank", "cone_rays", "monoid_generators", "points", "subgroups"}


def parse_rational(value, where):
    if isinstance(value, bool):
        raise SceneError("%s: booleans are not rationals" % where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SceneError("%s: cannot parse rational %r" % (where, value))
    raise SceneError("%s: rationals are integers or 'p/q' strings, got %r"
                     % (where, value))


def _int_vector(value, rank, where):
    if (not isinstance(value, list) or len(value) != rank
            or any(isinstance(e, bool) or not isinstance(e, int) for e in value)):
        raise SceneError("%s: expected a list of %d integers" % (where, rank))
    return tuple(value)


class Scene:
    """Validated scene with lazy cone and monoid construction."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise SceneError("scene must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise SceneError("unknown scene keys: %s" % sorted(unknown))
        rank = raw.get("rank")
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise SceneError("rank must be a positive integer")
        self.rank = rank
        has_cone = "cone_rays" in raw
        has_monoid = "monoid_generators" in raw
        if has_cone == has_monoid:
            raise SceneError(
                "scene needs exactly one of cone_rays or monoid_generators")
        self.cone_rays = None
        self.monoid_generators = None
        if has_cone:
            rays = raw["cone_rays"]
            if not isinstance(rays, list) or not rays:
                raise SceneError("cone_rays must be a nonempty list")
            self.cone_rays = tuple(
                _int_vector(r, rank, "cone_rays[%d]" % i)
                for i, r in enumerate(rays))
        else:
            gens = raw["monoid_generators"]
            if not isinstance(gens, list) or not gens:
                raise SceneError("monoid_generators must be a nonempty list")
            self.monoid_generators = tuple(
                _int_vector(g, rank, "monoid_generators[%d]" % i)
                for i, g in enumerate(gens))

        self.point_coords = {}
        points = raw.get("points", {})
        if not isinstance(points, dict):
            raise SceneError("points must be an object")
        for name, body in points.items():
            where = "points[%r]" % name
            if not isinstance(body, dict) or set(body) != {"torus"}:
                raise SceneError("%s: a point is {\"torus\": [...]}" % where)
            values = body["torus"]
            if not isinstance(values, list) or len(values) != rank:
                raise SceneError("%s: torus needs %d coordinates" % (where, rank))
            t = tuple(parse_rational(v, where) for v in values)
            if any(x == 0 for x in t):
                raise SceneError("%s: torus coordinates must be nonzero" % where)
            self.point_coords[name] = t

        self.subgroups = {}
        subgroups = raw.get("subgroups", {})
        if not isinstance(subgroups, dict):
            raise SceneError("subgroups must be an object")
        for name, vec in subgroups.items():
            entries = _int_vector(vec, rank, "subgroups[%r]" % name)
            if all(e == 0 for e in entries):
                raise SceneError("subgroups[%r]: the zero vector does not grade"
                                 % name)
            self.subgroups[name] = LatticeVector(entries, N_SIDE)

        self.raw = raw
        self._sigma = None
        self._monoid = None

    @property
    def digest(self):
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def sigma(self):
        """The N-side cone: given directly, or the dual of the weight cone."""
        if self._sigma is None:
            if self.cone_rays is not None:
                self._sigma = Cone.from_rays(self.cone_rays, self.rank, N_SIDE)
            else:
                self._sigma = self.monoid().dual_cone
        return self._sigma

    def weight_cone(self):
        if self.cone_rays is not None:
            return self.sigma().dual()
        return self.monoid().weight_cone

    def primary_cone(self):
        """What `dual` and `facets` operate on: the cone the scene wrote."""
        if self.cone_rays is not None:
            return self.sigma()
        return self.monoid().weight_cone

    def monoid(self):
        if self._monoid is None:
            if self.monoid_generators is not None:
                try:
                    self._monoid = AffineMonoid(self.monoid_generators, self.rank)
                except ValueError as error:
                    raise SceneError("monoid_generators: %s" % error)
            else:
                cone = self.weight_cone()
                self._monoid = AffineMonoid(hilbert_basis(cone), self.rank,
                                            _weight_cone=cone)
        return self._monoid

    def point(self, name):
        if name not in self.point_coords:
            raise SceneError("unknown point %r; scene defines %s"
                             % (name, sorted(self.point_coords)))
        return torus_point(self.monoid(), self.point_coords[name])

    def subgroup_vector(self, text):
        """Resolve --l arguments: a named subgroup or a comma list."""
        if text in self.subgroups:
            return self.subgroups[text]
        try:
            entries = tuple(int(part.strip()) for part in text.split(","))
        except ValueError:
            raise SceneError(
                "subgroup %r is neither a scene name nor a comma list" % text)
        if len(entries) != self.rank:
            raise SceneError("subgroup %r must have %d entries" % (text, self.rank))
        if all(e == 0 for e in entries):
            raise SceneError("the zero vector does not grade")
        return LatticeVector(entries, N_SIDE)


def load_scene(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as error:
        raise SceneError("scene is not valid JSON: %s" % error)
    return Scene(raw)
