"""Scene documents: the JSON input format of the command line tool.

A scene fixes the ambient rank and exactly one of

  cone_rays          N-side integer vectors generating the orbit cone
  monoid_generators  M-side integer vectors generating the weight monoid

plus optional named torus points and named subgroup vectors.  Rationals
travel as "p/q" strings or plain integers, never floats.  Either list is
checked at load and spans one cone, from which sigma and the weight cone
are read without building the monoid.  The monoid of a cone scene is
weight_cone ∩ M, saturated by construction, whose generators are the
Hilbert basis, computed on first use; generator order of monoid scenes is
preserved because point coordinates are indexed against it.
"""

import json

from .algebra import INTEGER, rational
from .cones import Cone
from .errors import SceneError
from .lattice import LatticeVector, M_SIDE, N_SIDE
from .monoid import AffineMonoid
from .orbits import torus_point

try:  # CPython's builtin SHA-256: hashlib would load OpenSSL on every call
    from _sha256 import sha256  # up to Python 3.11
except ImportError:
    try:
        from _sha2 import sha256  # from Python 3.12
    except ImportError:  # a build without builtin hashes
        from hashlib import sha256

_TOP_KEYS = {"rank", "cone_rays", "monoid_generators", "points", "subgroups"}
# The two vector lists: what one vector is called, and its lattice.
_VECTOR_LISTS = {"cone_rays": ("ray", N_SIDE), "monoid_generators": ("generator", M_SIDE)}


def _shown(value):
    """repr of a rejected value, cut to about 60 characters."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def parse_rational(value, where):
    """An exact rational from an integer or a string such as '-7/3', not
    '1e9': algebra.rational's reading, refused as a SceneError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SceneError("%s: rationals are integers or 'p/q' strings, got %s"
                         % (where, _shown(value)))
    try:
        return rational(value)
    except (ValueError, ZeroDivisionError):
        raise SceneError("%s: cannot parse rational %s" % (where, _shown(value)))


def integer(text):
    """One command-line integer: an optional sign, then ASCII digits."""
    if not INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


def parse_integers(text, length, where):
    """A comma list of exactly length integers, as --root and --l take."""
    parts = text.split(",")
    try:
        if len(parts) != length:
            raise ValueError(text)
        return tuple([integer(part) for part in parts])
    except ValueError:  # a bad part, or one past the int->str digit limit
        raise SceneError("%s must be %d comma separated integers, got %s"
                         % (where, length, _shown(text)))


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
        keys = [key for key in _VECTOR_LISTS if key in raw]
        if len(keys) != 1:
            raise SceneError("scene needs exactly one of cone_rays or monoid_generators")
        key, = keys
        noun, self.side = _VECTOR_LISTS[key]
        vectors = raw[key]
        if not isinstance(vectors, list) or not vectors:
            raise SceneError("%s must be a nonempty list" % key)
        self.vectors = tuple(_int_vector(v, rank, "%s[%d]" % (key, i))
                             for i, v in enumerate(vectors))
        for i, v in enumerate(self.vectors):
            if not any(v):
                raise SceneError("%s[%d]: the zero vector is not a %s" % (key, i, noun))
        if self.side == M_SIDE and len(set(self.vectors)) != len(self.vectors):
            raise SceneError("monoid_generators must be pairwise distinct")

        self.point_coords = {}
        points = raw.get("points", {})
        if not isinstance(points, dict):
            raise SceneError("points must be an object")
        for name, body in points.items():
            where = "points[%s]" % _shown(name)
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
            entries = _int_vector(vec, rank, "subgroups[%s]" % _shown(name))
            if all(e == 0 for e in entries):
                raise SceneError("subgroups[%s]: the zero vector does not grade"
                                 % _shown(name))
            self.subgroups[name] = LatticeVector(entries, N_SIDE)

        self.raw = raw
        self._cone = None
        self._monoid = None

    @property
    def digest(self):
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()

    def primary_cone(self):
        """The cone the scene wrote, which `dual` and `facets` operate on:
        sigma on N for cone_rays, the weight cone on M for monoid_generators,
        taken from the monoid when that was built first."""
        if self._cone is None:
            self._cone = (self._monoid.weight_cone if self._monoid is not None
                          else Cone.from_rays(self.vectors, self.rank, self.side))
        return self._cone

    def sigma(self):
        cone = self.primary_cone()
        return cone if cone.side == N_SIDE else cone.dual()

    def weight_cone(self):
        cone = self.primary_cone()
        return cone if cone.side == M_SIDE else cone.dual()

    def monoid(self):
        if self._monoid is None:
            self._monoid = (AffineMonoid(self.vectors, self.rank) if self.side == M_SIDE
                            else AffineMonoid.of_cone(self.weight_cone()))
        return self._monoid

    def torus(self, name):
        if name not in self.point_coords:
            raise SceneError("unknown point %s; scene defines %s"
                             % (_shown(name), _shown(sorted(self.point_coords))))
        return self.point_coords[name]

    def point(self, name):
        """The named torus point; the monoid is built before the name is read,
        and a cone scene's Hilbert basis after it."""
        return torus_point(self.monoid(), self.torus(name))

    def subgroup_vector(self, text):
        """Resolve --l arguments: a named subgroup or a comma list."""
        if text in self.subgroups:
            return self.subgroups[text]
        entries = parse_integers(text, self.rank, "--l, if not a subgroup name,")
        if all(e == 0 for e in entries):
            raise SceneError("the zero vector does not grade")
        return LatticeVector(entries, N_SIDE)


def load_scene(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as error:
        raise SceneError("scene is not valid JSON: %s" % error)
    except (ValueError, RecursionError) as error:
        # an integer past the int->str digit limit, or nesting too deep
        raise SceneError("scene cannot be read: %s" % error)
    return Scene(raw)
