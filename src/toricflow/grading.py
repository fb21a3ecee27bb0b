"""Classification of the grading induced by a one-parameter subgroup.

An N-side vector l grades the monoid algebra by u -> <l, u>.  The sign
pattern of l on the rays of the weight cone sorts the action into four
mutually exclusive kinds:

  Hyperbolic             some ray value is negative
  Parabolic              l >= 0 and its zero face is a facet
  Elliptic               l > 0 on every ray (zero face is the origin)
  DegenerateNonnegative  l >= 0 with a zero face of intermediate dimension

Parabolic is tested before Elliptic: in rank one the origin is itself the
facet, the two conditions coincide there, and the straightening pairs
require the parabolic reading.  For a parabolic l the zero face is dual to
a unique ray of the dual cone, the distinguished ray; l is automatically a
positive multiple of its primitive generator.
"""

from collections import namedtuple
from enum import Enum
from math import gcd

from .cones import Face
from .errors import NormalityRequired
from .lattice import M_SIDE, N_SIDE, LatticeVector, dot, matrix_rank, primitive


class GradingKind(Enum):
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"
    DEGENERATE_NONNEGATIVE = "DegenerateNonnegative"


class GradingClass(namedtuple("GradingClass",
                              "kind zero_face ray_index degree_gcd effective")):
    """Outcome of classify.  zero_face and ray_index are None when the
    grading is hyperbolic; ray_index is set only for parabolic gradings."""

    __slots__ = ()


def classify(cone, subgroup):
    """Sort the grading by the N-side vector subgroup of a monoid, saturated
    or not, with weight cone cone.  The monoid's generators generate M, so
    the gcd of their degrees <l, g> is that of <l, M>: degree_gcd is gcd(l),
    and the grading is effective exactly when it is 1.  A parabolic l is a
    positive multiple of the inner normal of its zero facet, so ray_index
    is the index of primitive(l) among the facet normals, the dual's rays.
    """
    if not isinstance(subgroup, LatticeVector) or subgroup.side != N_SIDE:
        raise ValueError("classify needs an N-side vector")
    if not any(subgroup.entries):
        raise ValueError("the zero vector does not grade")
    if cone.side != M_SIDE:
        raise ValueError("classify needs the M-side weight cone")
    degree_gcd = gcd(*subgroup.entries)
    effective = degree_gcd == 1
    values = [dot(subgroup.entries, r.entries) for r in cone.rays]
    if min(values) < 0:
        return GradingClass(GradingKind.HYPERBOLIC, None, None, degree_gcd, effective)
    face_rays = tuple(r for r, v in zip(cone.rays, values) if v == 0)
    face = Face(face_rays, matrix_rank([r.entries for r in face_rays]))
    if face.dim == cone.rank - 1:
        ray_index = cone.facet_normals.index(primitive(subgroup))
        return GradingClass(GradingKind.PARABOLIC, face, ray_index, degree_gcd, effective)
    if face.dim == 0:
        return GradingClass(GradingKind.ELLIPTIC, face, None, degree_gcd, effective)
    return GradingClass(GradingKind.DEGENERATE_NONNEGATIVE, face, None, degree_gcd, effective)


class FixedDivisor(namedtuple("FixedDivisor", "ray_index ray vanishing surviving")):
    """Fixed-point locus of a parabolic action, as coordinate data.

    ray is the dual-cone ray p at ray_index, the subtorus that fixes the
    divisor pointwise.  vanishing lists the generator indices whose
    coordinates are zero on the divisor (positive degree), surviving those
    of degree zero.
    """

    __slots__ = ()


def _divisor(mon, ray_index):
    """The divisor fixed by the subtorus along dual ray ray_index."""
    ray = mon.dual_cone.rays[ray_index]
    degrees = [dot(ray.entries, g.entries) for g in mon.generators]
    vanishing = tuple(j for j, v in enumerate(degrees) if v > 0)
    surviving = tuple(j for j, v in enumerate(degrees) if v == 0)
    return FixedDivisor(ray_index, ray, vanishing, surviving)


def straightening_subtori(mon):
    """The fixed divisors of the straightening subtori, one per ray of the
    dual cone in ray order; each divisor's ray is its subtorus.

    Requires a saturated monoid; the induced product structure near the
    divisor is what saturation buys.
    """
    result = mon.saturation()
    if not result.saturated:
        raise NormalityRequired(result.witness.entries)
    return tuple(_divisor(mon, k) for k in range(len(mon.dual_cone.rays)))
