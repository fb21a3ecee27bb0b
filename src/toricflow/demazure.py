"""Demazure roots of a pointed full-dimensional cone in N.

An M-side vector e is a root when it pairs to -1 with exactly one
primitive ray generator (the distinguished ray) and nonnegatively with all
others.  Every root at the ray p lies on the hyperplane <p,e> = -1, so
enumeration walks that slice of the max-norm box, one ray at a time: the
other coordinates range over the box and the pivot coordinate is solved
for.  The slice holds (2b+1)^(d-1) points where the box holds (2b+1)^d;
the plain box scan is kept in the tests as the oracle.  A scan larger
than ROOT_POINT_CAP slice points is refused.  For rank two and higher
each ray carries infinitely many roots, which the toolkit witnesses by
strictly growing box counts, never by assertion.
"""

from dataclasses import dataclass
from itertools import product

from .errors import BoundExceeded
from .lattice import M_SIDE, N_SIDE, LatticeVector

ROOT_POINT_CAP = 1_000_000


@dataclass(frozen=True)
class DemazureRoot:
    """A root vector together with the index of its distinguished ray."""

    vector: LatticeVector
    ray_index: int


def _distinguished_ray(rays, entries):
    """Index of the one ray pairing to -1 with entries while every other
    ray pairs nonnegatively, or None when the root condition fails."""
    distinguished = None
    for i, ray in enumerate(rays):
        value = sum(a * b for a, b in zip(ray, entries))
        if value < 0:
            if value != -1 or distinguished is not None:
                return None
            distinguished = i
    return distinguished


def is_root(sigma, e):
    """Check the root condition of e against sigma's rays.

    Returns the DemazureRoot (the distinguished ray is unique when the
    condition holds) or None.
    """
    if sigma.side != N_SIDE:
        raise ValueError("roots are taken against an N-side cone")
    entries = tuple(int(x) for x in (e.entries if isinstance(e, LatticeVector) else e))
    if len(entries) != sigma.rank:
        raise ValueError("rank mismatch")
    distinguished = _distinguished_ray([r.entries for r in sigma.rays], entries)
    if distinguished is None:
        return None
    return DemazureRoot(LatticeVector(entries, M_SIDE), distinguished)


def roots_in_box(sigma, bound, ray_index=None):
    """All roots with max-norm at most bound, ordered by (ray, lex).

    For each ray p the scan takes the coordinate j of largest |p_j| as
    pivot, runs the others over the box and keeps e_j = (-1 - sum of
    p_i*e_i over i != j) / p_j when the division is exact and |e_j| <=
    bound; a kept point is a root at p when the root condition names p.
    ray_index restricts the scan to one distinguished ray.  Raises
    BoundExceeded when the slices hold more than ROOT_POINT_CAP points.
    """
    if sigma.side != N_SIDE:
        raise ValueError("roots are taken against an N-side cone")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    rays = [r.entries for r in sigma.rays]
    if ray_index is not None and not 0 <= ray_index < len(rays):
        raise ValueError("ray index out of range")
    indices = range(len(rays)) if ray_index is None else [ray_index]
    points = len(indices) * (2 * bound + 1) ** (sigma.rank - 1)
    if points > ROOT_POINT_CAP:
        raise BoundExceeded(
            "root enumeration at max-norm %d would scan %d slice points, "
            "over the cap of %d; lower --box" % (bound, points, ROOT_POINT_CAP))
    found = []
    span = range(-bound, bound + 1)
    for i in indices:
        p = rays[i]
        j = max(range(len(p)), key=lambda k: abs(p[k]))
        rest = p[:j] + p[j + 1:]
        at_ray = []
        for others in product(span, repeat=sigma.rank - 1):
            level = -1 - sum(a * b for a, b in zip(rest, others))
            pivot, remainder = divmod(level, p[j])
            if remainder or abs(pivot) > bound:
                continue
            point = others[:j] + (pivot,) + others[j:]
            if _distinguished_ray(rays, point) == i:
                at_ray.append(point)
        found.extend(DemazureRoot(LatticeVector(point, M_SIDE), i)
                     for point in sorted(at_ray))
    return found


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
