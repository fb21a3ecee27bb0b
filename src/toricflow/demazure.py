"""Demazure roots of a pointed full-dimensional cone in N.

An M-side vector e is a root when it pairs to -1 with exactly one
primitive ray generator (the distinguished ray) and nonnegatively with all
others.  Enumeration is a brute-force scan of the max-norm box; that is
the reference semantics, exhaustive within the box by construction.  For
rank two and higher each ray carries infinitely many roots, which the
toolkit witnesses by strictly growing box counts, never by assertion.
"""

from dataclasses import dataclass
from itertools import product

from .lattice import M_SIDE, N_SIDE, LatticeVector


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

    The scan is the definition filter over every lattice point of the box;
    ray_index restricts the output to one distinguished ray.
    """
    if sigma.side != N_SIDE:
        raise ValueError("roots are taken against an N-side cone")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    rays = [r.entries for r in sigma.rays]
    if ray_index is not None and not 0 <= ray_index < len(rays):
        raise ValueError("ray index out of range")
    found = []
    span = range(-bound, bound + 1)
    for point in product(span, repeat=sigma.rank):
        distinguished = _distinguished_ray(rays, point)
        if distinguished is not None and ray_index in (None, distinguished):
            found.append((distinguished, point))
    found.sort()
    return [DemazureRoot(LatticeVector(point, M_SIDE), i) for i, point in found]


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
