"""Pointed rational polyhedral cones in double description.

A Cone stores both its extreme rays and its facet normals, each primitive
and lex-sorted.  Construction from rays computes the facet normals by
incremental double description over exact integers (Motzkin, Raiffa,
Thompson and Thrall 1953; Fukuda and Prodon 1996), with adjacency decided
from incidence sets alone.  Only full-dimensional pointed cones are
representable; their duals are then full-dimensional and pointed too, so
dualizing is just a role swap.  Ambient rank is capped at RANK_LIMIT, and
one double-description step may combine at most DD_PAIR_CAP facet pairs.
"""

from collections import namedtuple
from functools import reduce
from operator import and_, mul

from .errors import (
    BoundExceeded,
    NotFullDimensional,
    NotPointed,
    RankLimitExceeded,
)
from .lattice import (
    M_SIDE,
    N_SIDE,
    Frozen,
    adjugate,
    dot,
    int_entries,
    pivot_columns,
    primitive_tuple,
    trusted_vectors,
)

RANK_LIMIT = 4
DD_PAIR_CAP = 50_000


def _other_side(side):
    return M_SIDE if side == N_SIDE else N_SIDE


def _double_description(rays, basis):
    """Extreme rays of the cone {h : <h, r> >= 0 for every ray r}, each
    primitive and paired with its incidence mask (bit i set when h
    vanishes on rays[i]).  basis indexes rays that form a basis of the
    ambient space.

    The basis rays alone cut out a simplicial cone, whose extreme rays are
    the cofactor normals, read off one elimination by adjugate.  The other
    rays are then added one at a time: extreme rays h with <h, r> >= 0
    stay, and each pair of a positive and a negative one is combined into a
    new extreme ray on r^perp when the pair is adjacent: when no third
    extreme ray vanishes on all of their common incidence set Z.  Adjacency
    needs |Z| >= dim - 2, which is checked first.  A step over DD_PAIR_CAP
    pairs is refused before any pair is combined.
    """
    dim = len(basis)
    normals, masks = [], []
    for i, h in zip(basis, adjugate([rays[i] for i in basis])[1]):
        normals.append(primitive_tuple(h if dot(h, rays[i]) > 0 else [-a for a in h]))
        masks.append(sum(1 << k for k in basis if k != i))
    for j, r in enumerate(rays):
        if j in basis:
            continue
        values = [sum(map(mul, h, r)) for h in normals]
        pos = [k for k, v in enumerate(values) if v > 0]
        neg = [k for k, v in enumerate(values) if v < 0]
        if len(pos) * len(neg) > DD_PAIR_CAP:
            raise BoundExceeded(
                "cone duality at generator %d of %d would combine %d facet "
                "pairs, over DD_PAIR_CAP = %d; give fewer generators"
                % (j + 1, len(rays), len(pos) * len(neg), DD_PAIR_CAP))
        bit = 1 << j
        new_normals = [h for h, v in zip(normals, values) if v >= 0]
        new_masks = [m | bit if v == 0 else m for m, v in zip(masks, values) if v >= 0]
        for a in pos:
            for b in neg:
                common = masks[a] & masks[b]
                if common.bit_count() < dim - 2:
                    continue
                holders = 0  # facets on all of common: a, b and perhaps a third
                for mask in masks:
                    holders += mask & common == common
                    if holders == 3:
                        break
                else:
                    new_normals.append(primitive_tuple(
                        [values[a] * x - values[b] * y for x, y in zip(normals[b], normals[a])]))
                    new_masks.append(common | bit)
        normals, masks = new_normals, new_masks
    return list(zip(normals, masks))


class Face(namedtuple("Face", "rays dim")):
    """A face of a cone: the cone's rays that lie on it, and its dimension."""

    __slots__ = ()


class Cone(Frozen):
    """Full-dimensional pointed cone with rays and facet normals."""

    __slots__ = ("side", "rank", "rays", "facet_normals")

    def __init__(self, side, rank, rays, facet_normals):
        self._set(side, rank, rays, facet_normals)

    @classmethod
    def from_rays(cls, rays, rank, side):
        """Build the double description from generating rays.

        Raises NotPointed when the cone contains a line, NotFullDimensional
        when the rays fail to span, RankLimitExceeded above RANK_LIMIT.
        Non-extreme generators are dropped; rays and normals come out
        primitive and lex-sorted.
        """
        if side not in (N_SIDE, M_SIDE):
            raise ValueError("side must be N or M")
        if rank > RANK_LIMIT:
            raise RankLimitExceeded(
                "rank %d exceeds RANK_LIMIT = %d; give vectors of at most %d entries"
                % (rank, RANK_LIMIT, RANK_LIMIT))
        cleaned = []
        for r in rays:
            entries = int_entries(r)
            if len(entries) != rank:
                raise ValueError("ray length does not match rank")
            cleaned.append(primitive_tuple(entries))
        if not cleaned:
            raise ValueError("a cone needs at least one ray")
        ray_tuples = sorted(set(cleaned))

        # Rays that span only a k-dimensional subspace are projected onto
        # the pivot coordinates of their echelon form, which is injective
        # on that subspace, so the image contains a line exactly when the
        # cone does.  A ray on every facet spans a line, and a nonzero
        # lineality space is spanned by the rays it contains, so a bit set
        # in every facet mask means a line.  A line is refused first, so a
        # flat cone with a line keeps its NotPointed error.
        basis = pivot_columns(list(zip(*ray_tuples)))
        coords = pivot_columns(ray_tuples) if len(basis) < rank else range(rank)
        facets = _double_description(
            [tuple(r[c] for c in coords) for r in ray_tuples], basis)
        masks = [mask for _, mask in facets]
        everything = (1 << len(ray_tuples)) - 1
        if reduce(and_, masks, everything):
            raise NotPointed("cone generated by %s contains a line" % (ray_tuples,))
        if len(basis) < rank:
            raise NotFullDimensional(
                "rays %s span a proper subspace" % (ray_tuples,))

        # A ray is extreme when no other ray lies on every facet through it.
        extreme = [r for i, r in enumerate(ray_tuples) if reduce(
            and_, [mask for mask in masks if mask >> i & 1], everything) == 1 << i]
        facet_normals = sorted(h for h, _ in facets)

        other = _other_side(side)
        return cls(
            side=side,
            rank=rank,
            rays=tuple(trusted_vectors(extreme, side)),
            facet_normals=tuple(trusted_vectors(facet_normals, other)),
        )

    def dual(self):
        """Swap roles: the dual's rays are this cone's facet normals."""
        return Cone(
            side=_other_side(self.side),
            rank=self.rank,
            rays=self.facet_normals,
            facet_normals=self.rays,
        )

    def contains_tuple(self, entries):
        return all(dot(h.entries, entries) >= 0 for h in self.facet_normals)

    def facets(self):
        """All codimension-one faces, one per facet normal: double
        description yields facet-defining normals only."""
        return [Face(tuple(r for r in self.rays if dot(h.entries, r.entries) == 0),
                     self.rank - 1)
                for h in self.facet_normals]

    def __repr__(self):
        return "Cone(%s, rank=%d, rays=%s)" % (
            self.side, self.rank, [r.entries for r in self.rays])
