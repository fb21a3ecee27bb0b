"""Finitely generated submonoids of the character lattice.

An AffineMonoid is given by a finite generator list in M.  Its weight cone
must be full-dimensional and pointed, and the generators must generate the
whole lattice as a group (an effectiveness condition; scaling gradings are
measured against it).  Saturation is decided by checking the Hilbert basis
of the weight cone for membership, so the cuspidal-style monoids that miss
lattice points of their cone are detected with an explicit witness.
"""

from dataclasses import dataclass
from itertools import product

from .cones import Cone
from .errors import BoundExceeded, NotEffective, RankLimitExceeded
from .lattice import (
    LatticeVector,
    M_SIDE,
    dot,
    generates_full_lattice,
    integer_kernel,
)

HILBERT_RANK_LIMIT = 3
_HILBERT_BOX_CAP = 400_000


def hilbert_basis(cone):
    """Minimal generating set of cone ∩ M for a pointed full-dimensional cone.

    Every irreducible element lies in the zonotope spanned by the primitive
    rays: an element with a ray coefficient >= 1 splits off that ray.  So it
    suffices to scan the integer points of the zonotope's bounding box and
    greedily discard sums of two nonzero cone points, in increasing order of
    a strictly positive functional.  Rank is capped at HILBERT_RANK_LIMIT.

    >>> c = Cone.from_rays([(1, 0), (1, 2)], 2, M_SIDE)
    >>> [v.entries for v in hilbert_basis(c)]
    [(1, 0), (1, 1), (1, 2)]
    """
    if cone.side != M_SIDE:
        raise ValueError("Hilbert basis is computed on the weight side")
    if cone.rank > HILBERT_RANK_LIMIT:
        raise RankLimitExceeded(
            "Hilbert basis supports rank <= %d, got %d"
            % (HILBERT_RANK_LIMIT, cone.rank))
    rays = [r.entries for r in cone.rays]
    d = cone.rank
    lo = [sum(min(0, r[j]) for r in rays) for j in range(d)]
    hi = [sum(max(0, r[j]) for r in rays) for j in range(d)]
    volume = 1
    for a, b in zip(lo, hi):
        volume *= b - a + 1
    if volume > _HILBERT_BOX_CAP:
        raise BoundExceeded(
            "zonotope bounding box holds %d points, cap is %d"
            % (volume, _HILBERT_BOX_CAP))
    normals = [h.entries for h in cone.facet_normals]

    def positive_level(u):
        return sum(dot(h, u) for h in normals)

    candidates = []
    for u in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(e == 0 for e in u):
            continue
        if all(dot(h, u) >= 0 for h in normals):
            candidates.append(u)
    candidates.sort(key=lambda u: (positive_level(u), u))
    basis = []
    for u in candidates:
        reducible = False
        for h in basis:
            w = tuple(a - b for a, b in zip(u, h))
            if any(e != 0 for e in w) and cone.contains_tuple(w):
                reducible = True
                break
        if not reducible:
            basis.append(u)
    basis.sort()
    return [LatticeVector(u, M_SIDE) for u in basis]


@dataclass(frozen=True)
class SaturationResult:
    saturated: bool
    witness: LatticeVector | None


class AffineMonoid:
    """Submonoid of M given by generators, with membership and saturation.

    Generator order is preserved; point coordinates and algebra elements
    are indexed against it.  Instances are immutable in value; the caches
    only ever grow.

    _weight_cone is internal to cone scenes, whose generators are the
    Hilbert basis of that cone in hilbert_basis order: the cone and the
    basis are then taken as given rather than computed a second time.
    """

    def __init__(self, generators, rank, _weight_cone=None):
        if rank < 1:
            raise ValueError("rank must be positive")
        gens = []
        for g in generators:
            entries = tuple(int(e) for e in (g.entries if isinstance(g, LatticeVector) else g))
            if len(entries) != rank:
                raise ValueError("generator length does not match rank")
            if all(e == 0 for e in entries):
                raise ValueError("zero vector cannot be a generator")
            gens.append(entries)
        if not gens:
            raise ValueError("a monoid needs at least one generator")
        if len(set(gens)) != len(gens):
            raise ValueError("generators must be pairwise distinct")
        self.rank = rank
        self.generators = tuple(LatticeVector(g, M_SIDE) for g in gens)
        self._gen_tuples = tuple(gens)
        if _weight_cone is None:
            self.weight_cone = Cone.from_rays(gens, rank, M_SIDE)
        else:
            self.weight_cone = _weight_cone
        self.dual_cone = self.weight_cone.dual()
        if not generates_full_lattice(gens, rank):
            raise NotEffective(
                "generators %s do not generate the full lattice" % (gens,))
        self._decompositions = {(0,) * rank: (0,) * len(gens)}
        self._hilbert = None if _weight_cone is None else self.generators
        self._saturation = None
        self._relations = None

    def __eq__(self, other):
        return (isinstance(other, AffineMonoid)
                and self.rank == other.rank
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.rank, self.generators))

    def __repr__(self):
        return "AffineMonoid(%s)" % ([g.entries for g in self.generators],)

    def decompose(self, u):
        """A nonnegative integer combination of the generators equal to u,
        as a coefficient tuple, or None.  Deterministic: depth-first in
        generator order, first success wins.
        """
        target = tuple(int(e) for e in (u.entries if isinstance(u, LatticeVector) else u))
        if len(target) != self.rank:
            raise ValueError("rank mismatch")
        memo = self._decompositions
        if not self.weight_cone.contains_tuple(target):
            return None
        gens = self._gen_tuples
        width = len(gens)
        stack = [target]
        while stack:
            t = stack[-1]
            if t in memo:
                stack.pop()
                continue
            descended = False
            result = None
            for idx in range(width):
                g = gens[idx]
                w = tuple(a - b for a, b in zip(t, g))
                if not self.weight_cone.contains_tuple(w):
                    continue
                if w not in memo:
                    stack.append(w)
                    descended = True
                    break
                found = memo[w]
                if found is not None:
                    coeffs = list(found)
                    coeffs[idx] += 1
                    result = tuple(coeffs)
                    break
            if descended:
                continue
            memo[t] = result
            stack.pop()
        return memo[target]

    def contains(self, u):
        return self.decompose(u) is not None

    def hilbert_basis(self):
        if self._hilbert is None:
            self._hilbert = tuple(hilbert_basis(self.weight_cone))
        return self._hilbert

    def saturation(self):
        """Check that every Hilbert basis element of the weight cone is a
        monoid member; the first miss (in lex order) is the witness."""
        if self._saturation is None:
            witness = None
            for h in self.hilbert_basis():
                if not self.contains(h):
                    witness = h
                    break
            self._saturation = SaturationResult(witness is None, witness)
        return self._saturation

    def relation_lattice(self):
        """Basis of the lattice of integer relations among the generators."""
        if self._relations is None:
            rows = tuple(zip(*self._gen_tuples))
            self._relations = tuple(integer_kernel(rows))
        return self._relations
