"""Finitely generated submonoids of the character lattice.

An AffineMonoid is given by a finite generator list in M.  Its weight cone
must be full-dimensional and pointed, and the generators must generate the
whole lattice as a group (an effectiveness condition; scaling gradings are
measured against it).  Saturation is decided by looking the weight cone's
Hilbert basis up among the generators, so the cuspidal-style monoids that
miss lattice points of their cone are detected with an explicit witness.
"""

from bisect import bisect_right
from collections import defaultdict, namedtuple
from functools import cached_property
from math import prod
from operator import mul

from .cones import Cone
from .errors import BoundExceeded, NotEffective
from .lattice import (
    LatticeVector,
    M_SIDE,
    _echelon,
    adjugate,
    dot,
    generates_full_lattice,
    int_entries,
    integer_kernel,
    trusted_vectors,
)

# The most candidates hilbert_basis takes: parallelepiped points of the
# pulling simplices in ranks 1, 3 and 4, basis elements of the walk in rank 2.
HILBERT_CANDIDATE_CAP = 400_000
# The most points one decompose call may search.
DECOMPOSE_NODE_CAP = 100_000


def _pulling(rays, normals, dim):
    """Simplices of the pulling triangulation of the dim-dimensional face on
    rays: its first ray joined to those of each facet that misses it.  Its
    cuts by the cone's facet normals that miss the first ray are faces that
    miss it, and each such face lies in a facet that misses it, so those
    facets are the cuts that no other cut strictly contains."""
    if dim == 1:
        return [rays]
    cuts = dict.fromkeys(tuple(r for r in rays if dot(h, r) == 0)
                         for h in normals if dot(h, rays[0]))
    sets = [set(cut) for cut in cuts]
    return [(rays[0],) + simplex for cut, s in zip(cuts, sets) if not any(s < t for t in sets)
            for simplex in _pulling(cut, normals, dim - 1)]


def _parallelepiped_points(simplex, size, cofactor_rows):
    """Nonzero lattice points of {sum q_i v_i : 0 <= q_i < 1} for the rows
    v_i of simplex, of nonzero det size; there are |size| - 1 of them.
    size and cofactor_rows are what adjugate(simplex) returns.

    The echelon form of the rows spans VZ^d and is upper triangular with
    positive pivots p_k, so the residue box 0 <= x_k < p_k holds one point
    of each class of Z^d / VZ^d, 0 first.  A box point x has coefficients
    q_i = <x, c_i> / det(V) for the cofactor rows c_i; its class meets the
    parallelepiped in x - sum floor(q_i) v_i, and floor division by the
    signed det gives floor(q_i) exactly.  The box is worked on as columns
    in product order: <x, c_i> is summed a coordinate at a time over the
    box of the coordinates so far, so only the last sum runs over it all.
    """
    rows, _ = _echelon(simplex)
    sides = [rows[k][k] for k in range(len(rows))]
    floors = []
    for row in cofactor_rows:
        values = [0]
        for c, side in zip(row, sides):
            steps = [c * x for x in range(side)]
            values = [a + b for a in values for b in steps]
        floors.append([n // size for n in values])
    points = []
    for k, column in enumerate(zip(*simplex)):
        total = [x for x in range(sides[k]) for _ in range(prod(sides[k + 1:]))] * prod(sides[:k])
        for c, f in zip(column, floors):
            if c:
                total = [t - c * q for t, q in zip(total, f)]
        points.append(total)
    return list(zip(*points))[1:]


def _walk(a, b):
    """Hilbert basis of the rank-2 cone on the primitive rays a and b: the
    lattice points on the compact edges of the hull of its nonzero lattice
    points, walked from a to b by the Hirzebruch-Jung continued fraction
    (Oda 1988, 1.6; Cox, Little and Schenck 2011, 10.2).

    With n = det(a, b) > 0, the element after a is u_1 = w + t a, where
    det(a, w) = 1 comes from the extended Euclid on a and t = ceil(-det(w, b)
    / n) is the least t that puts u_1 in the cone.  Then u_(i+1) = c u_i -
    u_(i-1), with c = ceil(det(u_(i-1), b) / det(u_i, b)) the least c that
    keeps it in the cone.  det(u_i, b) falls at every step, and the walk ends
    at det(u_i, b) = 0, where u_i = b.  Consecutive elements have det 1.
    The elements are counted first, in high = det(u_(i-1), b), low = det(u_i, b):
    while c = 2, high - low stays fixed and low falls by it, so a run of
    low // (high - low) such steps is counted at once; the next one has c >= 3.
    """
    high = a[0] * b[1] - a[1] * b[0]
    if high < 0:
        a, b, high = b, a, -high
    x = pow(a[0], -1, abs(a[1])) if a[1] else a[0]  # a_0 x = 1 mod a_1, by Euclid
    w = ((a[0] * x - 1) // a[1] if a[1] else 0, x)
    t = -((w[0] * b[1] - w[1] * b[0]) // high)
    prev, u = a, (w[0] + t * a[0], w[1] + t * a[1])
    low = u[0] * b[1] - u[1] * b[0]
    size, hi, lo = 2, high, low
    while lo:  # a run of c = 2, then one step to c lo - hi = -d mod lo, as hi = lo + d
        d = hi - lo
        size, lo = size + lo // d, lo % d
        if lo:
            size, hi, lo = size + 1, lo, -d % lo
    if size > HILBERT_CANDIDATE_CAP:
        raise BoundExceeded(
            "cone is too wide for a Hilbert basis: its continued-fraction walk has %d "
            "basis elements, over HILBERT_CANDIDATE_CAP = %d; give rays with smaller "
            "entries" % (size, HILBERT_CANDIDATE_CAP))
    basis = [a, u]
    while low:
        c = -(-high // low)
        prev, u = u, (c * u[0] - prev[0], c * u[1] - prev[1])
        high, low = low, c * low - high
        basis.append(u)
    return basis


def hilbert_basis(cone):
    """Minimal generating set of cone ∩ M for a pointed full-dimensional cone.

    In rank 2 it is walked by the continued fraction of the cone (_walk), in
    one integer step per basis element; a walk of more than
    HILBERT_CANDIDATE_CAP elements is refused before it is walked.  In ranks
    1, 3 and 4 the cone is cut into simplicial cones by a pulling
    triangulation, as no facet need be simplicial.  An irreducible element of
    a simplicial cone is one of its rays or a lattice point of its half-open
    parallelepiped {sum q_i v_i : 0 <= q_i < 1}, so the extreme rays and
    the parallelepiped points are the candidates: |det| of them per
    simplex, counting the vertex 0.  A cone whose simplices hold more than
    HILBERT_CANDIDATE_CAP of them is refused before enumerating.

    Candidates are reduced in support form, v(u) = (<n_j, u> for each facet
    normal n_j): u - h lies in the cone exactly when v(h) <= v(u)
    componentwise.  The form is packed as P(u) = <N, u> = sum_j v_j 2^(Wj),
    W one bit wider than the largest level sum(v) of a candidate, so every
    field is below 2^(W-1).  If G holds the top bit of each field,
    (P(u) | G) - P(h) borrows across no field and keeps field j's top bit
    exactly when v_j(h) <= v_j(u), so v(h) <= v(u) iff it keeps all of G.
    Candidates are bucketed by level, the buckets are taken in increasing
    level, and a candidate is kept unless an element kept before it lies
    below it.  If low is the least level of a candidate, the least level of
    any nonzero cone point, only kept elements of level at most
    level(u) - low can lie below u: candidates of one level never reduce
    each other, each bucket is scanned against one slice of the kept
    forms, and a candidate below level 2*low is kept without a scan.

    >>> c = Cone.from_rays([(1, 0), (1, 2)], 2, M_SIDE)
    >>> [v.entries for v in hilbert_basis(c)]
    [(1, 0), (1, 1), (1, 2)]
    """
    if cone.side != M_SIDE:
        raise ValueError("Hilbert basis is computed on the weight side")
    if cone.rank == 2:
        return trusted_vectors(sorted(_walk(*(r.entries for r in cone.rays))), M_SIDE)
    normals = [h.entries for h in cone.facet_normals]
    simplices = [(simplex, *adjugate(simplex)) for simplex in _pulling(
        tuple(r.entries for r in cone.rays), normals, cone.rank)]
    count = sum(abs(size) for _, size, _ in simplices)
    if count > HILBERT_CANDIDATE_CAP:
        raise BoundExceeded(
            "cone is too wide for a Hilbert basis: its parallelepipeds hold "
            "%d candidate points, over HILBERT_CANDIDATE_CAP = %d; give a "
            "narrower cone or fewer generators" % (count, HILBERT_CANDIDATE_CAP))
    candidates = {r.entries for r in cone.rays}
    for simplex, size, cofactor_rows in simplices:
        candidates.update(_parallelepiped_points(simplex, size, cofactor_rows))
    total = [sum(column) for column in zip(*normals)]
    buckets = defaultdict(list)
    for u in candidates:
        buckets[sum(map(mul, total, u))].append(u)
    order = sorted(buckets)
    low = order[0]
    width = order[-1].bit_length() + 1
    packed = [sum(c << (width * j) for j, c in enumerate(column)) for column in zip(*normals)]
    guard = sum(1 << (width * j + width - 1) for j in range(len(normals)))
    levels, forms, basis = [], [], []
    for level in order:
        below = forms[:bisect_right(levels, level - low)]
        for u in buckets[level]:
            top = sum(map(mul, packed, u)) | guard
            for h in below:
                if (top - h) & guard == guard:
                    break
            else:
                levels.append(level)
                forms.append(top ^ guard)
                basis.append(u)
    basis.sort()
    return trusted_vectors(basis, M_SIDE)


class SaturationResult(namedtuple("SaturationResult", "saturated witness")):
    __slots__ = ()


class AffineMonoid:
    """Submonoid of M given by generators, with membership and saturation.

    Generator order is preserved; point coordinates and algebra elements
    are indexed against it.  Instances are immutable in value; the caches
    only ever grow.  of_cone gives weight_cone ∩ M, saturated, whose
    generators, its Hilbert basis, are computed on first read.
    """

    def __init__(self, generators, rank):
        gens = [int_entries(g, M_SIDE) for g in generators]
        if len(set(gens)) != len(gens):
            raise ValueError("generators must be pairwise distinct")
        # The cone refuses a bad rank, a wrong length, a zero vector and an empty list.
        self._setup(Cone.from_rays(gens, rank, M_SIDE), None)
        if not generates_full_lattice(gens, rank):
            raise NotEffective("generators %s do not generate the full lattice" % (gens,))
        self.generators = tuple(trusted_vectors(gens, M_SIDE))

    @classmethod
    def of_cone(cls, weight_cone):
        """weight_cone ∩ M, saturated by construction.  Its lattice is not
        checked, since the lattice points of a full-dimensional cone
        generate M, and its Hilbert basis is computed on the first read of
        generators, so that what needs only the cones never builds it."""
        mon = cls.__new__(cls)
        mon._setup(weight_cone, SaturationResult(True, None))
        return mon

    def _setup(self, weight_cone, saturation):
        self.rank, self.weight_cone = weight_cone.rank, weight_cone
        self.dual_cone, self._saturation = weight_cone.dual(), saturation
        self._relations = {}

    @cached_property
    def generators(self):
        return tuple(hilbert_basis(self.weight_cone))

    @cached_property
    def _decompositions(self):
        return {(0,) * self.rank: (0,) * len(self.generators)}

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
        generator order, first success wins.  A search that would take more
        than DECOMPOSE_NODE_CAP points raises BoundExceeded.
        """
        target = int_entries(u, M_SIDE)
        memo = self._decompositions
        if not self.weight_cone.contains_tuple(target):
            return None
        gens = [g.entries for g in self.generators]
        stack = [target]
        known = len(memo)
        while stack:
            t = stack[-1]
            if t in memo:
                stack.pop()
                continue
            result = None
            for idx, g in enumerate(gens):
                w = tuple(a - b for a, b in zip(t, g))
                if not self.weight_cone.contains_tuple(w):
                    continue
                if w not in memo:
                    if len(memo) - known + len(stack) == DECOMPOSE_NODE_CAP:
                        raise BoundExceeded(
                            "membership of %s took over DECOMPOSE_NODE_CAP = %d "
                            "search points; give smaller exponents or roots"
                            % (target, DECOMPOSE_NODE_CAP))
                    stack.append(w)
                    break
                found = memo[w]
                if found is not None:
                    coeffs = list(found)
                    coeffs[idx] += 1
                    result = tuple(coeffs)
                    break
            if stack[-1] is t:  # t is decided unless a point below it was pushed
                memo[t] = result
                stack.pop()
        return memo[target]

    def contains(self, u):
        """Whether u is a monoid member: once saturation() has found the
        monoid saturated, it is weight_cone ∩ M and this is the cone's facet
        test; otherwise u is decomposed."""
        if self._saturation is not None and self._saturation.saturated:
            return self.weight_cone.contains_tuple(int_entries(u, M_SIDE))
        return self.decompose(u) is not None

    def saturation(self):
        """Check that every Hilbert basis element of the weight cone is a
        monoid member; the first miss (in lex order) is the witness.  A
        basis element is irreducible in weight_cone ∩ M, so it is a member
        exactly when it is a generator."""
        if self._saturation is None:
            basis, gens = hilbert_basis(self.weight_cone), {g.entries for g in self.generators}
            witness = next((h for h in basis if h.entries not in gens), None)
            self._saturation = SaturationResult(witness is None, witness)
        return self._saturation

    def face_relations(self, support):
        """Basis of the integer relations among the generators at the support
        indices, zero off the support; cached per support.  The support must
        be the generators of a face of the weight cone, the smallest face
        holding it being cut out by the facets that contain it; any other
        support raises ValueError.
        """
        support = tuple(support)
        if support not in self._relations:
            gens = [g.entries for g in self.generators]
            cut = [0] * self.rank
            for normal in self.weight_cone.facet_normals:
                if all(dot(normal.entries, gens[j]) == 0 for j in support):
                    cut = [a + b for a, b in zip(cut, normal.entries)]
            if tuple(j for j, g in enumerate(gens) if dot(cut, g) == 0) != support:
                raise ValueError(
                    "the nonzero coordinates %s are not the generators of a face "
                    "of the weight cone" % (list(support),))
            relations = []
            for kernel in integer_kernel(list(zip(*(gens[j] for j in support)))):
                relation = [0] * len(gens)
                for j, k in zip(support, kernel.entries):
                    relation[j] = k
                relations.append(LatticeVector(relation))
            self._relations[support] = tuple(relations)
        return self._relations[support]
