"""Exact integer linear algebra on a dual pair of lattices.

Vectors carry a side tag: "N" for one-parameter subgroups, "M" for
characters.  The pairing of an N-side and an M-side vector is their dot
product, written N-side first.  Vectors with side None are plain
elements of Z^k (relation coefficients and the like).  Everything here is
arbitrary-precision integer arithmetic; the toolkit never touches floats.
"""

from math import gcd
from operator import index, mul

N_SIDE = "N"
M_SIDE = "M"
_SIDES = (N_SIDE, M_SIDE, None)


class Frozen:
    """Base of the slotted records.  __init__ sets the slots once, through
    _set or their descriptors; a slot can then be neither set nor deleted.
    Two records are equal when they are of one class with equal slot values."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class LatticeVector(Frozen):
    """Immutable integer vector with an optional side tag.

    >>> v = LatticeVector((2, -4), M_SIDE)
    >>> primitive(v).entries
    (1, -2)
    """

    __slots__ = ("entries", "side")

    def __init__(self, entries, side=None):
        entries = int_entries(entries)
        if not entries:
            raise ValueError("empty vector")
        if side not in _SIDES:
            raise ValueError("side must be %r, %r or None" % (N_SIDE, M_SIDE))
        LatticeVector.entries.__set__(self, entries)  # the slots' own setters
        LatticeVector.side.__set__(self, side)

    @property
    def rank(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other):
        if not isinstance(other, LatticeVector):
            return NotImplemented
        if other.side != self.side or other.rank != self.rank:
            raise ValueError("vectors live in different lattices")
        return LatticeVector(tuple(a + b for a, b in zip(self.entries, other.entries)), self.side)

    def __neg__(self):
        return LatticeVector(tuple(-a for a in self.entries), self.side)

    def __repr__(self):
        tag = "" if self.side is None else ", %s" % self.side
        return "LatticeVector(%r%s)" % (self.entries, tag)


def trusted_vectors(tuples, side):
    """LatticeVectors of a list of int tuples, set through the slot
    descriptors with none of the constructor's checks: only for tuples of
    exact ints that the package built itself."""
    vectors = [object.__new__(LatticeVector) for _ in tuples]
    set_entries, set_side = LatticeVector.entries.__set__, LatticeVector.side.__set__
    for vector, entries in zip(vectors, tuples):
        set_entries(vector, entries)
        set_side(vector, side)
    return vectors


def dot(a, b):
    """Plain dot product of two equal-length int sequences."""
    if len(a) != len(b):
        raise ValueError("length mismatch in dot product")
    return sum(map(mul, a, b))


def primitive(v):
    """Divide out the gcd of the entries.  Direction is never flipped."""
    return LatticeVector(primitive_tuple(v.entries), v.side)


def int_entries(v, side=None):
    """A LatticeVector's entries, or an int sequence's read by operator.index.
    Given the side its caller reads, a vector of the other side raises ValueError."""
    if side and isinstance(v, LatticeVector) and v.side not in (side, None):
        raise ValueError("expected an %s-side vector, got an %s-side one" % (side, v.side))
    return v.entries if isinstance(v, LatticeVector) else tuple(map(index, v))


def primitive_tuple(entries):
    g = gcd(*entries)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(entries) if g == 1 else tuple([e // g for e in entries])


def _echelon(rows, pivot_cols_limit=None):
    """Integer row echelon form via unimodular row operations.

    Only swaps, negations and integer row additions are used, so the row
    lattice is preserved exactly.  Pivot search stops after column
    `pivot_cols_limit` when given (the tail columns ride along untouched).
    Returns (rows, pivots) where pivots is a list of (row, col) positions.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    limit = ncols if pivot_cols_limit is None else pivot_cols_limit
    pivots = []
    r = 0
    for c in range(limit):
        if r >= len(rows):
            break
        live = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not live:
            continue
        # Euclidean reduction within the column until one nonzero entry is left.
        while len(live) > 1:
            live.sort(key=lambda i: abs(rows[i][c]))
            base = live[0]
            for i in live[1:]:
                q = rows[i][c] // rows[base][c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[base])]
            live = [i for i in live if rows[i][c] != 0]
        i = live[0]
        rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        # clear the column above the pivot as far as exact division allows;
        # full HNF reduction is not needed, zeros below are
        for j in range(r):
            q = rows[j][c] // rows[r][c]
            if q:
                rows[j] = [a - q * b for a, b in zip(rows[j], rows[r])]
        pivots.append((r, c))
        r += 1
    return rows, pivots


def matrix_rank(rows):
    """Rank over Q of an iterable of equal-length int rows."""
    return len(_echelon(rows)[1])


def pivot_columns(rows):
    """Indices of the first maximal linearly independent set of columns."""
    return [c for _, c in _echelon(rows)[1]]


def adjugate(rows):
    """(det V, cofactor rows) of a square int matrix V by one fraction-free
    Gauss-Jordan pass on [V | I] (Bareiss 1968): at pivot p_k each other
    row a_i becomes (p_k a_i - a_ik a_k) // p_(k-1), an exact division.
    A row swap negates the row moved down, keeping the det, so [V | I] ends
    as [det(V) I | adj(V)].  Cofactor row i, column i of adj(V), pairs to
    det(V) with row i of V and to 0 with the rest.  Singular V: ValueError."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    pivot = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            raise ValueError("singular matrix")
        if p != k:
            m[k], m[p] = m[p], [-x for x in m[k]]
        prev, pivot, row = pivot, m[k][k], m[k]
        m = [r if i == k else [(pivot * x - r[k] * y) // prev for x, y in zip(r, row)]
             for i, r in enumerate(m)]
    return pivot, list(zip(*m))[n:]


def integer_kernel(rows):
    """Basis of the integer kernel lattice {x in Z^c : mat.x = 0}, for the
    matrix with the given equal-length int rows.

    Unimodular row reduction of [mat^T | I] leaves the kernel as the right
    halves of the rows whose left half vanished.  Basis vectors come out
    primitive; they are sign-normalized (first nonzero entry positive) and
    lex-sorted for determinism.

    >>> [k.entries for k in integer_kernel([(1, 1, 1), (0, 1, 2)])]
    [(1, -2, 1)]
    """
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    augmented = []
    for i in range(ncols):
        left = [rows[j][i] for j in range(nrows)]
        right = [1 if k == i else 0 for k in range(ncols)]
        augmented.append(left + right)
    # pivots in mat^T only: echelon through I as well costs ~35x at 196 columns
    reduced, pivots = _echelon(augmented, pivot_cols_limit=nrows)
    start = len(pivots)
    basis = []
    for row in reduced[start:]:
        assert all(e == 0 for e in row[:nrows])
        vec = row[nrows:]
        lead = next(e for e in vec if e != 0)
        if lead < 0:
            vec = [-e for e in vec]
        basis.append(tuple(vec))
    basis.sort()
    return [LatticeVector(v) for v in basis]


def generates_full_lattice(vectors, rank):
    """Do the integer vectors generate all of Z^rank as a group?"""
    reduced, pivots = _echelon(vectors)
    if len(pivots) != rank:
        return False
    return all(abs(reduced[r][c]) == 1 for r, c in pivots)
