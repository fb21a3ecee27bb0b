"""Exact integer linear algebra on a dual pair of lattices.

Vectors carry a side tag: "N" for one-parameter subgroups, "M" for
characters.  The pairing is the ordinary dot product and is only defined
between an N-side and an M-side vector.  Vectors with side None are plain
elements of Z^k (relation coefficients and the like).  Everything here is
arbitrary-precision integer arithmetic; the toolkit never touches floats.
"""

from dataclasses import dataclass
from math import gcd

N_SIDE = "N"
M_SIDE = "M"
_SIDES = (N_SIDE, M_SIDE, None)


@dataclass(frozen=True)
class LatticeVector:
    """Immutable integer vector with an optional side tag.

    >>> v = LatticeVector((2, -4), M_SIDE)
    >>> primitive(v).entries
    (1, -2)
    >>> pairing(LatticeVector((1, 0), N_SIDE), LatticeVector((-1, 3), M_SIDE))
    -1
    """

    entries: tuple
    side: str | None = None

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("empty vector")
        if self.side not in _SIDES:
            raise ValueError("side must be %r, %r or None" % (N_SIDE, M_SIDE))

    @classmethod
    def n(cls, *entries):
        if len(entries) == 1 and not isinstance(entries[0], int):
            entries = tuple(entries[0])
        return cls(entries, N_SIDE)

    @classmethod
    def m(cls, *entries):
        if len(entries) == 1 and not isinstance(entries[0], int):
            entries = tuple(entries[0])
        return cls(entries, M_SIDE)

    @property
    def rank(self):
        return len(self.entries)

    @property
    def is_zero(self):
        return all(e == 0 for e in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def _check_compatible(self, other):
        if not isinstance(other, LatticeVector):
            raise TypeError("expected a LatticeVector")
        if other.side != self.side or other.rank != self.rank:
            raise ValueError("vectors live in different lattices")

    def __add__(self, other):
        self._check_compatible(other)
        return LatticeVector(tuple(a + b for a, b in zip(self.entries, other.entries)), self.side)

    def __sub__(self, other):
        self._check_compatible(other)
        return LatticeVector(tuple(a - b for a, b in zip(self.entries, other.entries)), self.side)

    def __neg__(self):
        return LatticeVector(tuple(-a for a in self.entries), self.side)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return LatticeVector(tuple(k * a for a in self.entries), self.side)

    __rmul__ = __mul__

    def __repr__(self):
        tag = "" if self.side is None else ", %s" % self.side
        return "LatticeVector(%r%s)" % (self.entries, tag)


def dot(a, b):
    """Plain dot product of two equal-length int sequences."""
    if len(a) != len(b):
        raise ValueError("length mismatch in dot product")
    return sum(x * y for x, y in zip(a, b))


def pairing(n, m):
    """Evaluate an N-side vector on an M-side vector.

    The orientation is part of the contract; same-side arguments are a bug
    in the caller, not a convention choice.
    """
    if n.side != N_SIDE or m.side != M_SIDE:
        raise ValueError("pairing takes an N-side then an M-side vector")
    return dot(n.entries, m.entries)


def gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def primitive(v):
    """Divide out the gcd of the entries.  Direction is never flipped."""
    g = gcd_all(v.entries)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    if g == 1:
        return v
    return LatticeVector(tuple(e // g for e in v.entries), v.side)


def primitive_tuple(entries):
    g = gcd_all(entries)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(e // g for e in entries)


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
    rows = [tuple(r) for r in rows]
    if not rows:
        return 0
    _, pivots = _echelon(rows)
    return len(pivots)


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
    reduced, pivots = _echelon(augmented, pivot_cols_limit=nrows)
    start = len(pivots)
    basis = []
    for row in reduced[start:]:
        assert all(e == 0 for e in row[:nrows])
        vec = row[nrows:]
        lead = next((e for e in vec if e != 0), 0)
        if lead == 0:
            continue
        if lead < 0:
            vec = [-e for e in vec]
        basis.append(tuple(vec))
    basis.sort()
    return [LatticeVector(v) for v in basis]


def generates_full_lattice(vectors, rank):
    """Do the integer vectors generate all of Z^rank as a group?"""
    rows = [tuple(v) for v in vectors]
    reduced, pivots = _echelon(rows)
    if len(pivots) != rank:
        return False
    return all(abs(reduced[r][c]) == 1 for r, c in pivots)
