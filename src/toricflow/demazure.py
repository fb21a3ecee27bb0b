"""Demazure roots of a pointed full-dimensional cone in N.

An M-side vector e is a root when it pairs to -1 with exactly one
primitive ray generator (the distinguished ray) and nonnegatively with all
others.  The roots at the ray p with max-norm at most b are the lattice
points of {<p,e> = -1, <q,e> >= 0 for the other rays q, |e_k| <= b},
enumerated by project-and-lift as in Normaliz: over an echelon basis of
the lattice <p,e> = 0, Fourier-Motzkin elimination gives valid integer
bounds on each coordinate given the ones before, and the lift meets the
roots in lex order.  The rounded bounds are not always exact, so a lift
may meet dead ends.  An enumeration that takes more than ROOT_STEP_CAP
steps (see StepBudget) is refused.  The box scan and the slice scan are
kept in the tests as oracles.  For rank two and higher each ray carries
infinitely many roots, which the toolkit witnesses by strictly growing
box counts, never by assertion.
"""

from collections import namedtuple
from itertools import chain
from math import gcd
from operator import add, mul

from .errors import BoundExceeded
from .lattice import M_SIDE, N_SIDE, LatticeVector, _echelon

ROOT_STEP_CAP = 1_000_000
_ROOT_SEARCH_START = 5


class DemazureRoot(namedtuple("DemazureRoot", "vector ray_index")):
    """A root vector together with the index of its distinguished ray."""

    __slots__ = ()


def _distinguished_ray(rays, entries):
    """Index of the one ray pairing to -1 with entries while every other
    ray pairs nonnegatively, or None when the root condition fails."""
    distinguished = None
    for i, ray in enumerate(rays):
        value = sum(map(mul, ray, entries))
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
    rays = _ray_entries(sigma)
    entries = tuple(int(x) for x in e)
    if len(entries) != sigma.rank:
        raise ValueError("rank mismatch")
    distinguished = _distinguished_ray(rays, entries)
    if distinguished is None:
        return None
    return DemazureRoot(LatticeVector(entries, M_SIDE), distinguished)


def _ray_entries(sigma, ray_index=None):
    """The entries of sigma's rays, once sigma is checked to be N-side and
    ray_index, when given, to name one of its rays."""
    if sigma.side != N_SIDE:
        raise ValueError("roots are taken against an N-side cone")
    rays = [r.entries for r in sigma.rays]
    if ray_index is not None and not 0 <= ray_index < len(rays):
        raise ValueError("ray index out of range")
    return rays


class StepBudget:
    """Steps spent by one root enumeration or first-root search.

    A step is one row formed by elimination, one row read for the bounds
    of an interval, one value taken by one coordinate, or one ray paired
    with a full point, so the count bounds the work whatever the number
    of rays.  The step past ROOT_STEP_CAP raises BoundExceeded naming the
    subject and the remedy.
    """

    def __init__(self, subject, remedy=""):
        self.spent = 0
        self.subject = subject
        self.remedy = remedy

    def spend(self, count):
        self.spent += count
        if self.spent > ROOT_STEP_CAP:
            raise BoundExceeded("%s reached %d steps, over ROOT_STEP_CAP = %d%s"
                                % (self.subject, self.spent, ROOT_STEP_CAP, self.remedy))


def _tighten(rows):
    """The rows (a, c), each read as a.y + c >= 0, divided by the gcd of a
    with c rounded down, which keeps every integer point.  Of parallel
    rows only the tightest stays.  None when a constant row fails."""
    tight = {}
    for a, c in rows:
        g = gcd(*a)
        if g == 0:
            if c < 0:
                return None
            continue
        if g > 1:
            a = tuple(x // g for x in a)
            c //= g
        if tight.get(a, c) >= c:
            tight[a] = c
    return tight


def _project(rows, m, budget):
    """Bounds on each coordinate of y in Z^m given the ones before, by
    Fourier-Motzkin elimination from the last coordinate to the first.

    levels[j] holds the lower rows (a, k, c), y_j >= -(a.y + c)/k, and the
    upper rows, y_j <= (a.y + c)/k, with k > 0 and a over y_0..y_(j-1).
    Each step's pairs are charged to the budget before any is formed.
    None when no integer point is left.
    """
    system = _tighten(rows)
    levels = []
    for j in reversed(range(m)):
        if system is None:
            return None
        lower = [(a[:j], a[j], c) for a, c in system.items() if a[j] > 0]
        upper = [(a[:j], -a[j], c) for a, c in system.items() if a[j] < 0]
        levels.append((lower, upper))
        if j:
            budget.spend(len(lower) * len(upper))
            # the pairs stream into _tighten, which keeps one row per direction
            system = _tighten(chain(
                [(a[:j], c) for a, c in system.items() if a[j] == 0],
                ((tuple([k2 * x + k1 * y for x, y in zip(a1, a2)]), k2 * c1 + k1 * c2)
                 for a1, k1, c1 in lower for a2, k2, c2 in upper)))
    return None if system is None else levels[::-1]


def _lift(levels, basis, point, prefix, point_cost, budget):
    """The points point + sum of y_i*basis[i] over the integer points y of
    the projected rows that extend prefix, in lex order of y, depth first.

    Each interval is charged its rows, each value of an inner coordinate
    one step and each full point point_cost steps.
    """
    j = len(prefix)
    lower, upper = levels[j]
    budget.spend(len(lower) + len(upper))
    lo = max(-((sum(map(mul, a, prefix)) + c) // k) for a, k, c in lower)
    hi = min((sum(map(mul, a, prefix)) + c) // k for a, k, c in upper)
    step = basis[j]
    last = j + 1 == len(levels)
    cost = point_cost if last else 1
    # exact-size tuples, so that freed points are reused, not pooled
    point = tuple([x + lo * b for x, b in zip(point, step)])
    for y in range(lo, hi + 1):
        budget.spend(cost)
        if last:
            yield point
        else:
            yield from _lift(levels, basis, point, prefix + (y,), point_cost, budget)
        point = tuple([*map(add, point, step)])


def lift_roots(rays, index, bound, budget):
    """Roots at rays[index] with max-norm at most bound, as entry tuples in
    lex order, with the work charged to budget.

    e = e0 + sum of y_i*b_i, where <p,e0> = -1 and the b_i are an echelon
    basis of the lattice <p,e> = 0, with positive pivots in strictly
    increasing columns, so that e rises in lex order with y.  The other
    rays and the box bound y.  A full point costs one step plus one per
    ray of its final check.
    """
    p = rays[index]
    d = len(p)
    rows, _ = _echelon([[p[k]] + [int(j == k) for j in range(d)] for k in range(d)],
                       pivot_cols_limit=1)
    e0 = [-x for x in rows[0][1:]]
    basis, _ = _echelon([row[1:] for row in rows[1:]])
    rows = [(tuple([sum(map(mul, q, b)) for b in basis]), sum(map(mul, q, e0)))
            for k, q in enumerate(rays) if k != index]
    for k in range(d):
        column = tuple(b[k] for b in basis)
        rows.append((column, bound + e0[k]))
        rows.append((tuple(-x for x in column), bound - e0[k]))
    levels = _project(rows, d - 1, budget)
    if levels is None:
        return
    point_cost = 1 + len(rays)
    if levels:
        points = _lift(levels, basis, tuple(e0), (), point_cost, budget)
    else:
        budget.spend(point_cost)
        points = [tuple(e0)]
    for e in points:
        if _distinguished_ray(rays, e) == index:
            yield e


def roots_in_box(sigma, bound, ray_index=None):
    """All roots with max-norm at most bound, ordered by (ray, lex).

    ray_index restricts the enumeration to one distinguished ray.  Raises
    BoundExceeded when the lifts take more than ROOT_STEP_CAP steps.
    """
    rays = _ray_entries(sigma, ray_index)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    indices = range(len(rays)) if ray_index is None else [ray_index]
    budget = StepBudget("root enumeration at max-norm %d" % bound,
                        "; lower --box or give fewer rays")
    return [DemazureRoot(LatticeVector(e, M_SIDE), i)
            for i in indices for e in lift_roots(rays, i, bound, budget)]


def smallest_root_at_ray(sigma, ray_index):
    """The lex-first root at the ray in the first box 5*2^k that holds a
    root, and that box.

    Every ray of a pointed full-dimensional cone has a root.  Each box is
    one depth-first lift that stops at its first root; the lifts together
    may take at most ROOT_STEP_CAP steps.
    """
    rays = _ray_entries(sigma, ray_index)
    budget = StepBudget("the search for a root at ray %s" % (rays[ray_index],))
    box = _ROOT_SEARCH_START
    while True:
        root = next(lift_roots(rays, ray_index, box, budget), None)
        if root is not None:
            return DemazureRoot(LatticeVector(root, M_SIDE), ray_index), box
        box *= 2
