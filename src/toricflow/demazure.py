"""Demazure roots of a pointed full-dimensional cone in N.

An M-side vector e is a root when it pairs to -1 with exactly one
primitive ray generator (the distinguished ray) and nonnegatively with all
others.  The roots at the ray p with max-norm at most b are the lattice
points of {<p,e> = -1, <q,e> >= 0 for the other rays q, |e_k| <= b},
enumerated by project-and-lift as in Normaliz: over an echelon basis of
the lattice <p,e> = 0, Fourier-Motzkin elimination gives valid integer
bounds on each coordinate given the ones before, and the lift meets the
roots in lex order, a run of the last coordinate at a time.  The rounded
bounds may lead a lift into dead ends, but each row is met exactly at the
level of its last nonzero coordinate, so a lifted point is a root and is
not re-checked; it is still charged 1 + the number of rays, the price of
that check, so that every cap trips at the same step.  An enumeration
that takes more than ROOT_STEP_CAP steps (see StepBudget) is refused.
The box scan, the slice scan and the point-by-point lift are the test
oracles.  For rank two and higher each ray carries infinitely many roots,
which the toolkit witnesses by strictly growing box counts, never by
assertion.
"""

from collections import namedtuple
from itertools import chain
from math import gcd
from operator import add, index, mul

from .errors import BoundExceeded
from .lattice import M_SIDE, N_SIDE, LatticeVector, _echelon, dot, int_entries, trusted_vectors

ROOT_STEP_CAP = 1_000_000
_ROOT_SEARCH_START = 5


class DemazureRoot(namedtuple("DemazureRoot", "vector ray_index")):
    """A root vector together with the index of its distinguished ray."""

    __slots__ = ()


def is_root(sigma, e):
    """Check the root condition of e against sigma's rays.

    Returns the DemazureRoot (the distinguished ray is unique when the
    condition holds) or None.  An N-side vector raises ValueError.
    """
    entries = int_entries(e, M_SIDE)
    values = [dot(ray, entries) for ray in _ray_entries(sigma)]
    if [value for value in values if value < 0] != [-1]:
        return None
    return DemazureRoot(LatticeVector(entries, M_SIDE), values.index(-1))


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
    of an interval, one value taken by one coordinate, or one ray of a
    root: a lifted point is not re-checked, but a root is charged 1 + the
    number of rays, the price of that check, so that every cap trips at
    the same step.  The step past ROOT_STEP_CAP raises BoundExceeded naming
    the subject and the remedy; spend(count, times) stops where times
    single charges would.
    """

    def __init__(self, subject, remedy):
        self.spent = 0
        self.subject = subject
        self.remedy = remedy

    def spend(self, count, times=1):
        self.spent += count * times
        if self.spent > ROOT_STEP_CAP:
            self.spent -= (self.spent - ROOT_STEP_CAP - 1) // count * count
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


def _lift(levels, basis, point, prefix, budget):
    """Runs (first point, step, count) of the points point + sum of
    y_i*basis[i] over the integer points y of the projected rows that
    extend prefix, in lex order of y, depth first: one run per interval of
    the last coordinate.  Intervals are charged their rows and values of
    inner coordinates one step each; the caller charges a run's points."""
    j = len(prefix)
    lower, upper = levels[j]
    budget.spend(len(lower) + len(upper))
    lo = max(-((sum(map(mul, a, prefix)) + c) // k) for a, k, c in lower)
    hi = min((sum(map(mul, a, prefix)) + c) // k for a, k, c in upper)
    step = basis[j]
    # exact-size tuples, so that freed points are reused, not pooled
    point = tuple([x + lo * b for x, b in zip(point, step)])
    if j + 1 == len(levels):
        if lo <= hi:
            yield point, step, hi - lo + 1
        return
    for y in range(lo, hi + 1):
        budget.spend(1)
        yield from _lift(levels, basis, point, prefix + (y,), budget)
        point = tuple([*map(add, point, step)])


def _ray_lattice(rays, index):
    """(e0, basis, rows) at p = rays[index] from one echelon form of
    [p | I], whose rows are [1 | -e0] and then [0 | b_i]: <p,e0> = -1, and
    the b_i are an echelon basis of <p,e> = 0 with positive pivots in
    strictly increasing columns, so that e = e0 + sum of y_i*b_i rises in
    lex order with y.  rows holds <q,e> = a.y + c as (a, c) per other ray q."""
    p = rays[index]
    d = len(p)
    rows, _ = _echelon([[p[k]] + [int(j == k) for j in range(d)] for k in range(d)])
    e0 = [-x for x in rows[0][1:]]
    basis = [row[1:] for row in rows[1:]]
    return e0, basis, [(tuple([sum(map(mul, q, b)) for b in basis]), sum(map(mul, q, e0)))
                       for k, q in enumerate(rays) if k != index]


def _runs(lattice, bound, budget):
    """Runs of the roots of max-norm at most bound at the ray of a
    _ray_lattice, in lex order, with the work charged to budget."""
    e0, basis, rows = lattice
    for k, x in enumerate(e0):
        column = tuple(b[k] for b in basis)
        rows = rows + [(column, bound + x), (tuple(-a for a in column), bound - x)]
    levels = _project(rows, len(basis), budget)
    if levels == []:  # rank one: e0 is the one candidate, checked by the box rows
        yield tuple(e0), (0,), 1
    elif levels:
        yield from _lift(levels, basis, tuple(e0), (), budget)


def roots_in_box(sigma, bound, ray_index=None):
    """All roots with max-norm at most bound, ordered by (ray, lex).

    ray_index restricts the enumeration to one distinguished ray.  bound is
    read by operator.index.  Raises BoundExceeded when the lifts take more
    than ROOT_STEP_CAP steps.
    """
    rays, bound = _ray_entries(sigma, ray_index), index(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    indices = range(len(rays)) if ray_index is None else [ray_index]
    budget = StepBudget("root enumeration at max-norm %d" % bound,
                        "; lower --box or give fewer rays")
    roots = []
    for i in indices:
        points = []
        for point, step, count in _runs(_ray_lattice(rays, i), bound, budget):
            budget.spend(1 + len(rays), count)
            for _ in range(count):
                points.append(point)
                point = tuple([*map(add, point, step)])
        roots += [DemazureRoot(v, i) for v in trusted_vectors(points, M_SIDE)]
    return roots


def smallest_root_at_ray(sigma, ray_index):
    """The lex-first root at the ray in the first box 5*2^k that holds a
    root, and that box.

    Every ray of a pointed full-dimensional cone has a root.  The ray's
    lattice is set up once, and each box is one depth-first lift that
    stops at its first run, whose head is the root.  The lifts together
    may take at most ROOT_STEP_CAP steps.
    """
    rays = _ray_entries(sigma, ray_index)
    budget = StepBudget("the search for a root at ray %s" % (rays[ray_index],),
                        "; give fewer rays or rays with smaller entries")
    lattice = _ray_lattice(rays, ray_index)
    box = _ROOT_SEARCH_START
    while (run := next(_runs(lattice, box, budget), None)) is None:
        box *= 2
    budget.spend(1 + len(rays))
    return DemazureRoot(LatticeVector(run[0], M_SIDE), ray_index), box
