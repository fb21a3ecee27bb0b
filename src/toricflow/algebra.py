"""Monoid algebra elements and homogeneous locally nilpotent derivations.

Elements are finite Fraction-linear combinations of characters chi^u with
u a member of a fixed AffineMonoid.  A Demazure root e with distinguished
ray p defines the derivation

    d(chi^u) = <p, u> * chi^(u + e)

which lowers the <p, .>-degree by one, so it is locally nilpotent: a
monomial of degree k dies after exactly k + 1 applications.  Since
d^j(chi^u) = k(k-1)...(k-j+1) * chi^(u + j*e), the exponential flow has
the closed form (Demazure 1970)

    exp(s*d)(chi^u) = sum_j C(k, j) * s^j * chi^(u + j*e)
                    = chi^u * (1 + s*chi^e)^k,     k = <p, u>,

a finite sum with exact rational coefficients.
"""

from fractions import Fraction
from math import comb

from .demazure import DemazureRoot, is_root
from .errors import IllDefinedRoot, NotADemazureRoot
from .lattice import M_SIDE, LatticeVector, dot, matrix_rank


def character_value(t, u):
    """Value of chi^u at the torus point with coordinates t: prod t_k^(u_k)."""
    value = Fraction(1)
    for base, exponent in zip(t, u):
        value *= base ** exponent
    return value


class AlgebraElement:
    """Immutable element of the monoid algebra.

    Terms are kept sorted by exponent; every exponent must be a monoid
    member, which the constructor enforces.
    """

    __slots__ = ("monoid", "terms")

    def __init__(self, monoid, terms):
        merged = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for u, c in items:
            if not isinstance(u, LatticeVector):
                u = LatticeVector(tuple(u), M_SIDE)
            if u.side != M_SIDE or u.rank != monoid.rank:
                raise ValueError("exponent %r does not fit the monoid" % (u,))
            c = Fraction(c)
            if c == 0:
                continue
            total = merged.get(u, 0) + c
            if total == 0:
                merged.pop(u, None)
            else:
                merged[u] = total
        for u in merged:
            if not monoid.contains(u):
                raise ValueError("exponent %s is outside the monoid" % (u.entries,))
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "terms",
                           tuple(sorted(merged.items(), key=lambda t: t[0].entries)))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def zero(cls, monoid):
        return cls(monoid, {})

    @classmethod
    def one(cls, monoid):
        return cls.monomial(monoid, (0,) * monoid.rank)

    @classmethod
    def monomial(cls, monoid, u, coefficient=1):
        return cls(monoid, [(u, coefficient)])

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, u):
        if not isinstance(u, LatticeVector):
            u = LatticeVector(tuple(u), M_SIDE)
        for v, c in self.terms:
            if v == u:
                return c
        return Fraction(0)

    def _lift(self, other):
        if isinstance(other, AlgebraElement):
            if other.monoid != self.monoid:
                raise ValueError("elements of different algebras")
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraElement(self.monoid, [((0,) * self.monoid.rank, other)])
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return AlgebraElement(self.monoid, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.monoid, [(u, -c) for u, c in self.terms])

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraElement(self.monoid, [(u, c * other) for u, c in self.terms])
        if isinstance(other, AlgebraElement):
            if other.monoid != self.monoid:
                raise ValueError("elements of different algebras")
            out = []
            for u, c in self.terms:
                for v, d in other.terms:
                    out.append((u + v, c * d))
            return AlgebraElement(self.monoid, out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        result = AlgebraElement.one(self.monoid)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.monoid == other.monoid and self.terms == other.terms)

    def __hash__(self):
        return hash((self.monoid, self.terms))

    def evaluate_at_torus(self, t):
        """Value at the torus point with coordinates t (nonzero Fractions)."""
        t = tuple(Fraction(x) for x in t)
        if len(t) != self.monoid.rank:
            raise ValueError("rank mismatch")
        return sum((c * character_value(t, u.entries) for u, c in self.terms),
                   Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s*chi%s" % (c, u.entries) for u, c in self.terms)


class HomogeneousLND:
    """Locally nilpotent derivation attached to a Demazure root.

    Well-definedness is checked on the generators: whenever a generator has
    positive degree, its shifted exponent must stay in the monoid.  Monoid
    closure extends this to all members, because degrees and shifts both
    add: if u = v + w with deg(v) > 0 admissible, u + e = (u - v) + (v + e).
    """

    __slots__ = ("monoid", "root", "ray")

    def __init__(self, monoid, root):
        if isinstance(root, DemazureRoot):
            vector = root.vector
        else:
            vector = root
        checked = is_root(monoid.dual_cone, vector)
        if checked is None:
            raise NotADemazureRoot(
                "%s is not a root of the dual cone" % (tuple(vector),))
        if isinstance(root, DemazureRoot) and root.ray_index != checked.ray_index:
            raise NotADemazureRoot("distinguished ray index is wrong")
        self.monoid = monoid
        self.root = checked
        self.ray = monoid.dual_cone.rays[checked.ray_index]
        for g in monoid.generators:
            if self.degree(g) > 0 and not monoid.contains(g + self.root.vector):
                raise IllDefinedRoot(
                    "shift of generator %s by root %s leaves the monoid"
                    % (g.entries, self.root.vector.entries))

    def degree(self, u):
        entries = u.entries if isinstance(u, LatticeVector) else tuple(u)
        return dot(self.ray.entries, entries)

    def apply(self, f):
        """One application of the derivation to an algebra element."""
        if f.monoid != self.monoid:
            raise ValueError("element of a different algebra")
        e = self.root.vector
        out = []
        for u, c in f.terms:
            k = self.degree(u)
            if k:
                out.append((u + e, c * k))
        return AlgebraElement(self.monoid, out)

    def nilpotency_degree(self, f):
        """Least k with d^k f = 0; exactly 1 + max term degree."""
        if f.is_zero:
            raise ValueError("nilpotency degree of zero is undefined")
        return 1 + max(self.degree(u) for u, _ in f.terms)

    def exp_flow(self, s, f):
        """exp(s*d) applied to f, by the binomial closed form term by term."""
        if f.monoid != self.monoid:
            raise ValueError("element of a different algebra")
        s = Fraction(s)
        e = self.root.vector
        out = []
        for u, c in f.terms:
            k = self.degree(u)
            shifted = u
            for j in range(k + 1):
                out.append((shifted, c * comb(k, j) * s ** j))
                shifted = shifted + e
        return AlgebraElement(self.monoid, out)

    def kernel_generators(self):
        """Monoid generators of degree zero; they generate the kernel."""
        return tuple(g for g in self.monoid.generators if self.degree(g) == 0)

    def kernel_rank(self):
        return matrix_rank([g.entries for g in self.kernel_generators()])
