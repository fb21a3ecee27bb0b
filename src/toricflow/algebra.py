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

a finite sum with exact rational coefficients.  Elements carry no ring
arithmetic: they are built, differentiated, flowed and evaluated at a
point (orbits.evaluate).
"""

import re
from fractions import Fraction
from math import comb
from operator import mul

from .demazure import DemazureRoot, is_root
from .errors import BoundExceeded, IllDefinedRoot, NotADemazureRoot
from .lattice import M_SIDE, Frozen, LatticeVector, dot, int_entries

# The most bits that one exact power of a point or a flow may reach, by
# the bound of characters: about 79,000 decimal digits.
POWER_BIT_CAP = 1 << 18
# The most terms that one exp_flow may build, k + 1 for each term of degree
# k; 0 and +-1 have powers of no bits, so POWER_BIT_CAP alone does not bound
# them.  At s = 1 a flow at the cap returns in about 0.13 s.
FLOW_TERM_CAP = 2_000
# Text that reads as a number: [+-]p or [+-]p/q in ASCII digits, nothing else.
INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(INTEGER.pattern + "(/[0-9]+)?")


def characters(values, exponent_rows):
    """chi^e(x) = prod x_k^(e_k) at the values x for each row e of the list
    exponent_rows, as one Fraction of two integer products.  The whole batch
    is refused first if one power could pass POWER_BIT_CAP bits: x^e has at
    most |e| * ceil(log2 m) + 1 bits, m the larger of |numerator| and
    denominator, so 0 and +-1 cost nothing.  A zero exponent contributes 1,
    a zero x under a negative one raises ZeroDivisionError."""
    pairs = [(x.numerator, x.denominator) for x in values]
    sizes = [(max(abs(a), b) - 1).bit_length() for a, b in pairs]
    bound = max([sum(map(mul, map(abs, row), sizes)) for row in exponent_rows], default=0)
    if bound > POWER_BIT_CAP:
        raise BoundExceeded(
            "an exact power would have up to %d bits, over POWER_BIT_CAP = %d; "
            "give smaller coordinates, exponents or flow times" % (bound, POWER_BIT_CAP))
    out = []
    for row in exponent_rows:
        num = den = 1
        for (a, b), e in zip(pairs, row):
            if e > 0:
                num, den = num * a ** e, den * b ** e
            elif e:
                num, den = num * b ** -e, den * a ** -e
        out.append(Fraction(num, den))
    return out


def rational(x):
    """An int, a Fraction or a "[+-]p[/q]" str as a Fraction.  Any other str
    raises ValueError before Fraction reads it, and any other type TypeError."""
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise ValueError("rational strings read [+-]p or [+-]p/q, got %r" % (x,))
    if not isinstance(x, (int, Fraction, str)):
        raise TypeError("rationals are ints, Fractions or 'p/q' strings, got %r" % (x,))
    return x if type(x) is Fraction else Fraction(x)


class AlgebraElement(Frozen):
    """Immutable element of the monoid algebra, built from a list of
    (exponent, coefficient) pairs.  Terms are merged and kept sorted by
    exponent; every exponent must be a monoid member, which the constructor
    enforces."""

    __slots__ = ("monoid", "terms")

    def __init__(self, monoid, terms):
        merged = {}
        for u, c in terms:
            u = LatticeVector(int_entries(u, M_SIDE), M_SIDE)
            c = rational(c)
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
        self._set(monoid, tuple(sorted(merged.items(), key=lambda t: t[0].entries)))


class HomogeneousLND(Frozen):
    """Immutable locally nilpotent derivation attached to a Demazure root.

    Well-definedness is checked on the generators: whenever a generator has
    positive degree, its shifted exponent must stay in the monoid.  Monoid
    closure extends this to all members, because degrees and shifts both
    add: if u = v + w with deg(v) > 0 admissible, u + e = (u - v) + (v + e).
    degrees holds <p, g> for each generator g, in generator order.
    """

    __slots__ = ("monoid", "root", "ray", "degrees")

    def __init__(self, monoid, root):
        vector = root.vector if isinstance(root, DemazureRoot) else root
        checked = is_root(monoid.dual_cone, vector)
        if checked is None:
            raise NotADemazureRoot("%s is not a root of the dual cone" % (tuple(vector),))
        if isinstance(root, DemazureRoot) and root.ray_index != checked.ray_index:
            raise NotADemazureRoot("distinguished ray index is wrong")
        ray = monoid.dual_cone.rays[checked.ray_index]
        degrees = tuple(dot(ray.entries, g.entries) for g in monoid.generators)
        for g, k in zip(monoid.generators, degrees):
            if k > 0 and not monoid.contains(g + checked.vector):
                raise IllDefinedRoot("shift of generator %s by root %s leaves the monoid"
                                     % (g.entries, checked.vector.entries))
        self._set(monoid, checked, ray, degrees)

    def degree(self, u):
        return dot(self.ray.entries, int_entries(u, M_SIDE))

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

    def exp_flow(self, s, f):
        """exp(s*d)(f) by the binomial closed form, under FLOW_TERM_CAP and characters."""
        if f.monoid != self.monoid:
            raise ValueError("element of a different algebra")
        e = self.root.vector
        degrees = [self.degree(u) for u, _ in f.terms]
        count = sum(degrees) + len(degrees)
        if count > FLOW_TERM_CAP:
            raise BoundExceeded("the flow would build %d terms, over FLOW_TERM_CAP = %d; "
                                "flow an element of lower degree" % (count, FLOW_TERM_CAP))
        powers = characters([rational(s)], [[j] for j in range(max(degrees, default=0) + 1)])
        out = []
        for (u, c), k in zip(f.terms, degrees):
            shifted = u
            for j in range(k + 1):
                out.append((shifted, c * comb(k, j) * powers[j]))
                shifted = shifted + e
        return AlgebraElement(self.monoid, out)

    def kernel_generators(self):
        """Monoid generators of degree zero; they generate the kernel."""
        return tuple(g for g, k in zip(self.monoid.generators, self.degrees) if not k)

    def kernel_rank(self):
        """rank - 1: the degree-0 generators are those on the facet p^perp
        of the weight cone, and the generators on a face span it."""
        return self.monoid.rank - 1
