import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (FLOW_CASES, add, character_value_by_powers, derivation_powers,
                      flow_case, iterated_exp_flow, monomial, multiply, random_monoids,
                      scale, zero)

from toricflow import (
    AffineMonoid,
    BoundExceeded,
    Cone,
    DemazureRoot,
    HomogeneousLND,
    IllDefinedRoot,
    LatticeVector,
    M_SIDE,
    N_SIDE,
    NotADemazureRoot,
    is_root,
    limit_point,
    smallest_root_at_ray,
    torus_point,
)
from toricflow.algebra import FLOW_TERM_CAP, POWER_BIT_CAP, AlgebraElement, characters
from toricflow.orbits import FLOW, ToricPoint, evaluate


def mono(mon, entries, coeff=1):
    return monomial(mon, LatticeVector(entries, M_SIDE), coeff)


def test_construction_merges_and_drops_zeros(quadric):
    f = AlgebraElement(quadric, [
        (LatticeVector((1, 1), M_SIDE), Fraction(2)),
        (LatticeVector((1, 1), M_SIDE), Fraction(-2)),
        (LatticeVector((1, 0), M_SIDE), Fraction(3)),
    ])
    assert f.terms == ((LatticeVector((1, 0), M_SIDE), Fraction(3)),)
    assert add(f, scale(-1, f)).terms == ()


def test_exponents_must_lie_in_monoid(quadric):
    with pytest.raises(ValueError):
        mono(quadric, (0, 1))
    with pytest.raises(ValueError):
        mono(quadric, (-1, 0))


def test_arithmetic(a2):
    # the ring oracles of conftest, which the derivation tests rely on
    x = mono(a2, (1, 0))
    y = mono(a2, (0, 1))
    s = add(x, scale(2, y))
    f = multiply(s, s)
    assert {u.entries: c for u, c in f.terms} == {(2, 0): 1, (1, 1): 4, (0, 2): 4}
    assert {u.entries: c for u, c in scale(Fraction(1, 2), f).terms}[(1, 1)] == 2
    assert add(f, scale(-1, f)).terms == ()
    assert scale(0, f).terms == ()
    assert multiply(f, mono(a2, (0, 0))) == f
    assert add(f, zero(a2)) == f
    assert multiply(f, zero(a2)) == zero(a2)


def test_terms_are_lex_sorted(a2):
    f = add(mono(a2, (2, 0)), mono(a2, (0, 2)), mono(a2, (1, 1)))
    exponents = [u.entries for u, _ in f.terms]
    assert exponents == sorted(exponents)


def test_mixed_monoid_rejected(a2, quadric):
    lnd = HomogeneousLND(quadric, LatticeVector((0, -1), M_SIDE))
    other = mono(a2, (1, 0))
    with pytest.raises(ValueError):
        lnd.apply(other)
    with pytest.raises(ValueError):
        lnd.exp_flow(1, other)
    with pytest.raises(ValueError):
        evaluate(other, torus_point(quadric, (3, 2)))


def test_evaluate_at_torus_is_a_homomorphism(a2):
    f = add(mono(a2, (1, 0)), scale(3, mono(a2, (0, 1))))
    g = add(mono(a2, (1, 1), Fraction(1, 2)), scale(-1, mono(a2, (2, 0))))
    point = torus_point(a2, (Fraction(2), Fraction(-3, 5)))
    # at a torus point and at a point of the boundary, y = 0
    for x in (point, limit_point(a2, LatticeVector((0, 1), N_SIDE), point)):
        assert evaluate(multiply(f, g), x) == evaluate(f, x) * evaluate(g, x)
        assert evaluate(add(f, g), x) == evaluate(f, x) + evaluate(g, x)


def quadric_lnd():
    mon = AffineMonoid([(1, 0), (1, 1), (1, 2)], 2)
    return mon, HomogeneousLND(mon, LatticeVector((0, -1), M_SIDE))


_bases = st.one_of(st.integers(-9, 9),
                   st.fractions(min_value=-9, max_value=9, max_denominator=12))


@settings(max_examples=200)
@given(data=st.data(), rank=st.integers(1, 4))
def test_characters_match_fraction_powers(data, rank):
    # ints and Fractions of either sign, exponents of either sign or zero
    t = data.draw(st.lists(_bases.filter(bool), min_size=rank, max_size=rank))
    u = data.draw(st.lists(st.integers(-5, 5), min_size=rank, max_size=rank))
    [value] = characters(t, [u])
    assert type(value) is Fraction
    assert value == character_value_by_powers(t, u)


@settings(max_examples=60)
@given(data=st.data(), rank=st.integers(1, 3))
def test_power_cap_lets_no_larger_power_through(data, rank):
    # exponents up to 10^5 on bases up to 2^10 put the bound on both sides
    # of the cap; a power that passes has at most cap + rank bits, one more
    # per factor than the bound
    side = st.integers(-2**10, 2**10)
    t = data.draw(st.lists(st.one_of(side, st.fractions(max_denominator=2**10).map(
        lambda q: Fraction(q.numerator % 2**10, q.denominator))).filter(bool),
        min_size=rank, max_size=rank))
    u = data.draw(st.lists(st.integers(-10**5, 10**5), min_size=rank, max_size=rank))
    try:
        one, value = characters(t, [[0] * rank, u])
    except BoundExceeded as error:
        assert "over POWER_BIT_CAP = %d;" % POWER_BIT_CAP in str(error)
        return
    assert one == 1
    assert max(value.numerator.bit_length(), value.denominator.bit_length()) <= (
        POWER_BIT_CAP + rank)


def test_power_cap_refuses_one_past_the_bound():
    # 0, 1 and -1 cost no bits, whatever their exponent
    assert characters([0, 1, -1, Fraction(1)], [[10**12] * 4]) == [0]
    for x in (2, 3, Fraction(-7, 3), Fraction(1, 1024), 12345678901234567):
        size = (max(abs(Fraction(x).numerator), Fraction(x).denominator) - 1).bit_length()
        most = POWER_BIT_CAP // size
        assert characters([x], [(most,), (-most,)]) == [Fraction(x) ** most, Fraction(x) ** -most]
        with pytest.raises(BoundExceeded) as info:
            characters([x], [(1,), (-most - 1,)])
        assert str(info.value) == (
            "an exact power would have up to %d bits, over POWER_BIT_CAP = %d; give "
            "smaller coordinates, exponents or flow times" % ((most + 1) * size, POWER_BIT_CAP))


@settings(max_examples=50)
@given(data=st.data(), rank=st.integers(1, 4))
def test_characters_of_zero_base(data, rank):
    t = data.draw(st.lists(_bases.filter(bool), min_size=rank, max_size=rank))
    u = data.draw(st.lists(st.integers(-5, 5), min_size=rank, max_size=rank))
    k = data.draw(st.integers(0, rank - 1))
    t[k] = data.draw(st.sampled_from([0, Fraction(0)]))
    if u[k] < 0:
        with pytest.raises(ZeroDivisionError):
            characters(t, [u])
        with pytest.raises(ZeroDivisionError):
            character_value_by_powers(t, u)
    else:
        assert characters(t, [u]) == [character_value_by_powers(t, u)]


def test_characters_bound_the_batch_before_forming_a_row():
    # the first row divides by zero once formed, so only a bound taken over
    # the whole batch first can raise BoundExceeded
    with pytest.raises(BoundExceeded, match="up to %d bits, over" % (POWER_BIT_CAP + 1)):
        characters([0, 2], [[-1, 0], [0, POWER_BIT_CAP + 1]])
    # a batch whose largest row is at the cap is formed
    assert characters([0, 2], [[0, 1], [1, POWER_BIT_CAP]]) == [2, 0]


def test_characters_of_one_value_are_its_fraction_powers():
    # a lone value takes Fraction's own power: an int gives Fractions, never
    # floats, and a zero base under a negative exponent still divides by zero
    for x in (0, 1, -1, 2, -3, Fraction(0), Fraction(-7, 3), Fraction(5, 12)):
        rows = [(e,) for e in range(0 if x == 0 else -6, 7)]
        values = characters([x], rows)
        assert [type(v) for v in values] == [Fraction] * len(rows)
        assert values == [Fraction(x) ** e for (e,) in rows]
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            characters([zero], [(2,), (-1,)])


PLANE = AffineMonoid.of_cone(Cone.from_rays([(1, 0), (0, 1)], 2, M_SIDE))


def _refuses_quickly(run, bits):
    start = time.perf_counter()
    with pytest.raises(BoundExceeded) as info:
        run()
    assert time.perf_counter() - start < 0.5
    assert str(info.value).startswith("an exact power would have up to %d bits, over "
                                      "POWER_BIT_CAP = %d;" % (bits, POWER_BIT_CAP))


@pytest.mark.parametrize("point, u, bits", [
    # 3^(10^7) has 15,849,626 bits; its bound is 10^7 * 2
    (torus_point(PLANE, (3, 1)), (10**7, 0), 2 * 10**7),
    # off the torus, of the coordinate 2^1000 at the generator (1, 0)
    (ToricPoint(PLANE, (0, 2**1000), (FLOW,)), (300, 0), 300 * 1000),
])
def test_evaluate_refuses_a_power_past_the_cap(point, u, bits):
    f = mono(PLANE, u)
    _refuses_quickly(lambda: evaluate(f, point), bits)


def test_exp_flow_refuses_a_power_of_s_past_the_cap():
    # s^1400 for s = 2^200 has 280,001 bits; its bound is 1400 * 200
    lnd = HomogeneousLND(PLANE, LatticeVector((-1, 0), M_SIDE))
    f = mono(PLANE, (1400, 0))
    _refuses_quickly(lambda: lnd.exp_flow(2**200, f), 280_000)
    # s^2 for s = 2^(cap/2) is the largest square the cap lets through
    square = mono(PLANE, (2, 0))
    assert lnd.exp_flow(2**(POWER_BIT_CAP // 2), square).terms[0][1] == 2**POWER_BIT_CAP
    _refuses_quickly(lambda: lnd.exp_flow(2**(POWER_BIT_CAP // 2 + 1), square), POWER_BIT_CAP + 2)


@pytest.mark.parametrize("s, degrees", [
    # 0 and +-1 have powers of no bits, so only the term count bounds them
    (0, [20_000]), (1, [5_000]), (-1, [FLOW_TERM_CAP]),
    # k + 1 terms for each term of degree k
    (Fraction(1, 2), [FLOW_TERM_CAP // 2 - 1, FLOW_TERM_CAP // 2]),
])
def test_exp_flow_refuses_a_flow_past_the_term_cap(s, degrees):
    lnd = HomogeneousLND(PLANE, LatticeVector((-1, 0), M_SIDE))
    f = AlgebraElement(PLANE, [((k, 0), 1) for k in degrees])
    start = time.perf_counter()
    with pytest.raises(BoundExceeded) as info:
        lnd.exp_flow(s, f)
    assert time.perf_counter() - start < 0.5
    assert str(info.value) == (
        "the flow would build %d terms, over FLOW_TERM_CAP = %d; flow an element of "
        "lower degree" % (sum(degrees) + len(degrees), FLOW_TERM_CAP))


def test_exp_flow_forms_the_powers_of_a_large_s_without_a_gcd():
    # the powers s^0 .. s^100 of a 2,621-bit s; forming each as Fraction(num,
    # den) spends about 20 ms a power in gcd, Fraction's own power none
    lnd = HomogeneousLND(PLANE, LatticeVector((-1, 0), M_SIDE))
    s = Fraction(2**2621 - 1, 2**2621 - 3)
    start = time.perf_counter()
    flowed = lnd.exp_flow(s, mono(PLANE, (100, 0)))
    assert time.perf_counter() - start < 1
    assert flowed.terms[0] == (LatticeVector((0, 0), M_SIDE), s**100)
    assert flowed.terms[50] == (LatticeVector((50, 0), M_SIDE), comb(100, 50) * s**50)


def test_exp_flow_builds_the_largest_flow_the_term_cap_admits():
    lnd = HomogeneousLND(PLANE, LatticeVector((-1, 0), M_SIDE))
    flowed = lnd.exp_flow(1, mono(PLANE, (FLOW_TERM_CAP - 1, 0)))
    assert len(flowed.terms) == FLOW_TERM_CAP
    assert flowed.terms[1][1] == FLOW_TERM_CAP - 1


def test_lnd_accepts_root_object_and_vector(quadric):
    checked = is_root(quadric.dual_cone, (0, -1))
    by_object = HomogeneousLND(quadric, checked)
    by_vector = HomogeneousLND(quadric, LatticeVector((0, -1), M_SIDE))
    assert by_object.root == by_vector.root
    assert by_object.ray.entries == (0, 1)
    with pytest.raises(NotADemazureRoot):
        HomogeneousLND(quadric, DemazureRoot(LatticeVector((0, -1), M_SIDE), 1))


def test_lnd_rejects_non_roots(quadric):
    with pytest.raises(NotADemazureRoot):
        HomogeneousLND(quadric, LatticeVector((1, 1), M_SIDE))
    with pytest.raises(ValueError, match="M-side"):
        HomogeneousLND(quadric, LatticeVector((1, -1), N_SIDE))


def test_lnd_is_immutable(quadric):
    # the flow and the certificates read degrees after the well-definedness
    # check has passed on them, so no slot can be set again or deleted
    lnd = HomogeneousLND(quadric, LatticeVector((0, -1), M_SIDE))
    for name in ("monoid", "root", "ray", "degrees"):
        with pytest.raises(AttributeError):
            setattr(lnd, name, getattr(lnd, name))
        with pytest.raises(AttributeError):
            delattr(lnd, name)
    with pytest.raises(AttributeError):
        lnd.degrees = (9,)
    assert lnd.degrees == (0, 1, 2)
    assert lnd == HomogeneousLND(quadric, LatticeVector((0, -1), M_SIDE))


def test_ill_defined_root_on_unsaturated_monoid():
    mon = AffineMonoid([(1, 0), (1, 2), (1, 3)], 2)
    # (0,-1) is a root of the dual cone, but (1,2) + (0,-1) = (1,1) is
    # missing from the monoid
    with pytest.raises(IllDefinedRoot):
        HomogeneousLND(mon, LatticeVector((0, -1), M_SIDE))


def test_lnd_action_on_generators():
    mon, lnd = quadric_lnd()
    a, b, c = (monomial(mon, g) for g in mon.generators)
    assert lnd.apply(a).terms == ()
    assert lnd.apply(b) == a
    assert lnd.apply(c) == scale(2, b)
    assert lnd.degree((1, 2)) == 2
    assert lnd.degree(mon.generators[0]) == 0


@settings(max_examples=60, deadline=None)
@given(random_monoids(), st.data())
def test_degrees_pair_the_ray_with_each_generator(mon, data):
    ray_index = data.draw(st.integers(0, len(mon.dual_cone.rays) - 1))
    try:
        lnd = HomogeneousLND(mon, smallest_root_at_ray(mon.dual_cone, ray_index)[0])
    except IllDefinedRoot:
        assume(False)
    p = mon.dual_cone.rays[ray_index].entries
    assert lnd.degrees == tuple(sum(a * b for a, b in zip(p, g.entries))
                                for g in mon.generators)
    assert lnd.degrees == tuple(map(lnd.degree, mon.generators))


def _random_elements(mon, rng_draw):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    gens = list(mon.generators)
    pairs = st.lists(st.tuples(st.sampled_from(gens), coeffs), max_size=4)
    return pairs.map(lambda ps: add(zero(mon), *(monomial(mon, u, c) for u, c in ps)))


@given(st.data())
def test_leibniz(data):
    mon, lnd = quadric_lnd()
    f = data.draw(_random_elements(mon, None))
    g = data.draw(_random_elements(mon, None))
    assert lnd.apply(multiply(f, g)) == add(multiply(lnd.apply(f), g),
                                            multiply(f, lnd.apply(g)))


@given(st.data())
def test_lnd_is_additive(data):
    mon, lnd = quadric_lnd()
    f = data.draw(_random_elements(mon, None))
    g = data.draw(_random_elements(mon, None))
    assert lnd.apply(add(f, g)) == add(lnd.apply(f), lnd.apply(g))


def test_nilpotency_degree_exact():
    # chi^u dies after exactly <p,u> + 1 applications
    mon, lnd = quadric_lnd()
    c = monomial(mon, mon.generators[2])
    assert len(derivation_powers(lnd, c)) == 3
    twice = lnd.apply(lnd.apply(c))
    assert twice.terms != ()
    assert lnd.apply(twice).terms == ()
    a = monomial(mon, mon.generators[0])
    assert derivation_powers(lnd, a) == [a]
    assert derivation_powers(lnd, zero(mon)) == []


def test_exp_flow_frozen_trace():
    mon, lnd = quadric_lnd()
    c = monomial(mon, mon.generators[2])
    flowed = lnd.exp_flow(Fraction(2), c)
    assert {u.entries: v for u, v in flowed.terms} == {(1, 2): 1, (1, 1): 4, (1, 0): 4}


@pytest.mark.parametrize("name", sorted(FLOW_CASES))
@settings(max_examples=30)
@given(s=st.fractions(min_value=-4, max_value=4, max_denominator=4), data=st.data())
def test_closed_forms_match_apply_iteration(name, s, data):
    mon, lnd = flow_case(name)
    f = data.draw(_random_elements(mon, None))
    g = data.draw(_random_elements(mon, None))
    first = monomial(mon, mon.generators[0])
    for h in (first, f, add(multiply(f, g), first)):
        assert lnd.exp_flow(s, h) == iterated_exp_flow(lnd, s, h)
        if h.terms:
            degree = max(lnd.degree(u) for u, _ in h.terms)
            assert len(derivation_powers(lnd, h)) == degree + 1


@given(s1=st.fractions(min_value=-4, max_value=4, max_denominator=4),
       s2=st.fractions(min_value=-4, max_value=4, max_denominator=4),
       data=st.data())
def test_exp_flow_group_law(s1, s2, data):
    mon, lnd = quadric_lnd()
    f = data.draw(_random_elements(mon, None))
    once = lnd.exp_flow(s2, lnd.exp_flow(s1, f))
    assert once == lnd.exp_flow(s1 + s2, f)
    assert lnd.exp_flow(Fraction(0), f) == f


@given(s=st.fractions(min_value=-4, max_value=4, max_denominator=4), data=st.data())
def test_exp_flow_is_multiplicative(s, data):
    mon, lnd = quadric_lnd()
    f = data.draw(_random_elements(mon, None))
    g = data.draw(_random_elements(mon, None))
    assert lnd.exp_flow(s, multiply(f, g)) == multiply(lnd.exp_flow(s, f),
                                                      lnd.exp_flow(s, g))


def test_kernel(quadric, a3):
    lnd = HomogeneousLND(quadric, LatticeVector((0, -1), M_SIDE))
    assert [u.entries for u in lnd.kernel_generators()] == [(1, 0)]
    assert lnd.kernel_rank() == 1
    lnd3 = HomogeneousLND(a3, LatticeVector((-1, 0, 0), M_SIDE))
    assert lnd3.kernel_rank() == 2
    for u in lnd3.kernel_generators():
        assert lnd3.apply(monomial(a3, u)).terms == ()
