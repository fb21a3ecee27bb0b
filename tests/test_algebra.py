from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FLOW_CASES, derivation_powers, flow_case, iterated_exp_flow

from toricflow import (
    AffineMonoid,
    AlgebraElement,
    DemazureRoot,
    HomogeneousLND,
    IllDefinedRoot,
    LatticeVector,
    M_SIDE,
    NotADemazureRoot,
    is_root,
)


def mono(mon, entries, coeff=1):
    return AlgebraElement.monomial(mon, LatticeVector(entries, M_SIDE), coeff)


def test_construction_merges_and_drops_zeros(quadric):
    f = AlgebraElement(quadric, [
        (LatticeVector((1, 1), M_SIDE), Fraction(2)),
        (LatticeVector((1, 1), M_SIDE), Fraction(-2)),
        (LatticeVector((1, 0), M_SIDE), Fraction(3)),
    ])
    assert f.terms == ((LatticeVector((1, 0), M_SIDE), Fraction(3)),)
    assert not f.is_zero
    assert (f - f).is_zero


def test_exponents_must_lie_in_monoid(quadric):
    with pytest.raises(ValueError):
        mono(quadric, (0, 1))
    with pytest.raises(ValueError):
        mono(quadric, (-1, 0))


def test_arithmetic(a2):
    x = mono(a2, (1, 0))
    y = mono(a2, (0, 1))
    f = (x + 2 * y) ** 2
    assert f.coefficient(LatticeVector((2, 0), M_SIDE)) == 1
    assert f.coefficient(LatticeVector((1, 1), M_SIDE)) == 4
    assert f.coefficient(LatticeVector((0, 2), M_SIDE)) == 4
    assert f.coefficient(LatticeVector((1, 0), M_SIDE)) == 0
    assert (f / 2).coefficient(LatticeVector((1, 1), M_SIDE)) == 2
    assert (f - f).is_zero
    assert (0 * f).is_zero
    one = AlgebraElement.one(a2)
    assert f * one == f
    assert f + AlgebraElement.zero(a2) == f


def test_terms_are_lex_sorted(a2):
    f = mono(a2, (2, 0)) + mono(a2, (0, 2)) + mono(a2, (1, 1))
    exponents = [u.entries for u, _ in f.terms]
    assert exponents == sorted(exponents)


def test_mixed_monoid_rejected(a2, quadric):
    with pytest.raises(ValueError):
        mono(a2, (1, 0)) + mono(quadric, (1, 0))


def test_evaluate_at_torus_is_a_homomorphism(a2):
    f = mono(a2, (1, 0)) + 3 * mono(a2, (0, 1))
    g = mono(a2, (1, 1), Fraction(1, 2)) - mono(a2, (2, 0))
    t = (Fraction(2), Fraction(-3, 5))
    assert (f * g).evaluate_at_torus(t) == f.evaluate_at_torus(t) * g.evaluate_at_torus(t)
    assert (f + g).evaluate_at_torus(t) == f.evaluate_at_torus(t) + g.evaluate_at_torus(t)


def quadric_lnd():
    mon = AffineMonoid([(1, 0), (1, 1), (1, 2)], 2)
    return mon, HomogeneousLND(mon, LatticeVector((0, -1), M_SIDE))


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


def test_ill_defined_root_on_unsaturated_monoid():
    mon = AffineMonoid([(1, 0), (1, 2), (1, 3)], 2)
    # (0,-1) is a root of the dual cone, but (1,2) + (0,-1) = (1,1) is
    # missing from the monoid
    with pytest.raises(IllDefinedRoot):
        HomogeneousLND(mon, LatticeVector((0, -1), M_SIDE))


def test_lnd_action_on_generators():
    mon, lnd = quadric_lnd()
    a, b, c = (AlgebraElement.monomial(mon, g) for g in mon.generators)
    assert lnd.apply(a).is_zero
    assert lnd.apply(b) == a
    assert lnd.apply(c) == 2 * b
    assert lnd.degree((1, 2)) == 2
    assert lnd.degree(mon.generators[0]) == 0


def _random_elements(mon, rng_draw):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    gens = list(mon.generators)
    pairs = st.lists(st.tuples(st.sampled_from(gens), coeffs), max_size=4)
    return pairs.map(lambda ps: sum(
        (AlgebraElement.monomial(mon, u, c) for u, c in ps),
        AlgebraElement.zero(mon)))


@given(st.data())
def test_leibniz(data):
    mon, lnd = quadric_lnd()
    f = data.draw(_random_elements(mon, None))
    g = data.draw(_random_elements(mon, None))
    assert lnd.apply(f * g) == lnd.apply(f) * g + f * lnd.apply(g)


@given(st.data())
def test_lnd_is_additive(data):
    mon, lnd = quadric_lnd()
    f = data.draw(_random_elements(mon, None))
    g = data.draw(_random_elements(mon, None))
    assert lnd.apply(f + g) == lnd.apply(f) + lnd.apply(g)


def test_nilpotency_degree_exact():
    mon, lnd = quadric_lnd()
    c = AlgebraElement.monomial(mon, mon.generators[2])
    assert lnd.nilpotency_degree(c) == 3
    twice = lnd.apply(lnd.apply(c))
    assert not twice.is_zero
    assert lnd.apply(twice).is_zero
    a = AlgebraElement.monomial(mon, mon.generators[0])
    assert lnd.nilpotency_degree(a) == 1
    with pytest.raises(ValueError):
        lnd.nilpotency_degree(AlgebraElement.zero(mon))


def test_exp_flow_frozen_trace():
    mon, lnd = quadric_lnd()
    c = AlgebraElement.monomial(mon, mon.generators[2])
    s = Fraction(2)
    flowed = lnd.exp_flow(s, c)
    assert flowed.coefficient(LatticeVector((1, 2), M_SIDE)) == 1
    assert flowed.coefficient(LatticeVector((1, 1), M_SIDE)) == 4
    assert flowed.coefficient(LatticeVector((1, 0), M_SIDE)) == 4


@pytest.mark.parametrize("name", sorted(FLOW_CASES))
@settings(max_examples=30)
@given(s=st.fractions(min_value=-4, max_value=4, max_denominator=4), data=st.data())
def test_closed_forms_match_apply_iteration(name, s, data):
    mon, lnd = flow_case(name)
    f = data.draw(_random_elements(mon, None))
    g = data.draw(_random_elements(mon, None))
    first = AlgebraElement.monomial(mon, mon.generators[0])
    for h in (first, f, f * g + first):
        assert lnd.exp_flow(s, h) == iterated_exp_flow(lnd, s, h)
        if not h.is_zero:
            assert lnd.nilpotency_degree(h) == len(derivation_powers(lnd, h))


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
    assert lnd.exp_flow(s, f * g) == lnd.exp_flow(s, f) * lnd.exp_flow(s, g)


def test_kernel(quadric, a3):
    lnd = HomogeneousLND(quadric, LatticeVector((0, -1), M_SIDE))
    assert [u.entries for u in lnd.kernel_generators()] == [(1, 0)]
    assert lnd.kernel_rank() == 1
    lnd3 = HomogeneousLND(a3, LatticeVector((-1, 0, 0), M_SIDE))
    assert lnd3.kernel_rank() == 2
    for u in lnd3.kernel_generators():
        assert lnd3.apply(AlgebraElement.monomial(a3, u)).is_zero
