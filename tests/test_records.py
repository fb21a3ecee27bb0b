"""The records keep the semantics of frozen dataclasses: a field can be
neither set nor deleted, no attribute can be added, equal values compare
and hash equal, and the repr is Name(field=value, ...) in field order."""

import pytest

from toricflow import (
    AffineMonoid,
    HomogeneousLND,
    LatticeVector,
    N_SIDE,
    classify,
    torus_point,
    verify_compatible,
)
from toricflow.algebra import AlgebraElement

from conftest import fixed_locus

FIELDS = {
    "LatticeVector": "entries side",
    "Cone": "side rank rays facet_normals",
    "Face": "rays dim",
    "ToricPoint": "monoid coords provenance",
    "AlgebraElement": "monoid terms",
    "HomogeneousLND": "monoid root ray degrees",
    "SaturationResult": "saturated witness",
    "GradingClass": "kind zero_face ray_index degree_gcd effective",
    "FixedDivisor": "ray_index ray vanishing surviving",
    "DemazureRoot": "vector ray_index",
    "InvariantCheck": "exponent base_value gm_values ga_values constant annihilated",
    "CompatibilityReport": "passed subgroup point ray_index ray root root_box "
                           "invariant_checks limit flow_parameter reached_exactly "
                           "gm_samples ga_samples derived_facts",
}

# LatticeVector and Cone have their own reprs; the others are spelled out
# where short
REPRS = {
    "LatticeVector": "LatticeVector((1, 0), N)",
    "Cone": "Cone(M, rank=2, rays=[(0, 1), (1, 0)])",
    "Face": "Face(rays=(LatticeVector((1, 0), M),), dim=1)",
    "SaturationResult": "SaturationResult(saturated=True, witness=None)",
    "FixedDivisor": "FixedDivisor(ray_index=1, ray=LatticeVector((1, 0), N), "
                    "vanishing=(0,), surviving=(1,))",
    "DemazureRoot": "DemazureRoot(vector=LatticeVector((-1, 0), M), ray_index=1)",
    "AlgebraElement": "AlgebraElement(monoid=AffineMonoid([(1, 0), (0, 1)]), "
                      "terms=((LatticeVector((2, 0), M), Fraction(1, 3)),))",
    "HomogeneousLND": "HomogeneousLND(monoid=AffineMonoid([(1, 0), (0, 1)]), "
                      "root=DemazureRoot(vector=LatticeVector((-1, 0), M), ray_index=1), "
                      "ray=LatticeVector((1, 0), N), degrees=(1, 0))",
}


def build(name):
    """A new record of the named type, from the verification of l = (1, 0)
    on the plane."""
    mon = AffineMonoid([(1, 0), (0, 1)], 2)
    l = LatticeVector((1, 0), N_SIDE)
    report = verify_compatible(mon, l, torus_point(mon, (2, 3)))
    return {"LatticeVector": l, "Cone": mon.weight_cone,
            "Face": mon.weight_cone.facets()[0], "ToricPoint": report.point,
            "AlgebraElement": AlgebraElement(mon, [((2, 0), "1/3")]),
            "HomogeneousLND": HomogeneousLND(mon, report.root),
            "SaturationResult": mon.saturation(), "GradingClass": classify(mon.weight_cone, l),
            "FixedDivisor": fixed_locus(mon, l), "DemazureRoot": report.root,
            "InvariantCheck": report.invariant_checks[0],
            "CompatibilityReport": report}[name]


@pytest.mark.parametrize("name", FIELDS)
def test_record_is_frozen_and_compares_by_value(name):
    record, again = build(name), build(name)
    assert type(record).__name__ == name
    for field in FIELDS[name].split():
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record is not again and record == again
    if name != "CompatibilityReport":  # its derived facts are dicts
        assert hash(record) == hash(again)


@pytest.mark.parametrize("name", FIELDS)
def test_record_repr(name):
    record = build(name)
    fields = ", ".join("%s=%r" % (f, getattr(record, f)) for f in FIELDS[name].split())
    assert repr(record) == REPRS.get(name, "%s(%s)" % (name, fields))
