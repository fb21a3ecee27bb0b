"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the lines directly; under
plain `pytest -v` the per-test verdicts carry the same information.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from toricflow import (
    AffineMonoid,
    Cone,
    GradingKind,
    HomogeneousLND,
    LatticeVector,
    M_SIDE,
    N_SIDE,
    NormalityRequired,
    NotParabolic,
    classify,
    hilbert_basis,
    matrix_rank,
    primitive,
    roots_in_box,
    straightening_subtori,
    torus_point,
    verify_compatible,
)
from toricflow.algebra import AlgebraElement
from toricflow.cli import main as cli_main

from conftest import (CUSP_SCENE, DUALITY_CONES, QUADRIC_SCENE, add, cone_fixture,
                      derivation_powers, fixed_locus, kernel_rank_by_echelon,
                      monomial, multiply, root_growth_witness)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print("[acceptance] criterion %d (%s): FAIL" % (number, label))
        raise
    print("[acceptance] criterion %d (%s): PASS" % (number, label))


def saturated_fixtures():
    return [
        ("line", AffineMonoid([(1,)], 1)),
        ("a2", AffineMonoid([(1, 0), (0, 1)], 2)),
        ("a3", AffineMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)),
        ("quadric", AffineMonoid([(1, 0), (1, 1), (1, 2)], 2)),
    ]


def test_criterion_1_duality_involution():
    with criterion(1, "duality involution"):
        start = time.monotonic()
        assert len(DUALITY_CONES) >= 10
        for name, rank, rays in DUALITY_CONES:
            cone = Cone.from_rays(rays, rank, N_SIDE)
            double = cone.dual().dual()
            assert double == cone, name
            assert double.rays == cone.rays
            # rebuild the dual from its rays: a second, independent
            # elimination run must reproduce the stored description
            rebuilt = Cone.from_rays([r.entries for r in cone.dual().rays],
                                     rank, M_SIDE)
            assert rebuilt.rays == cone.dual().rays, name
            assert rebuilt.facet_normals == cone.dual().facet_normals, name
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, "duality suite took %.3fs" % elapsed


ROOT_FIXTURES = ["quadrant", "quadric", "wide", "octant", "square"]


def _definition_filter(sigma, bound):
    rays = [r.entries for r in sigma.rays]
    out = set()
    for e in product(range(-bound, bound + 1), repeat=sigma.rank):
        values = [sum(a * b for a, b in zip(r, e)) for r in rays]
        if sorted(v for v in values if v < 0) == [-1]:
            out.add((values.index(-1), e))
    return out


def test_criterion_2_demazure_oracle():
    with criterion(2, "Demazure root oracle"):
        for name in ROOT_FIXTURES:
            sigma = cone_fixture(name)
            for bound in (3, 5, 10):
                got = {(r.ray_index, r.vector.entries)
                       for r in roots_in_box(sigma, bound)}
                assert got == _definition_filter(sigma, bound), (name, bound)
        quadrant = cone_fixture("quadrant")
        roots = roots_in_box(quadrant, 5)
        assert len(roots) == 12
        assert [sum(1 for r in roots if r.ray_index == i) for i in (0, 1)] == [6, 6]
        for name in ROOT_FIXTURES:
            sigma = cone_fixture(name)
            if sigma.rank < 2:
                continue
            for index in range(len(sigma.rays)):
                small, large = root_growth_witness(sigma, index, 5, 10)
                assert small < large, (name, index)


def _lnd_fixtures():
    out = []
    for mon in (AffineMonoid([(1, 0), (0, 1)], 2),
                AffineMonoid([(1, 0), (1, 1), (1, 2)], 2),
                AffineMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)):
        sigma = mon.dual_cone
        for index in range(len(sigma.rays)):
            for root in roots_in_box(sigma, 2, ray_index=index)[:2]:
                out.append((mon, HomogeneousLND(mon, root)))
    return out


def _random_element(mon, rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        picks = [rng.choice(mon.generators) for _ in range(rng.randint(1, 2))]
        exponent = picks[0]
        for extra in picks[1:]:
            exponent = exponent + extra
        terms.append((exponent, coeff))
    return AlgebraElement(mon, terms)


def test_criterion_3_lnd_laws():
    # the package's apply and exp_flow, checked through the ring oracles
    # of conftest: Leibniz, nilpotency degree, group law, multiplicativity
    with criterion(3, "derivation laws"):
        start = time.monotonic()
        rng = random.Random(20260816)
        fixtures = _lnd_fixtures()
        assert fixtures
        for mon, lnd in fixtures:
            for _ in range(100):
                f = _random_element(mon, rng)
                g = _random_element(mon, rng)
                assert lnd.apply(multiply(f, g)) == add(multiply(lnd.apply(f), g),
                                                        multiply(f, lnd.apply(g)))
            for gen in mon.generators:
                expected = sum(a * b for a, b in zip(lnd.ray.entries,
                                                     gen.entries)) + 1
                assert len(derivation_powers(lnd, monomial(mon, gen))) == expected
            for _ in range(50):
                s1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                s2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                f = _random_element(mon, rng)
                g = _random_element(mon, rng)
                assert lnd.exp_flow(s2, lnd.exp_flow(s1, f)) == \
                    lnd.exp_flow(s1 + s2, f)
                assert lnd.exp_flow(s1, multiply(f, g)) == \
                    multiply(lnd.exp_flow(s1, f), lnd.exp_flow(s1, g))
            assert kernel_rank_by_echelon(lnd) == lnd.kernel_rank() == mon.rank - 1
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, "derivation laws took %.3fs" % elapsed


def test_criterion_4_certificate_end_to_end():
    with criterion(4, "compatibility certificate"):
        start = time.monotonic()
        gm = (Fraction(2), Fraction(1, 2), Fraction(-3))
        ga = (Fraction(1), Fraction(-1), Fraction(7, 3))

        a2 = AffineMonoid([(1, 0), (0, 1)], 2)
        x = torus_point(a2, (2, 5))
        assert x.coords == (2, 5)
        report = verify_compatible(a2, LatticeVector((1, 0), N_SIDE), x,
                                   gm_samples=gm, ga_samples=ga)
        assert report.passed
        assert report.limit.coords == (0, 5)
        assert report.reached_exactly is True
        assert all(c.constant and c.annihilated for c in report.invariant_checks)

        quadric = AffineMonoid([(1, 0), (1, 1), (1, 2)], 2)
        p = torus_point(quadric, (3, 2))
        assert p.coords == (3, 6, 12)
        report = verify_compatible(quadric, LatticeVector((0, 1), N_SIDE), p,
                                   gm_samples=gm, ga_samples=ga)
        assert report.passed
        assert report.limit.coords == (3, 0, 0)
        assert report.reached_exactly is True
        assert all(c.constant and c.annihilated for c in report.invariant_checks)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, "certificates took %.3fs" % elapsed


def test_criterion_5_negative_fixtures(tmp_path, capsys):
    with criterion(5, "negative fixtures and exit codes"):
        a2 = AffineMonoid([(1, 0), (0, 1)], 2)
        a3 = AffineMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        cusp = AffineMonoid([(2,), (3,)], 1)
        x = torus_point(a2, (2, 5))

        with pytest.raises(NotParabolic) as info:
            verify_compatible(a2, LatticeVector((1, -1), N_SIDE), x)
        assert info.value.verdict == "NotParabolic(Hyperbolic)"
        assert classify(a2.weight_cone, LatticeVector((1, 1), N_SIDE)).kind is \
            GradingKind.ELLIPTIC
        assert classify(a3.weight_cone, LatticeVector((1, 1, 0), N_SIDE)).kind is \
            GradingKind.DEGENERATE_NONNEGATIVE
        with pytest.raises(NormalityRequired) as info:
            verify_compatible(cusp, LatticeVector((1,), N_SIDE),
                              torus_point(cusp, (2,)))
        assert "(1,)" in str(info.value)

        # the same refusals drive the exit code taxonomy
        a2_scene = tmp_path / "a2.json"
        a2_scene.write_text(json.dumps({
            "rank": 2, "monoid_generators": [[1, 0], [0, 1]],
            "points": {"x": {"torus": [2, 5]}}}))
        cusp_scene = tmp_path / "cusp.json"
        cusp_scene.write_text(json.dumps(CUSP_SCENE))

        code = cli_main(["--scene", str(a2_scene), "verify",
                         "--l", "1,-1", "--point", "x"])
        assert code == 3
        code = cli_main(["--scene", str(cusp_scene), "verify",
                         "--l", "l", "--point", "p"])
        assert code == 3
        code = cli_main(["--scene", str(a2_scene), "classify", "--l", "1,1"])
        assert code == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli_main(["--scene", str(bad), "dual"]) == 2
        rank5 = tmp_path / "rank5.json"
        rank5.write_text(json.dumps({
            "rank": 5,
            "cone_rays": [[1 if i == j else 0 for j in range(5)]
                          for i in range(5)]}))
        assert cli_main(["--scene", str(rank5), "dual"]) == 4
        capsys.readouterr()


def _sign_pattern_oracle(mon, subgroup):
    values = [sum(a * b for a, b in zip(subgroup.entries, h.entries))
              for h in hilbert_basis(mon.weight_cone)]
    if any(v < 0 for v in values):
        return GradingKind.HYPERBOLIC
    zero = [h.entries for h, v in zip(hilbert_basis(mon.weight_cone), values) if v == 0]
    zero_rank = matrix_rank(zero) if zero else 0
    if zero_rank == mon.rank - 1:
        return GradingKind.PARABOLIC
    if not zero:
        return GradingKind.ELLIPTIC
    return GradingKind.DEGENERATE_NONNEGATIVE


def test_criterion_6_classification_oracle():
    with criterion(6, "classification oracle"):
        rng = random.Random(41)
        kinds = (GradingKind.ELLIPTIC, GradingKind.PARABOLIC,
                 GradingKind.HYPERBOLIC, GradingKind.DEGENERATE_NONNEGATIVE)
        for name, mon in saturated_fixtures():
            seen = 0
            while seen < 200:
                entries = tuple(rng.randint(-9, 9) for _ in range(mon.rank))
                if all(e == 0 for e in entries):
                    continue
                seen += 1
                subgroup = LatticeVector(
                    primitive(LatticeVector(entries)).entries, N_SIDE)
                grading = classify(mon.weight_cone, subgroup)
                assert grading.kind is _sign_pattern_oracle(mon, subgroup), \
                    (name, entries)
                assert grading.kind in kinds
                assert kinds.count(grading.kind) == 1


def test_criterion_7_straightening_completeness():
    with criterion(7, "straightening completeness"):
        predicted = {
            "line": [((1,), (0,), ())],
            "a2": [((0, 1), (1,), (0,)), ((1, 0), (0,), (1,))],
            "a3": [((0, 0, 1), (2,), (0, 1)),
                   ((0, 1, 0), (1,), (0, 2)),
                   ((1, 0, 0), (0,), (1, 2))],
            "quadric": [((0, 1), (1, 2), (0,)), ((2, -1), (0, 1), (2,))],
        }
        for name, mon in saturated_fixtures():
            divisors = straightening_subtori(mon)
            assert [d.ray.entries for d in divisors] == [
                r.entries for r in mon.dual_cone.rays], name
            table = []
            for divisor in divisors:
                p = divisor.ray
                grading = classify(mon.weight_cone, p)
                assert grading.kind is GradingKind.PARABOLIC, name
                locus = fixed_locus(mon, p)
                assert locus == divisor
                table.append((p.entries, locus.vanishing, locus.surviving))
            assert table == predicted[name], name


def test_criterion_8_report_determinism(tmp_path, capsys):
    with criterion(8, "report determinism"):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(QUADRIC_SCENE))
        runs = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-m", "toricflow.cli",
                 "--scene", str(scene), "report"],
                capture_output=True, env=env, check=True)
            runs.append(result.stdout)
        assert runs[0] == runs[1]
        assert runs[0]
        # in-process repetition agrees byte for byte as well
        assert cli_main(["--scene", str(scene), "report"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["--scene", str(scene), "report"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.encode() == runs[0].replace(b"\r\n", b"\n")
