import argparse
import functools
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
import unicodedata
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricflow
import toricflow.cli
import toricflow.cones
import toricflow.monoid
import toricflow.orbits
from toricflow import BoundExceeded, HomogeneousLND, classify, hilbert_basis
from toricflow.cli import main
from toricflow.report import render_text
from toricflow.scene import load_scene

import corpus
from conftest import (A2_SCENE, CUSP_SCENE, DUALITY_CONES, QUADRIC_SCENE, RANK3_SCENE,
                      json_dumps_per_scalar, monomial, negation_is_parabolic,
                      random_monoids, random_subgroups, render_text_per_item)

REPORT_KEYS = ["scene_digest", "classification", "straightening", "roots",
               "witness_lnd", "verification", "warnings", "derived_facts"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_dual(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path, "dual")
    assert doc["command"] == "dual"
    assert doc["cone"]["rays"] == [[0, 1], [2, -1]]
    assert doc["cone"]["facet_normals"] == [[1, 0], [1, 2]]
    assert doc["dual"]["rays"] == [[1, 0], [1, 2]]
    assert doc["dual"]["side"] == "M"


def test_facets(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path, "facets")
    assert len(doc["facets"]) == 2
    assert all(f["dim"] == 1 for f in doc["facets"])
    assert doc["facets"][0]["normal"] == [1, 0]
    assert doc["facets"][0]["rays"] == [[0, 1]]


def test_hilbert(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path, "hilbert")
    assert doc["hilbert_basis"] == [[1, 0], [1, 1], [1, 2]]
    assert doc["weight_cone"]["side"] == "M"


def test_hilbert_and_dual_on_a_monoid_scene(tmp_path, capsys):
    # the weight cone of a monoid scene is the cone over its generators; its
    # Hilbert basis holds (1,1), which is not a generator
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps({"rank": 2, "monoid_generators": [[1, 0], [1, 2], [1, 3]]}))
    doc = run_json(capsys, "--scene", str(path), "hilbert")
    assert doc["hilbert_basis"] == [[1, 0], [1, 1], [1, 2], [1, 3]]
    doc = run_json(capsys, "--scene", str(path), "dual")
    assert doc["cone"]["rays"] == [[1, 0], [1, 3]]
    assert doc["dual"]["rays"] == [[0, 1], [3, -1]]


def test_saturation(quadric_scene_path, cusp_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path, "saturation")
    assert doc["saturated"] is True and doc["witness"] is None
    doc = run_json(capsys, "--scene", cusp_scene_path, "saturation")
    assert doc["saturated"] is False and doc["witness"] == [1]


def test_classify(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path,
                   "classify", "--l", "vertical")
    assert doc["classification"]["kind"] == "Parabolic"
    assert doc["classification"]["ray_index"] == 0
    assert doc["classification"]["ray"] == [0, 1]
    doc = run_json(capsys, "--scene", quadric_scene_path,
                   "classify", "--l", "1,1")
    assert doc["classification"]["kind"] == "Elliptic"


def test_straightening(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path, "straightening")
    assert [s["subgroup"] for s in doc["subtori"]] == [[0, 1], [2, -1]]
    assert doc["subtori"][0]["vanishing_coordinates"] == [1, 2]
    assert doc["subtori"][0]["surviving_coordinates"] == [0]


def test_roots(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path, "roots", "--box", "5")
    assert doc["count"] == 9
    assert [b["count"] for b in doc["by_ray"]] == [6, 3]
    filtered = run_json(capsys, "--scene", quadric_scene_path,
                        "roots", "--box", "5", "--ray", "1")
    assert filtered["count"] == 3
    assert all(r["ray_index"] == 1 for r in filtered["roots"])


def test_lnd(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path,
                   "lnd", "--root", "0,-1")
    assert doc["lnd"]["ray"] == [0, 1]
    assert doc["lnd"]["kernel_rank"] == 1
    action = doc["lnd"]["action"]
    assert action[0] == {"generator": [1, 0], "degree": 0, "image": {}}
    assert action[1]["image"] == {"1,0": "1"}
    assert action[2]["image"] == {"1,1": "2"}


def test_flow_and_limit(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path, "flow",
                   "--point", "p", "--root", "0,-1", "--s", "-2")
    assert doc["image"]["coords"] == ["3", "0", "0"]
    doc = run_json(capsys, "--scene", quadric_scene_path, "flow",
                   "--point", "p", "--root", "0,-1", "--s", "7/3")
    assert doc["image"]["coords"][0] == "3"
    doc = run_json(capsys, "--scene", quadric_scene_path, "limit",
                   "--point", "p", "--l", "vertical")
    assert doc["exists"] is True
    assert doc["limit"]["coords"] == ["3", "0", "0"]
    doc = run_json(capsys, "--scene", quadric_scene_path, "limit",
                   "--point", "p", "--l", "0,-1")
    assert doc["exists"] is False and doc["limit"] is None


def test_negative_values_are_joined_to_their_flag(quadric_scene_path, capsys):
    # argparse takes the -1/3 of `--s -1/3` for a flag, so the help shows --s=-1/3
    doc = run_json(capsys, "--scene", quadric_scene_path, "flow",
                   "--point", "p", "--root", "0,-1", "--s=-1/3")
    assert doc["s"] == "-1/3"
    doc = run_json(capsys, "--scene", quadric_scene_path, "classify", "--l=-1,0")
    assert doc["subgroup"] == [-1, 0]
    with pytest.raises(SystemExit) as done:
        main(["--scene", quadric_scene_path, "flow", "--point", "p",
              "--root", "0,-1", "--s", "-1/3"])
    assert done.value.code == 2
    capsys.readouterr()
    for command, shown in (("flow", ["--root=-1,1", "--s=-1/3"]), ("classify", ["--l=-1,0"]),
                           ("verify", ["--l=-1,0", "--ts=-1,1/2", "--ss=-1/3,2"])):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = "".join(capsys.readouterr().out.split())
        assert all(flag in out for flag in shown), command


def test_verify(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path, "verify",
                   "--l", "vertical", "--point", "p")
    assert doc["verdict"] == "pass"
    assert doc["flow_parameter"] == "-2"
    assert doc["limit"]["coords"] == ["3", "0", "0"]
    assert doc["root"]["vector"] == [0, -1]
    custom = run_json(capsys, "--scene", quadric_scene_path, "verify",
                      "--l", "vertical", "--point", "p",
                      "--ts", "2,1/2", "--ss", "5/2")
    assert custom["gm_samples"] == ["2", "1/2"]
    assert custom["ga_samples"] == ["5/2"]


def test_report_shape(quadric_scene_path, capsys):
    doc = run_json(capsys, "--scene", quadric_scene_path, "report")
    assert list(doc) == REPORT_KEYS
    assert doc["classification"]["vertical"]["kind"] == "Parabolic"
    assert doc["straightening"] is not None
    assert doc["witness_lnd"]["vertical"]["root"]["vector"] == [0, -1]
    assert doc["verification"][0]["verdict"] == "pass"
    assert {f["fact"] for f in doc["derived_facts"]} == {
        "not_rigid", "open_orbit_meets_divisor"}
    assert doc["warnings"] == []


def test_report_cusp_refusals(cusp_scene_path, capsys):
    doc = run_json(capsys, "--scene", cusp_scene_path, "report")
    assert doc["straightening"] is None
    assert doc["witness_lnd"] == {}
    entry = doc["verification"][0]
    assert entry["verdict"] == "refused"
    assert entry["reason"] == "NormalityRequired"
    assert any("witness" in w for w in doc["warnings"])
    assert doc["derived_facts"] == []


def test_report_cone_scene_with_wide_hilbert_basis(tmp_path, capsys):
    # The weight cone has 4 rays and 25 Hilbert basis elements; the cone
    # scene's monoid must reuse that cone rather than eliminate over all 25.
    scene = {
        "rank": 3,
        "cone_rays": [[0, 1, 0], [0, 0, 1], [4, -1, 0], [4, 0, -1]],
        "points": {"p": {"torus": [2, "1/3", -1]}},
        "subgroups": {"r0": [0, 1, 0], "r2": [4, -1, 0]},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    doc = run_json(capsys, "--scene", str(path), "report")
    assert {name: c["kind"] for name, c in doc["classification"].items()} == {
        "r0": "Parabolic", "r2": "Parabolic"}
    assert [e["verdict"] for e in doc["verification"]] == ["pass", "pass"]


def test_report_hyperbolic_negation_warning(tmp_path, capsys):
    scene = dict(QUADRIC_SCENE, subgroups={"down": [0, -1]})
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    doc = run_json(capsys, "--scene", str(path), "report")
    assert doc["classification"]["down"]["kind"] == "Hyperbolic"
    assert any("negation is parabolic" in w for w in doc["warnings"])
    entry = doc["verification"][0]
    assert entry["verdict"] == "refused"
    assert entry["reason"] == "NotParabolic(Hyperbolic)"


def test_report_non_effective_warning(tmp_path, capsys):
    scene = dict(QUADRIC_SCENE, subgroups={"double": [0, 2]})
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    doc = run_json(capsys, "--scene", str(path), "report")
    assert any("degree gcd 2" in w for w in doc["warnings"])
    assert doc["verification"][0]["verdict"] == "pass"


def test_stdin_default(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(QUADRIC_SCENE)))
    code, out, err = run(capsys, "dual")
    assert code == 0
    assert json.loads(out)["command"] == "dual"


def test_text_format(quadric_scene_path, capsys):
    code, out, err = run(capsys, "--scene", quadric_scene_path,
                         "--format", "text", "classify", "--l", "vertical")
    assert code == 0
    assert "kind: Parabolic" in out
    assert not out.startswith("{")


def test_exit_code_2_scene_errors(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, "--scene", str(bad), "dual")
    assert code == 2
    assert err.startswith("error: SceneError:")
    for unreadable in (tmp_path / "nope.json", tmp_path):
        code, out, err = run(capsys, "--scene", str(unreadable), "dual")
        assert code == 2
        assert err.startswith("error: SceneError: cannot read scene file %s: " % unreadable)
    malformed = {
        "not_utf8": b'{"rank": 1, "cone_rays": [[1]], "points": {"\xff": {"torus": [1]}}}',
        "too_deep": b"[" * 100000 + b"]" * 100000,
        "too_long": b'{"rank": 1' + b"0" * 5000 + b"}",
    }
    for name, data in malformed.items():
        path = tmp_path / (name + ".json")
        path.write_bytes(data)
        # stdin decodes strictly, or to lone surrogates as under a C locale
        stdins = [io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                   errors=errors)
                  for errors in ("strict", "surrogateescape")]
        for stdin in [None] + stdins:
            argv = ["dual"] if stdin else ["--scene", str(path), "dual"]
            if stdin:
                monkeypatch.setattr("sys.stdin", stdin)
            code, out, err = run(capsys, *argv)
            assert code == 2, (name, argv)
            assert out == ""
            assert err.startswith("error: SceneError:") and err.count("\n") == 1, err


def test_exit_code_3_hypothesis_errors(tmp_path, cusp_scene_path,
                                       quadric_scene_path, capsys):
    lines = tmp_path / "notpointed.json"
    lines.write_text('{"rank": 2, "cone_rays": [[1,0],[-1,0],[0,1]]}')
    code, out, err = run(capsys, "--scene", str(lines), "dual")
    assert code == 3
    assert "NotPointed" in err
    code, out, err = run(capsys, "--scene", cusp_scene_path, "verify",
                         "--l", "l", "--point", "p")
    assert code == 3
    assert "NormalityRequired" in err
    code, out, err = run(capsys, "--scene", quadric_scene_path, "verify",
                         "--l", "1,-5", "--point", "p")
    assert code == 3
    assert "NotParabolic" in err
    code, out, err = run(capsys, "--scene", quadric_scene_path, "lnd",
                         "--root", "1,1")
    assert code == 3
    assert "NotADemazureRoot" in err
    low = tmp_path / "lowdim.json"
    low.write_text('{"rank": 2, "cone_rays": [[1,0]]}')
    code, out, err = run(capsys, "--scene", str(low), "dual")
    assert code == 3
    assert "NotFullDimensional" in err


def _stdin_run(scene, argv):
    """Exit code, stdout and stderr of main(argv) with the scene on stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(scene))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


_CONE_COMMANDS = (["dual"], ["facets"], ["hilbert"], ["roots", "--box=2"])
_POINT_AND_LINE = {"points": {"p": {"torus": ["2", "3"]}}, "subgroups": {"l": [1, 0]}}


def test_cone_commands_ignore_the_monoid_lattice():
    # (2,0) and (0,1) generate a monoid of index 2 in M, which the commands
    # that read generators refuse; its weight cone is the quadrant's
    doubled = {"rank": 2, "monoid_generators": [[2, 0], [0, 1]], **_POINT_AND_LINE}
    quadrant = {"rank": 2, "monoid_generators": [[1, 0], [0, 1]], **_POINT_AND_LINE}
    for argv in _CONE_COMMANDS:
        docs = []
        for scene in (doubled, quadrant):
            code, out, err = _stdin_run(scene, argv)
            assert code == 0, (argv, err)
            doc = json.loads(out)
            del doc["scene_digest"]
            docs.append(doc)
        assert docs[0] == docs[1], argv
    for argv in (["classify", "--l=l"], ["saturation"], ["verify", "--l=l", "--point=p"]):
        code, out, err = _stdin_run(doubled, argv)
        assert code == 3 and out == "", argv
        assert err.startswith("error: NotEffective:"), err


@st.composite
def _scaled_monoid_scenes(draw):
    """A rank-2 monoid scene whose first generator is scaled by 2 to 5."""
    vector = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    gens = draw(st.lists(vector, min_size=2, max_size=4, unique=True))
    k = draw(st.integers(2, 5))
    gens[0] = (k * gens[0][0], k * gens[0][1])
    return {"rank": 2, "monoid_generators": [list(g) for g in gens]}


@given(_scaled_monoid_scenes(), st.sampled_from(_CONE_COMMANDS))
def test_cone_commands_never_refuse_the_monoid_lattice(scene, argv):
    code, out, err = _stdin_run(scene, argv)
    assert code in (0, 2, 3, 4)
    assert "NotEffective" not in err, (scene, argv, err)


@pytest.mark.parametrize("gens", [[[1, 0], [0, 0]], [[1, 0], [0, 1], [1, 0]]],
                         ids=["zero", "duplicate"])
def test_zero_and_duplicate_generators_exit_2_everywhere(gens):
    scene = {"rank": 2, "monoid_generators": gens, **_POINT_AND_LINE}
    options = {"--l": "l", "--point": "p", "--root": "-1,0", "--s": "1", "--ts": "2",
               "--ss": "1", "--box": "1", "--ray": "0"}
    for command, flags in _SUBCOMMAND_FLAGS.items():
        argv = [command] + ["%s=%s" % (flag, options[flag]) for flag in flags]
        code, out, err = _stdin_run(scene, argv)
        assert code == 2 and out == "", (argv, err)
        assert err.startswith("error: SceneError: monoid_generators"), err


_PENTAGON_SCENE = {"rank": 3, "cone_rays": [[2, 0, 1], [0, 2, 1], [-2, 0, 1], [0, -2, 1],
                                            [2, 2, 1]]}
# On cone scenes, classify and saturation read only the weight cone too.
_CONE_SCENE_RUNS = [(QUADRIC_SCENE, ["saturation"])] + [
    (QUADRIC_SCENE, ["classify", "--l=" + l]) for l in ("0,1", "2,-1", "0,2", "1,1", "-1,0")] + [
    (_PENTAGON_SCENE, ["saturation"])] + [
    (_PENTAGON_SCENE, ["--format=text", "classify", "--l=" + l])
    for l in ("2,0,1", "-4,0,-2", "0,0,1", "1,0,0")]


def _monoid_twin(scene):
    """The cone scene with its weight cone's Hilbert basis as monoid_generators."""
    twin = {key: value for key, value in scene.items() if key != "cone_rays"}
    cone = load_scene(json.dumps(scene)).weight_cone()
    return {**twin, "monoid_generators": [list(h.entries) for h in hilbert_basis(cone)]}


def _run_without_digest(scene, argv):
    code, out, err = _stdin_run(scene, argv)
    return code, out.replace(load_scene(json.dumps(scene)).digest, "<digest>"), err


def _refuse_monoid(*args, **kwargs):
    raise AssertionError("AffineMonoid built")


def _refuse_basis(*args, **kwargs):
    raise AssertionError("Hilbert basis built")


def _build_no_monoid(monkeypatch):
    """Refuse to build a monoid from generators, and the Hilbert basis that
    a cone scene's monoid computes on the first read of its generators."""
    monkeypatch.setattr(toricflow.monoid.AffineMonoid, "__init__", _refuse_monoid)
    monkeypatch.setattr(toricflow.monoid, "hilbert_basis", _refuse_basis)


def test_cone_commands_build_no_monoid(monkeypatch):
    unpatched = [_stdin_run(scene, argv) for scene, argv in _CONE_SCENE_RUNS]
    twins = [_run_without_digest(_monoid_twin(scene), argv) for scene, argv in _CONE_SCENE_RUNS]
    _build_no_monoid(monkeypatch)
    for scene in (QUADRIC_SCENE, A2_SCENE):
        for argv in _CONE_COMMANDS:
            code, out, err = _stdin_run(scene, argv)
            assert code == 0, (scene, argv, err)
    for (scene, argv), expected, twin in zip(_CONE_SCENE_RUNS, unpatched, twins):
        code, out, err = _stdin_run(scene, argv)
        assert (code, out, err) == expected and code == 0, (scene, argv, err)
        # the monoid path gives the same body, read off the generators
        assert _run_without_digest(scene, argv) == twin, (scene, argv)


_TH3_SCENE = {"rank": 3, "cone_rays": [[1, 0, 0], [0, 1, 0], [1, 1, 1000]]}


def test_cone_scene_past_the_hilbert_cap_classifies_and_saturates():
    # th3's weight cone holds 10^6 Hilbert basis candidates, over the cap
    code, out, err = _stdin_run(_TH3_SCENE, ["hilbert"])
    assert code == 4 and "HILBERT_CANDIDATE_CAP" in err, err
    for l, kind, gcd in (("1,0,0", "Parabolic", 1), ("2,0,0", "Parabolic", 2),
                         ("1,1,-1", "Hyperbolic", 1), ("3,2,1000", "Elliptic", 1)):
        code, out, err = _stdin_run(_TH3_SCENE, ["classify", "--l=" + l])
        assert code == 0, err
        grading = json.loads(out)["classification"]
        assert (grading["kind"], grading["degree_gcd"]) == (kind, gcd), l
    code, out, err = _stdin_run(_TH3_SCENE, ["saturation"])
    assert code == 0, err
    assert json.loads(out)["saturated"] is True and json.loads(out)["witness"] is None


def test_cone_scene_monoid_reads_its_basis_on_first_use():
    mon = load_scene(json.dumps(_TH3_SCENE)).monoid()
    assert mon.saturation() == (True, None)
    with pytest.raises(BoundExceeded, match="HILBERT_CANDIDATE_CAP"):
        mon.generators


def test_verify_refuses_the_arguments_and_grading_before_the_torus_point():
    # (3, 1) raised to the generator (300000, 1) passes POWER_BIT_CAP, and
    # the point is built last, so only a parabolic --l reaches that cap
    scene = {"rank": 2, "monoid_generators": [[1, 0], [0, 1], [300000, 1]],
             "points": {"p": {"torus": [3, 1]}}}
    for l, code, error in (("1", 2, "SceneError: --l, if not a subgroup name,"),
                           ("1,1", 3, "NotParabolic: grading is Elliptic"),
                           ("0,1", 4, "BoundExceeded: an exact power")):
        result = _stdin_run(scene, ["verify", "--point=p", "--l=" + l])
        assert result[:2] == (code, "") and result[2].startswith("error: " + error), result


def test_cone_scene_verify_searches_the_root_before_the_basis(monkeypatch):
    monkeypatch.setattr(toricflow.demazure, "ROOT_STEP_CAP", 0)
    scene = dict(_TH3_SCENE, points={"p": {"torus": [1, 2, 3]}})
    code, out, err = _stdin_run(scene, ["verify", "--point=p", "--l=1,0,0"])
    assert (code, out) == (4, "") and "ROOT_STEP_CAP = 0" in err, err


_WIDE_SCENE = {"rank": 3, "cone_rays": [[-344, -869, 3], [676, 1, -1], [3, 0, 0]],
               "points": {"p": {"torus": [1, 2, 3]}}}
# Cone-scene refusals that need only sigma or the weight cone, and the
# argument errors that still come before them: (scene, argv, code, error).
_CHEAP_REFUSALS = [
    (_WIDE_SCENE, ["lnd", "--root=0,-1,560984465"], 3,
     "NotADemazureRoot: (0, -1, 560984465) is not a root of the dual cone"),
    (_WIDE_SCENE, ["lnd", "--root=0,-1"], 2, "SceneError: --root must be 3"),
    (_WIDE_SCENE, ["flow", "--point=p", "--root=5,5,5", "--s=1"], 3,
     "NotADemazureRoot: (5, 5, 5) is not a root of the dual cone"),
    (_WIDE_SCENE, ["verify", "--point=p", "--l=1,1,-1"], 3,
     "NotParabolic: grading is Hyperbolic, need Parabolic"),
    (_WIDE_SCENE, ["verify", "--point=p", "--l=335,-868,2"], 3,
     "NotParabolic: grading is Elliptic"),
    # a bad point name, --l or --ts exits 2 ahead of a hyperbolic --l
    (_WIDE_SCENE, ["verify", "--point=q", "--l=1,1,-1"], 2, "SceneError: unknown point 'q'"),
    (_WIDE_SCENE, ["verify", "--point=p", "--l=1,1"], 2, "SceneError: --l, if not"),
    (_WIDE_SCENE, ["verify", "--point=p", "--l=1,1,-1", "--ts=0"], 2,
     "SceneError: --ts samples must be nonzero"),
    (dict(_TH3_SCENE, points={"p": {"torus": [1, 2, 3]}}), ["lnd", "--root=5,5,5"], 3,
     "NotADemazureRoot: (5, 5, 5) is not a root of the dual cone"),
    (dict(_TH3_SCENE, points={"p": {"torus": [1, 2, 3]}}), ["verify", "--point=p", "--l=1,1,-1"],
     3, "NotParabolic: grading is Hyperbolic, need Parabolic"),
]


def test_cone_scene_refusals_build_no_monoid(monkeypatch):
    # th3 exited 4 on HILBERT_CANDIDATE_CAP here, and the wide cone's lnd
    # built its 2,848-element basis before the root test
    _build_no_monoid(monkeypatch)
    for scene, argv, expected, error in _CHEAP_REFUSALS:
        code, out, err = _stdin_run(scene, argv)
        assert (code, out) == (expected, ""), (argv, err)
        assert err.startswith("error: " + error) and err.count("\n") == 1, (argv, err)


def test_cone_scene_refusals_match_the_monoid_path(monkeypatch):
    # on a small cone scene the early refusals print what the monoid's own
    # checks print, unpatched and on the monoid scene of the same cone
    runs = [["lnd", "--root=1,1"], ["flow", "--point=p", "--root=-1,-1", "--s=1"],
            ["verify", "--point=p", "--l=1,1"], ["verify", "--point=p", "--l=-1,0"],
            ["verify", "--point=q", "--l=-1,0"]]
    unpatched = [_stdin_run(QUADRIC_SCENE, argv) for argv in runs]
    twins = [_stdin_run(_monoid_twin(QUADRIC_SCENE), argv) for argv in runs]
    _build_no_monoid(monkeypatch)
    for argv, expected, twin in zip(runs, unpatched, twins):
        assert _stdin_run(QUADRIC_SCENE, argv) == expected, argv
        assert expected[0] in (2, 3) and expected[1] == "" and expected[2] == twin[2], argv


def test_cones_and_monoids_still_come_before_the_arguments():
    # a cone scene still builds its cone, and a monoid scene its monoid,
    # before --root or the point name is read
    flat = {"rank": 2, "cone_rays": [[1, 0], [-1, 0]], "points": {"p": {"torus": [1, 1]}}}
    sparse = {"rank": 2, "monoid_generators": [[2, 0], [0, 1]],
              "points": {"p": {"torus": [1, 1]}}}
    for scene, error in ((flat, "NotPointed"), (sparse, "NotEffective")):
        for argv in (["lnd", "--root=1"], ["flow", "--point=p", "--root=1", "--s=1"],
                     ["verify", "--point=q", "--l=1,0"]):
            code, out, err = _stdin_run(scene, argv)
            assert code == 3 and err.startswith("error: " + error), (argv, err)


def test_verify_classifies_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(toricflow.cli, "classify", counted)
    monkeypatch.setattr(toricflow.orbits, "classify", counted)
    for scene, argv in ((QUADRIC_SCENE, ["--point=p", "--l=vertical"]),
                        (A2_SCENE, ["--point=x", "--l=l"])):
        calls.clear()
        code, out, err = _stdin_run(scene, ["verify"] + argv)
        assert code == 0 and json.loads(out)["verdict"] == "pass", err
        assert len(calls) == 1


def test_exit_code_4_resource_errors(tmp_path, capsys):
    # RANK_LIMIT = 4 is the one rank bound: a rank-5 scene exits 4 when its
    # cone is built, under hilbert as under dual
    big = tmp_path / "rank5.json"
    rays = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    big.write_text(json.dumps({"rank": 5, "cone_rays": rays}))
    for command in ("dual", "hilbert"):
        code, out, err = run(capsys, "--scene", str(big), command)
        assert code == 4, command
        assert out == ""
        assert err == ("error: RankLimitExceeded: rank 5 exceeds RANK_LIMIT = 4; "
                       "give vectors of at most 4 entries\n"), err


_TORUS4 = {"p": {"torus": ["2", "3", "5", "7"]}}
# name: (scene, Hilbert basis size, rays of the cone); the subgroup r is a
# ray of the cone, so it is parabolic.  The weight cone of the cone over the cube is the
# cone over the octahedron, and the other way round, with square facets.
RANK4_SCENES = {
    "cube": ({"rank": 4, "cone_rays": [[1, a, b, c] for a in (-1, 1) for b in (-1, 1)
                                       for c in (-1, 1)],
              "points": _TORUS4, "subgroups": {"r": [1, 1, 1, 1]}}, 7, 8),
    "octahedron": ({"rank": 4, "cone_rays": [[1] + [s * (i == j) for j in range(3)]
                                             for i in range(3) for s in (1, -1)],
                    "points": _TORUS4, "subgroups": {"r": [1, 1, 0, 0]}}, 27, 6),
    "unit-cube-monoid": ({"rank": 4, "monoid_generators": [
        [1, a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)],
        "points": _TORUS4, "subgroups": {"r": [0, 1, 0, 0]}}, 8, 6),
}


@pytest.mark.parametrize("name", sorted(RANK4_SCENES))
def test_rank4_scenes_run_every_hilbert_command(tmp_path, capsys, name):
    scene, size, rays = RANK4_SCENES[name]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    doc = run_json(capsys, "--scene", str(path), "hilbert")
    assert len(doc["hilbert_basis"]) == size
    assert run_json(capsys, "--scene", str(path), "saturation")["saturated"] is True
    subtori = run_json(capsys, "--scene", str(path), "straightening")["subtori"]
    assert len(subtori) == rays
    assert scene["subgroups"]["r"] in [s["subgroup"] for s in subtori]
    doc = run_json(capsys, "--scene", str(path), "verify", "--l", "r", "--point", "p")
    assert doc["verdict"] == "pass" and doc["reached_exactly"] is True
    doc = run_json(capsys, "--scene", str(path), "report")
    assert [v["verdict"] for v in doc["verification"]] == ["pass"]
    assert doc["warnings"] == []


def test_exit_code_2_for_negative_box_and_zero_ray(tmp_path,
                                                  quadric_scene_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text('{"rank": 2, "cone_rays": [[1,0],[0,0]]}')
    # --box is checked before the cone is built, so a scene that is not
    # pointed still exits 2 here and not 3
    lines = tmp_path / "notpointed.json"
    lines.write_text('{"rank": 2, "cone_rays": [[1,0],[-1,0],[0,1]]}')
    for argv in (["--scene", quadric_scene_path, "roots", "--box", "-1"],
                 ["--scene", quadric_scene_path, "report", "--box", "-1"],
                 ["--scene", str(lines), "roots", "--box", "-1"],
                 ["--scene", str(lines), "report", "--box", "-1"],
                 ["--scene", str(zero), "dual"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: SceneError:") and err.count("\n") == 1, err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int->str digit limit")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_exit_code_4_output_over_the_digit_limit(tmp_path, capsys, fmt):
    scene = tmp_path / "big.json"
    scene.write_text(json.dumps({
        "rank": 2, "cone_rays": [[1, 0], [1, 40]],
        "points": {"p": {"torus": ["12345678901234567/3", "98765432109876543/7"]}}}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "--scene", str(scene), "--format", fmt,
                             "flow", "--point", "p", "--root=39,-1", "--s", "1")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 4
    assert out == ""
    assert err.startswith("error: BoundExceeded:") and err.count("\n") == 1, err
    assert "4300 digits" in err and "PYTHONINTMAXSTRDIGITS=0" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int->str digit limit")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_exit_code_4_bare_int_over_the_digit_limit(tmp_path, capsys, fmt):
    # rays with 400-digit entries give facet normals with about 800 digits,
    # printed as ints, not as Fraction strings
    a, b, c = 10**399 + 7, 3 * 10**399 + 1, 7 * 10**399 + 3
    scene = tmp_path / "wide.json"
    scene.write_text(json.dumps({"rank": 3, "cone_rays": [[1, 0, 0], [1, a, 0], [1, b, c]]}))
    doc = run_json(capsys, "--scene", str(scene), "dual")
    assert max(abs(x) for n in doc["cone"]["facet_normals"] for x in n) > 10**640
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "--scene", str(scene), "--format", fmt, "dual")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 4
    assert out == ""
    assert err == ("error: BoundExceeded: an exact output value has over 640 digits, "
                   "the int->str digit limit; set PYTHONINTMAXSTRDIGITS=0 to lift it\n")


def test_exit_code_4_root_point_cap(tmp_path, capsys):
    orthant = tmp_path / "orthant4.json"
    rays = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    orthant.write_text(json.dumps({"rank": 4, "cone_rays": rays}))
    # the lift at the first ray takes 1,146,255 steps, over the cap of
    # 1,000,000 (see test_root_point_cap)
    code, out, err = run(capsys, "--scene", str(orthant), "roots", "--box", "60")
    assert code == 4
    assert out == ""
    assert err.startswith("error: BoundExceeded:") and err.count("\n") == 1, err
    assert "1000002 steps" in err and "1000000" in err and "--box" in err


def _polygon_scene(tmp_path, count):
    """The rank-3 cone over the polygon with vertices (x, x^2), x < count."""
    path = tmp_path / ("polygon%d.json" % count)
    path.write_text(json.dumps(
        {"rank": 3, "cone_rays": [[1, x, x * x] for x in range(count)]}))
    return str(path)


@pytest.mark.parametrize("count", [11, 13])
def test_polygon_cones_run_to_the_end(tmp_path, capsys, count):
    scene = _polygon_scene(tmp_path, count)
    for command in ("facets", "dual", "report"):
        code, out, err = run(capsys, "--scene", scene, command)
        assert code == 0, err
    doc = run_json(capsys, "--scene", scene, "facets")
    assert len(doc["facets"]) == count


def test_exit_code_4_double_description_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(toricflow.cones, "DD_PAIR_CAP", 3)
    code, out, err = run(capsys, "--scene", _polygon_scene(tmp_path, 13), "dual")
    assert code == 4
    assert out == ""
    assert err.startswith("error: BoundExceeded:") and err.count("\n") == 1, err
    assert "would combine 4 facet pairs, over DD_PAIR_CAP = 3" in err
    assert "fewer generators" in err


def _thin_rank3_scene(tmp_path, k, point):
    """cone((1,0,0),(1,k,0),(0,0,1)) with the torus point point.  A root at
    (1,k,0) has e_0 + k*e_1 = -1 with e_0, e_2 >= 0, so the lex-first one
    is (k-1,-1,0), first met in the box 5*2^j >= k-1."""
    path = tmp_path / ("thin%d.json" % k)
    path.write_text(json.dumps({
        "rank": 3, "cone_rays": [[1, 0, 0], [1, k, 0], [0, 0, 1]],
        "subgroups": {"l": [1, k, 0]},
        "points": {"p": {"torus": point}}}))
    return str(path)


# At k = 3000 the point (1,2,3) has t^e = 1/2, so the flow's factor
# (1 + s*t^e)^k stays a small rational.  The point (2,3,5) has
# t^e = 2^2999/3: verification raises no sampled factor to the k-th power,
# so this case stays fast too.
@pytest.mark.parametrize("k, point, box", [(400, ["2", "3", "5"], 640),
                                           (3000, ["1", "2", "3"], 5120),
                                           (3000, ["2", "3", "5"], 5120)])
def test_verify_finds_far_first_roots(tmp_path, capsys, k, point, box):
    doc = run_json(capsys, "--scene", _thin_rank3_scene(tmp_path, k, point), "verify",
                   "--l", "l", "--point", "p")
    assert doc["verdict"] == "pass"
    assert doc["root"]["vector"] == [k - 1, -1, 0]
    assert doc["root_box"] == box


def test_exit_code_4_root_search_names_no_box_flag(tmp_path, capsys, monkeypatch):
    # the search at (1,400,0) takes 31 steps over the boxes 5 to 640
    monkeypatch.setattr(toricflow.demazure, "ROOT_STEP_CAP", 30)
    code, out, err = run(capsys, "--scene", _thin_rank3_scene(tmp_path, 400, ["2", "3", "5"]),
                         "verify", "--l", "l", "--point", "p")
    assert code == 4
    assert out == ""
    assert err.startswith("error: BoundExceeded:") and err.count("\n") == 1, err
    assert "--box" not in err
    for part in ("(1, 400, 0)", "reached 31 steps", "ROOT_STEP_CAP = 30"):
        assert part in err


def test_exit_code_4_report_root_search_names_no_box_flag(tmp_path, capsys, monkeypatch):
    # report runs the witness search before any verification and before the
    # roots scan, so its error is the one reported
    monkeypatch.setattr(toricflow.demazure, "ROOT_STEP_CAP", 30)
    code, out, err = run(capsys, "--scene", _thin_rank3_scene(tmp_path, 400, ["2", "3", "5"]),
                         "report")
    assert (code, out) == (4, "")
    assert err == ("error: BoundExceeded: the search for a root at ray (1, 400, 0) "
                   "reached 31 steps, over ROOT_STEP_CAP = 30; give fewer rays or rays "
                   "with smaller entries\n")


def _thin_scene(tmp_path, k, point):
    path = tmp_path / ("thin%d.json" % k)
    path.write_text(json.dumps({"rank": 2, "cone_rays": [[1, 0], [1, k]],
                                "points": {"p": {"torus": point}},
                                "subgroups": {"near": [1, 0], "wide": [1, k]}}))
    return str(path)


def test_hilbert_of_a_thin_cone_walks_three_elements(tmp_path, capsys):
    doc = run_json(capsys, "--scene", _thin_scene(tmp_path, 10**9, ["2", "3"]), "hilbert")
    assert doc["hilbert_basis"] == [[0, 1], [1, 0], [10**9, -1]]


@pytest.mark.parametrize("argv", [["verify", "--l", "near", "--point", "p"], ["report"]])
def test_exit_code_4_power_cap(tmp_path, capsys, argv):
    # the character of (10^9, -1) at (2, 3) is 2^(10^9)/3; a monoid scene
    # with the generator (10^8, 1) meets 2^(10^8)*3 the same way
    monoid = tmp_path / "monoid.json"
    monoid.write_text(json.dumps({"rank": 2, "monoid_generators": [[1, 0], [10**8, 1]],
                                  "points": {"p": {"torus": ["2", "3"]}},
                                  "subgroups": {"near": [0, 1]}}))
    for path, bound in ((_thin_scene(tmp_path, 10**9, ["2", "3"]), 10**9 + 2),
                        (str(monoid), 10**8 + 2)):
        start = time.perf_counter()
        code, out, err = run(capsys, "--scene", path, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err == ("error: BoundExceeded: an exact power would have up to %d bits, "
                       "over POWER_BIT_CAP = 262144; give smaller coordinates, exponents "
                       "or flow times\n" % bound)


def test_powers_of_one_cost_nothing(tmp_path, capsys):
    # every power at the point (1, -1) is +-1, so the thin cone at k = 10^9
    # verifies at once, and a cone scene is saturated by construction, so
    # its derivations are checked by the facet test, not by decomposing
    path = _thin_scene(tmp_path, 10**9, ["1", "-1"])
    doc = run_json(capsys, "--scene", path, "verify", "--l", "wide", "--point", "p")
    assert doc["verdict"] == "pass" and doc["limit"]["coords"] == ["0", "0", "-1"]
    doc = run_json(capsys, "--scene", path, "lnd", "--root=-1,1")
    assert doc["lnd"]["action"][2]["image"] == {"999999999,0": "1000000000"}


def test_exit_code_4_decompose_cap(tmp_path, capsys):
    # the monoid misses (0, 1); the derivation's check decomposes (0, m)
    scene = tmp_path / "holed.json"
    scene.write_text(json.dumps({"rank": 2,
                                 "monoid_generators": [[1, 0], [0, 2], [0, 3], [1, 1]]}))
    assert run_json(capsys, "--scene", str(scene), "lnd", "--root=-1,1000")["lnd"]
    code, out, err = run(capsys, "--scene", str(scene), "lnd", "--root=-1,1000000000")
    assert (code, out) == (4, "")
    assert err == ("error: BoundExceeded: membership of (0, 1000000000) took over "
                   "DECOMPOSE_NODE_CAP = 100000 search points; give smaller exponents "
                   "or roots\n")


def test_python_dash_m_runs_the_cli(quadric_scene_path):
    src = Path(toricflow.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "toricflow", "--scene", quadric_scene_path, "dual"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["dual"]["rays"] == [[1, 0], [1, 2]]


def test_cli_import_skips_dataclasses_inspect_and_pathlib():
    # each CLI call pays for its imports; these three cost about half of them,
    # hashlib loads OpenSSL where CPython's builtin SHA-256 module will do,
    # and argparse (with gettext) loads only when a call needs a parser
    heavy = {"dataclasses", "inspect", "pathlib", "argparse", "gettext"}
    if any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
        heavy |= {"hashlib", "_hashlib"}
    src = Path(toricflow.__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); import toricflow.cli; "
            "print(*sorted((set(sys.modules) - before) & %r))" % heavy)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


# every subcommand and its flags, as --help lists them
_SUBCOMMAND_FLAGS = {
    "dual": [], "facets": [], "hilbert": [], "saturation": [],
    "classify": ["--l"], "straightening": [], "roots": ["--box", "--ray"],
    "lnd": ["--root"], "flow": ["--point", "--root", "--s"],
    "limit": ["--point", "--l"], "verify": ["--point", "--l", "--ts", "--ss"],
    "report": ["--box"],
}


def test_help_lists_every_subcommand_and_flag(capsys, built_parsers):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert "{%s}" % ",".join(_SUBCOMMAND_FLAGS) in out
    for name, flags in _SUBCOMMAND_FLAGS.items():
        with pytest.raises(SystemExit) as done:
            main([name, "--help"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: toricflow %s" % name)
        assert re.findall(r"^  (--[a-z]+)", out, re.M) == flags, name
    # argparse reads each of these calls, and each builds the whole tree once
    assert built_parsers == _tree() * (1 + len(_SUBCOMMAND_FLAGS))


def eager_parser():
    """Oracle: the whole argparse tree, every subcommand's parser built up front."""
    parser = argparse.ArgumentParser(
        prog="toricflow",
        description="additive group actions on affine toric varieties, exactly")
    parser.add_argument("--scene", default="-",
                        help="scene JSON path, - for stdin (default)")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in toricflow.cli.COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, spec in options:
            command.add_argument(flag, **spec)
    return parser


def _tree():
    """The prog of each parser that build_parser builds, in build order."""
    return ["toricflow"] + ["toricflow " + name for name in toricflow.cli.COMMANDS]


@pytest.fixture
def built_parsers(monkeypatch):
    """The prog of every ArgumentParser built while the test runs."""
    built, init = [], argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    return built


# argv lists; "S" stands for the scene path
_REQUIRED = {"classify": ["--l", "vertical"], "lnd": ["--root", "0,-1"],
             "flow": ["--point", "p", "--root", "0,-1", "--s", "2"],
             "limit": ["--point", "p", "--l", "vertical"],
             "verify": ["--point", "p", "--l", "vertical"]}
_ORACLE_ARGVS = (
    [["--help"], ["-h"], [], ["frobnicate"], ["--scene", "S", "frobnicate"],
     ["--format", "xml", "--scene", "S", "dual"], ["--scene", "S"]]
    + [[name, "--help"] for name in _SUBCOMMAND_FLAGS]
    + [["--scene", "S", name] for name in _REQUIRED]
    + [["--scene", "S", name, *_REQUIRED.get(name, []), "--bogus"]
       for name in _SUBCOMMAND_FLAGS]
    + [["--scene", "S", name, *_REQUIRED.get(name, [])] for name in _SUBCOMMAND_FLAGS]
    + [["--sc", "S", "dual"],
       ["--sc", "S", "--fo", "text", "verify", "--po", "p", "--l", "vertical"],
       ["--scene", "S", "flow", "--po", "p", "--ro", "0,-1", "--s", "2"],
       ["--scene", "S", "flow", "--point", "p", "--root", "0,-1", "--s", "-1/3"],
       ["--scene", "S", "flow", "--point", "p", "--root", "0,-1", "--s=-1/3"],
       ["dual", "--scene", "S"], ["--scene", "S", "--format", "text", "report"],
       ["--scene", "S", "roots", "--box", "x"], ["--scene", "S", "roots", "--ray"],
       ["--scene", "S", "roots", "--box", "2", "--ray", "1"],
       ["--scene", "S", "classify", "--l", "nope"], ["--scene", "S", "verify", "--l=-1,0"]])


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as done:
        code = ("exit", done.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _ORACLE_ARGVS, ids=" ".join)
def test_lazy_subcommand_parsers_match_the_eager_tree(quadric_scene_path, capsys,
                                                      monkeypatch, argv):
    # main as it runs (the exact reader, else the parser tree built by this
    # call), again, and through argparse's eager tree alone
    argv = [quadric_scene_path if arg == "S" else arg for arg in argv]
    first = _outcome(capsys, argv)
    again = _outcome(capsys, argv)
    monkeypatch.setattr(toricflow.cli, "build_parser", eager_parser)
    monkeypatch.setattr(toricflow.cli, "_exact_args", lambda argv: None)
    assert first == again == _outcome(capsys, argv)


def test_a_fully_spelled_call_builds_no_parser(quadric_scene_path, capsys, built_parsers):
    assert main(["--scene", quadric_scene_path, "--format=text", "dual"]) == 0
    assert main(["--scene=" + quadric_scene_path, "roots", "--box", "2", "--ray=0"]) == 0
    assert built_parsers == []
    # an abbreviation goes to argparse, and each such call builds the whole
    # tree once
    assert main(["--sc", quadric_scene_path, "dual"]) == 0
    assert built_parsers == _tree()
    assert main(["--sc", quadric_scene_path, "dual"]) == 0
    assert built_parsers == _tree() * 2
    capsys.readouterr()


@functools.cache
def _eager_tree():
    return eager_parser()


def _argparse_vars(argv):
    """vars of the eager tree's parse of argv, or None where argparse exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(_eager_tree().parse_args(argv))
    except SystemExit:
        return None


def _readers(argv):
    """Whether _exact_args and argparse each read argv; where the exact
    reader reads it, both must give the same arguments."""
    read, parsed = toricflow.cli._exact_args(argv), _argparse_vars(argv)
    assert read is None or vars(read) == parsed, argv
    return read is not None, parsed is not None


def test_exact_args_agrees_with_argparse_on_the_corpus():
    for argv in _ORACLE_ARGVS:
        _readers(argv)
    # every corpus run spells its options in full, so the exact reader reads
    # each one that argparse accepts
    readers = [_readers(argv) for _, _, _, argv in corpus.runs()[1]]
    assert all(read == parsed for read, parsed in readers)
    assert sum(read for read, _ in readers) > 3000
    # help, an abbreviation, a repeated option and a value that starts with
    # "-" given as the next argument are left to argparse
    for argv in (["dual", "-h"], ["--sc", "S", "dual"], ["--format=json", "--format=text", "dual"],
                 ["roots", "--box", "-1"]):
        assert toricflow.cli._exact_args(argv) is None


# words of the token soup: every flag and subcommand, their abbreviations,
# and values argparse reads in its own ways
_TOKENS = (list(toricflow.cli.COMMANDS)
           + [flag for flag, _ in toricflow.cli.OPTIONS]
           + [flag for _, _, options in toricflow.cli.COMMANDS.values() for flag, _ in options]
           + ["--", "-", "", "-h", "--help", "-1", "--l=", "--l=-1,0", "x=y", "a b", "1_0",
              "--sc", "--fo", "--po", "--ro", "--b", "--scene=S", "--format=text",
              "--format=xml", "--box=2", "--box=-1", "--ray=0", "--point=p", "--s=2",
              "S", "json", "text", "xml", "p", "0", "2", "0,-1", "vertical", "1/2", "\uff11"])


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_TOKENS), max_size=9))
def test_exact_args_agrees_with_argparse_on_a_token_soup(argv):
    _readers(argv)


_VALUES = ["S", "p", "0", "2", "-1", "0,-1", "-1,0", "vertical", "1/2", "json", "text", "",
           "x=y", "a b", "1_0", "--point"]


@st.composite
def _spelled_argvs(draw):
    """Mostly well formed calls: options before the subcommand, the
    subcommand, its options in any order, each value joined by "=" or
    next, then one soup token perhaps put in anywhere."""
    command = draw(st.sampled_from(list(toricflow.cli.COMMANDS)))
    argv = []
    for flags, tail in ((toricflow.cli.OPTIONS, [command]),
                        (toricflow.cli.COMMANDS[command][2], [])):
        for flag, _ in draw(st.permutations(flags)):
            if draw(st.booleans()):
                value = draw(st.sampled_from(_VALUES))
                argv += [flag + "=" + value] if draw(st.booleans()) else [flag, value]
        argv += tail
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
    return argv


@settings(max_examples=400)
@given(_spelled_argvs())
def test_exact_args_agrees_with_argparse_on_spelled_calls(argv):
    _readers(argv)


def test_report_is_deterministic(quadric_scene_path, capsys):
    code, first, _ = run(capsys, "--scene", quadric_scene_path, "report")
    code, second, _ = run(capsys, "--scene", quadric_scene_path, "report")
    assert first == second


GOLDEN_SCENES = {"quadric": QUADRIC_SCENE, "cusp": CUSP_SCENE, "rank3": RANK3_SCENE}

# The golden runs as a user types them: most JSON runs name no --format, so
# they pin the default format's bytes against the corpus record of the same
# run with --format=json.  Each takes the id of that corpus run, so a golden
# byte that moves renames no test.
GOLDEN_ARGVS = [
    ("quadric", ("--format=json", "report")),
    ("quadric", ("--format=text", "report")),
    ("quadric", ("verify", "--point=p", "--l=vertical")),
    ("quadric", ("classify", "--l=vertical")),
    ("quadric", ("lnd", "--root=0,-1")),
    ("quadric", ("roots", "--box=3")),
    ("cusp", ("--format=json", "report")),
    ("cusp", ("--format=text", "report")),
    ("cusp", ("verify", "--point=p", "--l=l")),
    ("cusp", ("classify", "--l=l")),
    ("cusp", ("lnd", "--root=-1")),
    ("cusp", ("roots", "--box=3")),
    ("rank3", ("--format=json", "report")),
    ("rank3", ("--format=text", "report")),
    ("rank3", ("verify", "--point=q", "--l=par")),
    ("rank3", ("classify", "--l=down")),
    ("rank3", ("lnd", "--root=0,-1,1")),
    ("rank3", ("roots", "--box=3")),
    ("quadric", ("dual",)),
    ("cusp", ("dual",)),
    ("rank3", ("dual",)),
    ("quadric", ("facets",)),
    ("cusp", ("facets",)),
    ("rank3", ("facets",)),
    ("quadric", ("hilbert",)),
    ("cusp", ("hilbert",)),
    ("rank3", ("hilbert",)),
    ("quadric", ("saturation",)),
    ("cusp", ("saturation",)),
    ("rank3", ("saturation",)),
    ("quadric", ("straightening",)),
    ("cusp", ("straightening",)),
    ("rank3", ("straightening",)),
    ("quadric", ("flow", "--point=p", "--root=0,-1", "--s=2/3")),
    ("cusp", ("flow", "--point=p", "--root=-1", "--s=2")),
    ("rank3", ("flow", "--point=q", "--root=0,-1,1", "--s=-5/2")),
    ("quadric", ("limit", "--point=p", "--l=vertical")),
    ("cusp", ("limit", "--point=p", "--l=l")),
    ("rank3", ("limit", "--point=q", "--l=par")),
    ("rank3", ("limit", "--point=p", "--l=ell")),
    ("quadric", ("--format=text", "lnd", "--root=0,-1")),
    ("rank3", ("--format=text", "lnd", "--root=0,-1,1")),
    ("quadric", ("--format=text", "verify", "--point=p", "--l=vertical")),
    ("rank3", ("--format=text", "verify", "--point=q", "--l=par")),
    ("quadric", ("--format=text", "roots", "--box=3")),
    ("cusp", ("--format=text", "roots", "--box=3")),
    ("rank3", ("--format=text", "roots", "--box=3")),
]


def _golden_runs():
    """(scene, argv, exit code, stdout digest) of the golden argv lists, then
    of every other corpus run of the golden scenes that records a digest,
    each with the exit code and digest of its corpus record."""
    _, runs = corpus.runs()
    recorded = corpus.table()["runs"]
    typed = {" ".join((scene,) + (() if argv[0] in corpus.FORMATS else ("--format=json",))
                      + argv): (scene, argv) for scene, argv in GOLDEN_ARGVS}
    params = [pytest.param(scene, argv, *recorded[run_id][:2], id=run_id)
              for run_id, (scene, argv) in typed.items()]
    params += [pytest.param(name, tuple(argv), *recorded[run_id][:2], id=run_id)
               for run_id, name, _, argv in runs
               if name in GOLDEN_SCENES and len(recorded[run_id]) == 3 and run_id not in typed]
    return params


GOLDEN_RUNS = _golden_runs()


def test_report_searches_once_per_parabolic_ray(tmp_path, capsys, monkeypatch):
    calls = []
    search = toricflow.orbits.smallest_root_at_ray

    def counted(sigma, ray_index):
        calls.append(ray_index)
        return search(sigma, ray_index)

    classified = []
    grade = toricflow.grading.classify

    def counted_classify(cone, subgroup):
        classified.append(subgroup.entries)
        return grade(cone, subgroup)

    builds = []
    build = HomogeneousLND.__init__

    def counted_build(self, monoid, root):
        builds.append(root)
        build(self, monoid, root)

    monkeypatch.setattr(toricflow.orbits, "smallest_root_at_ray", counted)
    for module in (toricflow.cli, toricflow.orbits):
        monkeypatch.setattr(module, "classify", counted_classify)
    monkeypatch.setattr(HomogeneousLND, "__init__", counted_build)
    path = tmp_path / "rank3.json"
    path.write_text(json.dumps(RANK3_SCENE))
    doc = run_json(capsys, "--scene", str(path), "report")
    # par and double are parabolic at ray 1, each verified at two points
    rays = {c["ray_index"] for c in doc["classification"].values()
            if c["kind"] == "Parabolic"}
    assert rays == {1}
    assert sum(v["verdict"] == "pass" for v in doc["verification"]) == 4
    assert calls == [1]
    # each of the five subgroups once; the negation of the hyperbolic "down"
    # is tested against the facet normals, with no classify; one derivation
    # for the one parabolic ray
    assert len(classified) == 5
    assert len(builds) == 1


@settings(max_examples=30)
@given(random_monoids(), st.data())
def test_report_warns_on_exactly_the_parabolic_negations(mon, data):
    subgroups = data.draw(st.lists(random_subgroups(mon), min_size=1, max_size=4))
    scene = {"rank": mon.rank, "monoid_generators": [list(g.entries) for g in mon.generators],
             "subgroups": {"s%d" % k: list(l.entries) for k, l in enumerate(subgroups)}}
    code, out, err = _stdin_run(scene, ["report", "--box=1"])
    assert code == 0, err
    warned = {w.split()[1] for w in json.loads(out)["warnings"]
              if w.endswith("but its negation is parabolic")}
    assert warned == {"s%d" % k for k, l in enumerate(subgroups)
                      if negation_is_parabolic(mon.weight_cone, l)}


def _scene_run(tmp_path, capsys, scene, argv):
    """Exit code and stdout digest of a golden scene's run through --scene PATH."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(GOLDEN_SCENES[scene]))
    code, out, _ = run(capsys, "--scene", str(path), *argv)
    return code, corpus.digest(out)


@pytest.mark.parametrize("scene, argv, code, digest", GOLDEN_RUNS)
def test_output_bytes_match_recorded_digests(tmp_path, capsys, scene, argv, code, digest):
    # the corpus feeds stdin; the file route gives the same bytes
    assert _scene_run(tmp_path, capsys, scene, argv) == (code, digest)


@pytest.mark.parametrize("scene, argv, code, digest",
                         [run for run in GOLDEN_RUNS
                          if {"verify", "report", "lnd"} & set(run.values[1])])
def test_certificates_read_the_stored_degrees(tmp_path, capsys, monkeypatch, scene, argv,
                                              code, digest):
    def refuse(lnd, u):
        raise AssertionError("a generator degree was paired again")

    monkeypatch.setattr(HomogeneousLND, "degree", refuse)
    assert _scene_run(tmp_path, capsys, scene, argv) == (code, digest)


_odd_text = st.text(st.one_of(st.characters(exclude_categories=()),
                              st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff')))
_json_scalars = st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
                          st.integers(), st.integers(-10**60, 10**60), _odd_text)


@settings(max_examples=300)
@given(st.recursive(_json_scalars,
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(_odd_text, inner, max_size=4),
                    max_leaves=30))
@example([True, 1, False, 0, None, [], {}, [[1, True], [0, False]]])
@example({"": {}, "\"\\\n\ud800": [-10**50, "\u00e9", [[]]], "t": [{"1": True}]})
@example(["1/2", "", "\u2028\"", "-7"])
@example([{"coords": ["3", "-1/2"], "gm": []}, {"coords": ["0"], "n": [["a", "b"], [1]]}])
@example({"a": [], "b": {"c": []}, "d": [[], {}]})
def test_writer_matches_json_dumps_per_scalar(document):
    assert toricflow.cli._dumps(document) == json_dumps_per_scalar(document)


@pytest.mark.parametrize("stray", [Fraction(5, 2), 2.5, (1, 2)],
                         ids=["Fraction", "float", "tuple"])
def test_writer_refuses_a_rational_that_is_not_a_string(stray):
    # inside an otherwise int-only list, so that the list's repr, which
    # would print 5/2 as Fraction(5, 2), 2.5 or (1, 2), is never taken, and
    # inside a str list, which is one join of quoted items
    for document in ({"s": [1, stray, -3]}, {"s": ["1", stray]}, [["1", stray]], stray):
        with pytest.raises(TypeError):
            toricflow.cli._dumps(document)


def _breaks_line(text):
    """Holds a C0 or C1 control, DEL, U+2028, U+2029 or a lone surrogate."""
    return any(unicodedata.category(c) in ("Cc", "Zl", "Zp", "Cs") for c in text)


def _text_documents(strings):
    """The shapes the commands print: dicts of scalars, scalar lists, lists
    of scalar lists, dicts and lists of dicts."""
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30), strings)
    rows = st.lists(scalars, max_size=4)
    values = st.recursive(
        scalars | rows | st.lists(rows, max_size=3),
        lambda inner: st.dictionaries(strings, inner, max_size=4)
        | st.lists(st.dictionaries(strings, inner, max_size=3), max_size=3),
        max_leaves=20)
    return st.dictionaries(strings, values, max_size=5)


def _quote_breaks(value):
    """value with each key and string that breaks a line as its JSON literal."""
    if isinstance(value, str):
        return json.dumps(value) if _breaks_line(value) else value
    if isinstance(value, dict):
        return {_quote_breaks(k): _quote_breaks(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_quote_breaks(v) for v in value]
    return value


@settings(max_examples=300)
@given(_text_documents(st.text(st.characters(exclude_categories=("Cc", "Zl", "Zp", "Cs")),
                               max_size=6)))
@example({"a": [1, True, None, "x"], "b": [[1, 2], [], ["s", False]], "c": [],
          "d": {}, "e": [{"f": [[0]]}, {}], "i": {"j": [{}]}})
def test_text_renderer_matches_render_text_per_item(document):
    assert render_text(document) == render_text_per_item(document)


@settings(max_examples=200)
@given(_text_documents(_odd_text))
@example({"p\nverdict: pass": ["\x85", "\u2028", "\x7f"], "\x1f": "\u2029\x00"})
def test_text_renderer_quotes_strings_that_break_lines(document):
    text = render_text(document)
    assert text == render_text_per_item(_quote_breaks(document))
    assert text.splitlines() == text.split("\n")[:-1]


def test_scene_names_cannot_forge_text_report_lines(tmp_path, capsys):
    # a refused pair, whose point and subgroup names each hold a line break
    scene = dict(CUSP_SCENE, points={"p\nverdict: pass": {"torus": [2]}},
                 subgroups={"l\u2028x": [1]})
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(scene))
    code, text, err = run(capsys, "--scene", str(path), "--format=text", "report")
    assert (code, err) == (0, "")
    lines = text.splitlines()
    assert lines == text.split("\n")[:-1]
    assert [line for line in lines if line.lstrip().startswith("verdict")] == [
        "    verdict: refused"]
    assert '    point_name: "p\\nverdict: pass"' in lines
    assert '    subgroup_name: "l\\u2028x"' in lines
    assert '  "l\\u2028x":' in lines
    code, out, err = run(capsys, "--scene", str(path), "report")
    doc = json.loads(out)
    assert (code, out) == (0, json_dumps_per_scalar(doc) + "\n")
    entry = doc["verification"][0]
    assert (entry["point_name"], entry["subgroup_name"]) == ("p\nverdict: pass", "l\u2028x")
    assert entry["verdict"] == "refused" and list(doc["classification"]) == ["l\u2028x"]


def test_text_output_quotes_a_lone_surrogate(tmp_path, capsys):
    # a name no UTF-8 stream can carry is written as its JSON literal
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps({"rank": 1, "cone_rays": [[1]], "subgroups": {"\ud800": [1]},
                                "points": {"p": {"torus": [2]}, "\udfff": {"torus": [3]}}}))
    for argv, quoted in ((["report"], b'\n  "\\ud800":\n'),
                         (["verify", "--l", "\ud800", "--point", "\udfff"],
                          b'\npoint_name: "\\udfff"\n')):
        code, text, err = run(capsys, "--scene", str(path), "--format=text", *argv)
        assert (code, err) == (0, "")
        assert quoted in text.encode("utf-8")


# one call of each subcommand on QUADRIC_SCENE or a scene with its names
_EVERY_COMMAND = [
    ("dual",), ("facets",), ("hilbert",), ("saturation",),
    ("classify", "--l", "vertical"), ("straightening",),
    ("roots", "--box", "3"), ("lnd", "--root", "0,-1"),
    ("flow", "--point", "p", "--root", "0,-1", "--s", "1"),
    ("limit", "--point", "p", "--l", "vertical"),
    ("verify", "--l", "vertical", "--point", "p"), ("report",),
]


def test_json_is_parseable_for_all_commands(quadric_scene_path, capsys):
    for command in _EVERY_COMMAND:
        doc = run_json(capsys, "--scene", quadric_scene_path, *command)
        assert isinstance(doc, dict)


@pytest.mark.parametrize("generators", [None, [[1, 0], [1, 1], [1, 2]], [[1, 0], [1, 1], [1, 3]]],
                         ids=["cone", "saturated", "holed"])
def test_each_call_computes_the_hilbert_basis_at_most_once(tmp_path, capsys, monkeypatch,
                                                           generators):
    scene = dict(QUADRIC_SCENE)
    if generators is not None:
        del scene["cone_rays"]
        scene["monoid_generators"] = generators
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    calls = []

    def counted(cone):
        calls.append(cone)
        return hilbert_basis(cone)

    monkeypatch.setattr(toricflow.monoid, "hilbert_basis", counted)
    monkeypatch.setattr(toricflow.cli, "hilbert_basis", counted)
    for command in _EVERY_COMMAND:
        for form in ("json", "text"):
            del calls[:]
            run(capsys, "--scene", str(path), "--format", form, *command)
            assert len(calls) <= 1, (command, form)
            if command == ("hilbert",):
                assert len(calls) == 1


def test_exit_code_2_for_malformed_root_and_samples(quadric_scene_path, capsys):
    for argv in (["lnd", "--root", "1,2,3"],
                 ["flow", "--point", "p", "--root=1,2,3", "--s", "1"],
                 ["verify", "--point", "p", "--l", "vertical", "--ts", "0"],
                 ["verify", "--point", "p", "--l", "vertical", "--ts", "1,0"],
                 ["flow", "--point", "p", "--root=0,-1", "--s", "x"],
                 ["flow", "--point", "p", "--root=0,-1", "--s", "1/0"],
                 ["verify", "--point", "p", "--l", "vertical", "--ss", "1,a"],
                 ["lnd", "--root", "1,z"],
                 ["classify", "--l", "1,y"]):
        code, out, err = run(capsys, "--scene", quadric_scene_path, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: SceneError:") and err.count("\n") == 1, err


def test_rejected_values_are_echoed_cut_short(tmp_path, capsys):
    nested = 2
    for _ in range(500):
        nested = [nested]
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(dict(QUADRIC_SCENE, points={"p": {"torus": [nested, 1]}})))
    quadric = tmp_path / "quadric.json"
    quadric.write_text(json.dumps(QUADRIC_SCENE))
    long_name = "n" * 5000
    named = {"zero_point": {"points": {long_name: {"torus": [0, 1]}}},
             "zero_subgroup": {"subgroups": {long_name: [0, 0]}},
             "other_point": {"points": {long_name: {"torus": [1, 1]}}}}
    for key, change in named.items():
        (tmp_path / (key + ".json")).write_text(json.dumps(dict(QUADRIC_SCENE, **change)))
    for argv in (["--scene", str(deep), "dual"],
                 ["--scene", str(tmp_path / "zero_point.json"), "dual"],
                 ["--scene", str(tmp_path / "zero_subgroup.json"), "dual"],
                 ["--scene", str(tmp_path / "other_point.json"), "flow", "--point", "p",
                  "--root=0,-1", "--s", "1"],
                 ["--scene", str(quadric), "flow", "--point", "p", "--root=0,-1",
                  "--s", "x" * 5000],
                 ["--scene", str(quadric), "classify", "--l", ",".join(["1"] * 2500)],
                 ["--scene", str(quadric), "lnd", "--root", "7" * 5000]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: SceneError:") and err.count("\n") == 1, err
        assert len(err) < 200, err


@pytest.mark.parametrize("value", ["1e10000000", "1.5", "1_000"])
def test_only_integer_and_fraction_strings_are_rationals(tmp_path, capsys, value):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(dict(QUADRIC_SCENE, points={"p": {"torus": [value, 1]}})))
    quadric = tmp_path / "quadric.json"
    quadric.write_text(json.dumps(QUADRIC_SCENE))
    verify = ["--scene", str(quadric), "verify", "--point", "p", "--l", "vertical"]
    for argv in (["--scene", str(scene), "dual"],
                 ["--scene", str(quadric), "flow", "--point", "p", "--root=0,-1",
                  "--s", value],
                 verify + ["--ts", "2," + value],
                 verify + ["--ss", value]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: SceneError:") and err.count("\n") == 1, err
        assert "cannot parse rational %r" % value in err


@pytest.mark.parametrize("ray", ["99", "-1"])
def test_roots_ray_out_of_range(quadric_scene_path, capsys, ray):
    code, out, err = run(capsys, "--scene", quadric_scene_path, "roots", "--ray", ray)
    assert code == 2 and out == ""
    assert err == "error: SceneError: ray index %s out of range, cone has 2 rays\n" % ray


def test_readme_classify_example_matches_the_cli(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    command = readme[readme.index("## Command line"):]
    scene, _, rest = command.partition("With that file as `quadric.json`:")
    example = rest.partition("```json\n")[2].partition("```")[0]
    path = tmp_path / "quadric.json"
    path.write_text(scene.partition("```json\n")[2].partition("```")[0])
    assert "classify --l vertical" in rest.partition("```json")[0]
    code, out, err = run(capsys, "--scene", str(path), "classify", "--l", "vertical")
    assert code == 0, err
    assert out == example


_A3_SCENE = {"rank": 3, "monoid_generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
_DUALITY_PENTAGON_SCENE = {"rank": 3, "cone_rays": [
    list(r) for name, _, rays in DUALITY_CONES if name == "pentagon" for r in rays]}


@pytest.mark.parametrize("scene", [QUADRIC_SCENE, _A3_SCENE, _DUALITY_PENTAGON_SCENE])
def test_lnd_images_match_applying_the_derivation(tmp_path, capsys, scene):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    mon = load_scene(json.dumps(scene)).monoid()
    roots = run_json(capsys, "--scene", str(path), "roots", "--box", "1")["roots"]
    assert len(roots) >= 2
    for root in roots:
        text = ",".join(str(a) for a in root["vector"])
        action = run_json(capsys, "--scene", str(path), "lnd",
                          "--root=" + text)["lnd"]["action"]
        lnd = HomogeneousLND(mon, root["vector"])
        assert len(action) == len(mon.generators)
        for gen, entry in zip(mon.generators, action):
            image = lnd.apply(monomial(mon, gen))
            assert entry["image"] == {",".join(str(a) for a in u.entries): str(c)
                                      for u, c in image.terms}


_RATIONALS = st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-7/3"])


def _csv(values, size):
    return st.lists(values, min_size=size, max_size=size).map(",".join)


@st.composite
def _argvs(draw, rank, ints=st.integers(-3, 3).map(str)):
    """argv for one subcommand in --flag=value form, so that negative
    values parse; --root and --l sometimes have the wrong length."""
    sizes = st.sampled_from([rank, rank, 1 + rank % 3])
    subgroup = st.one_of(st.just("l"), sizes.flatmap(lambda n: _csv(ints, n)))
    root = sizes.flatmap(lambda n: _csv(ints, n))
    samples = st.integers(1, 3).flatmap(lambda n: _csv(_RATIONALS, n))
    box = st.integers(0, 3).map(str)
    command = draw(st.sampled_from(
        ["dual", "facets", "hilbert", "saturation", "straightening", "classify",
         "roots", "lnd", "flow", "limit", "verify", "report"]))
    options = {
        "classify": {"--l": subgroup},
        "roots": {"--box": box, "--ray": st.integers(-1, 4).map(str)},
        "lnd": {"--root": root},
        "flow": {"--point": st.sampled_from(["p", "q"]), "--root": root,
                 "--s": _RATIONALS},
        "limit": {"--point": st.just("p"), "--l": subgroup},
        "verify": {"--point": st.just("p"), "--l": subgroup, "--ts": samples,
                   "--ss": samples},
        "report": {"--box": box},
    }.get(command, {})
    optional = {"--ray", "--ts", "--ss"}
    argv = [command]
    for flag, values in options.items():
        if flag not in optional or draw(st.booleans()):
            argv.append("%s=%s" % (flag, draw(values)))
    return argv


@st.composite
def _polygon_runs(draw):
    """The rank-3 cone over a lattice polygon with 3 to 16 vertices drawn
    from [-3, 3]^2, and an argv for one subcommand of it."""
    corners = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=3, max_size=16, unique=True))
    scene = {
        "rank": 3,
        "cone_rays": [[1, x, y] for x, y in corners],
        "points": {"p": {"torus": draw(st.lists(
            _RATIONALS.filter(lambda q: q != "0"), min_size=3, max_size=3))}},
        "subgroups": {"l": draw(st.lists(st.integers(-3, 3), min_size=3,
                                         max_size=3).filter(any))},
    }
    return scene, draw(_argvs(3))


@st.composite
def _runs(draw):
    """A small rank 1-3 scene, or a polygon cone scene, and an argv for one
    subcommand of it."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_polygon_runs())
    rank = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    # most generator lists pair positively with a sign vector, so that most
    # scenes are pointed and the commands get past building the cone
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=rank, max_size=rank))
    pointed = vector.filter(lambda v: sum(a * b for a, b in zip(signs, v)) > 0)
    key = draw(st.sampled_from(["cone_rays", "monoid_generators"]))
    scene = {
        "rank": rank,
        key: draw(st.lists(st.one_of(pointed, pointed, pointed, vector),
                           min_size=rank, max_size=rank + 2)),
        "points": {"p": {"torus": draw(st.lists(
            _RATIONALS.filter(lambda q: q != "0"), min_size=rank, max_size=rank))}},
        "subgroups": {"l": draw(vector.filter(any))},
    }
    return scene, draw(_argvs(rank))


# the cone over the 16-gon with vertices (x, x^2), as many rays as the
# polygon scenes of the contract draw
_POLYGON16_SCENE = {
    "rank": 3,
    "cone_rays": [[1, x, x * x] for x in range(16)],
    "points": {"p": {"torus": ["2", "3", "5"]}},
    "subgroups": {"l": [1, 0, 0]},
}


@settings(max_examples=60, deadline=None)
@example((_POLYGON16_SCENE, ["report"]))
@example((QUADRIC_SCENE, ["lnd", "--root=1,2,3"]))
@example((QUADRIC_SCENE, ["verify", "--point=p", "--l=vertical", "--ts=1,0"]))
@given(_runs())
def test_exit_code_contract(run_args):
    _check_exit_code_contract(*run_args)


def _check_exit_code_contract(scene, argv):
    code, out, err = _stdin_run(scene, argv)
    assert code in (0, 2, 3, 4)
    lines = err.splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error:")), lines


_WIDE = st.one_of(st.integers(-3, 3), st.integers(-10**9, 10**9))


@st.composite
def _wide_rank2_runs(draw):
    """A rank-2 scene with entries up to 10^9 in its rays or generators, its
    torus point and its subgroup, and an argv for one subcommand of it whose
    --root and --l entries are as large."""
    vector = st.lists(_WIDE, min_size=2, max_size=2)
    coordinate = st.one_of(_RATIONALS, _WIDE.map(str)).filter(lambda q: q != "0")
    scene = {
        "rank": 2,
        draw(st.sampled_from(["cone_rays", "monoid_generators"])):
            draw(st.lists(vector, min_size=2, max_size=4)),
        "points": {"p": {"torus": draw(st.lists(coordinate, min_size=2, max_size=2))}},
        "subgroups": {"l": draw(vector.filter(any))},
    }
    return scene, draw(_argvs(2, _WIDE.map(str)))


_THIN9 = {"rank": 2, "cone_rays": [[1, 0], [1, 10**9]],
          "points": {"p": {"torus": ["2", "3"]}}, "subgroups": {"l": [1, 0]}}
_HOLED = {"rank": 2, "monoid_generators": [[1, 0], [0, 2], [0, 3], [1, 1]],
          "points": {"p": {"torus": ["2", "3"]}}, "subgroups": {"l": [1, 0]}}


# Every subcommand ends within a few seconds however large the entries: the
# examples trip the power cap, the walk's cap and the decompose cap.
@settings(max_examples=80, deadline=None)
@example((_THIN9, ["verify", "--l=l", "--point=p"]))
@example((_THIN9, ["flow", "--point=p", "--root=-1,1", "--s=1"]))
# the weight cone of this one is cone((1,0),(10^9,10^9-1)), of 10^9 elements
@example((dict(_THIN9, cone_rays=[[0, 1], [10**9 - 1, -10**9]]), ["report"]))
@example((_HOLED, ["lnd", "--root=-1,1000000000"]))
@given(_wide_rank2_runs())
def test_exit_code_contract_on_wide_rank2_scenes(run_args):
    start = time.perf_counter()
    _check_exit_code_contract(*run_args)
    assert time.perf_counter() - start < 5
