import io
import json

import pytest

from toricflow.cli import main

from conftest import QUADRIC_SCENE

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


def test_exit_code_2_scene_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, "--scene", str(bad), "dual")
    assert code == 2
    assert err.startswith("error: SceneError:")
    code, out, err = run(capsys, "--scene", str(tmp_path / "nope.json"), "dual")
    assert code == 2


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


def test_exit_code_4_resource_errors(tmp_path, capsys):
    big = tmp_path / "rank5.json"
    rays = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    big.write_text(json.dumps({"rank": 5, "cone_rays": rays}))
    code, out, err = run(capsys, "--scene", str(big), "dual")
    assert code == 4
    assert "RankLimitExceeded" in err
    wide = tmp_path / "rank4.json"
    rays = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    wide.write_text(json.dumps({"rank": 4, "cone_rays": rays}))
    code, out, err = run(capsys, "--scene", str(wide), "hilbert")
    assert code == 4


def test_report_is_deterministic(quadric_scene_path, capsys):
    code, first, _ = run(capsys, "--scene", quadric_scene_path, "report")
    code, second, _ = run(capsys, "--scene", quadric_scene_path, "report")
    assert first == second


def test_json_is_parseable_for_all_commands(quadric_scene_path, capsys):
    commands = [
        ("dual",), ("facets",), ("hilbert",), ("saturation",),
        ("classify", "--l", "vertical"), ("straightening",),
        ("roots", "--box", "3"), ("lnd", "--root", "0,-1"),
        ("flow", "--point", "p", "--root", "0,-1", "--s", "1"),
        ("limit", "--point", "p", "--l", "vertical"),
        ("verify", "--l", "vertical", "--point", "p"), ("report",),
    ]
    for command in commands:
        doc = run_json(capsys, "--scene", quadric_scene_path, *command)
        assert isinstance(doc, dict)
