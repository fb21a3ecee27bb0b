import json
from fractions import Fraction

import pytest

from toricflow import Report, SceneError, load_scene, render_text

from conftest import A2_SCENE, CUSP_SCENE, QUADRIC_SCENE


def test_quadric_scene(quadric):
    scene = load_scene(json.dumps(QUADRIC_SCENE))
    assert scene.rank == 2
    assert [r.entries for r in scene.sigma().rays] == [(0, 1), (2, -1)]
    assert scene.monoid() == quadric
    assert scene.monoid().weight_cone == quadric.weight_cone
    assert scene.monoid().hilbert_basis() == quadric.hilbert_basis()
    assert scene.monoid().saturation().saturated
    assert scene.point("p").coords == (3, 6, 12)
    assert scene.subgroup_vector("vertical").entries == (0, 1)
    assert scene.subgroup_vector("1,-2").entries == (1, -2)


def test_monoid_scene_preserves_generator_order():
    scene = load_scene(json.dumps({
        "rank": 2, "monoid_generators": [[0, 1], [1, 0]]}))
    assert [g.entries for g in scene.monoid().generators] == [(0, 1), (1, 0)]


def test_scene_accepts_rational_strings():
    scene = load_scene(json.dumps({
        "rank": 1, "monoid_generators": [[1]],
        "points": {"p": {"torus": ["-3/2"]}}}))
    assert scene.point("p").coords == (Fraction(-3, 2),)


@pytest.mark.parametrize("raw,fragment", [
    ("[]", "object"),
    ('{"rank": 2}', "exactly one"),
    ('{"rank": 2, "cone_rays": [[1,0]], "monoid_generators": [[1,0]]}',
     "exactly one"),
    ('{"rank": 0, "cone_rays": [[1,0]]}', "positive"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], "extra": 1}', "unknown"),
    ('{"rank": 2, "cone_rays": [[1,0,0],[0,1]]}', "2 integers"),
    ('{"rank": 2, "cone_rays": [[1.5,0],[0,1]]}', "integers"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], "points": {"p": [1,1]}}',
     "torus"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], '
     '"points": {"p": {"torus": [1, 0]}}}', "nonzero"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], '
     '"points": {"p": {"torus": [1, 0.5]}}}', "rational"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], '
     '"points": {"p": {"torus": [1, true]}}}', "rational"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], "subgroups": {"l": [0,0]}}',
     "zero"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], "subgroups": {"l": [1]}}',
     "integers"),
    ("not json", "JSON"),
])
def test_scene_rejections(raw, fragment):
    with pytest.raises(SceneError) as info:
        load_scene(raw)
    assert fragment in str(info.value)


def test_unknown_point_and_bad_subgroup_text():
    scene = load_scene(json.dumps(QUADRIC_SCENE))
    with pytest.raises(SceneError):
        scene.point("missing")
    with pytest.raises(SceneError):
        scene.subgroup_vector("nope")
    with pytest.raises(SceneError):
        scene.subgroup_vector("1,2,3")
    with pytest.raises(SceneError):
        scene.subgroup_vector("0,0")


def test_monoid_scene_errors_are_scene_errors():
    scene = load_scene(json.dumps({
        "rank": 2, "monoid_generators": [[1, 0], [1, 0]]}))
    with pytest.raises(SceneError):
        scene.monoid()


def test_digest_ignores_key_order_and_tracks_content():
    a = load_scene('{"rank": 2, "cone_rays": [[0,1],[2,-1]]}')
    b = load_scene('{"cone_rays": [[0,1],[2,-1]], "rank": 2}')
    c = load_scene('{"rank": 2, "cone_rays": [[0,1],[3,-1]]}')
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert len(a.digest) == 64


def test_primary_cone_follows_scene_kind():
    cone_scene = load_scene(json.dumps(QUADRIC_SCENE))
    assert cone_scene.primary_cone().side == "N"
    monoid_scene = load_scene(json.dumps(A2_SCENE))
    assert monoid_scene.primary_cone().side == "M"
    assert monoid_scene.sigma().side == "N"


def test_cusp_scene_builds_but_is_unsaturated():
    scene = load_scene(json.dumps(CUSP_SCENE))
    assert not scene.monoid().saturation().saturated


REPORT_DOC = {
    "scene_digest": "x" * 64,
    "classification": {"l": {"kind": "Parabolic"}},
    "straightening": None,
    "roots": {"box": 5, "count": 0, "by_ray": [], "roots": []},
    "witness_lnd": {},
    "verification": [],
    "warnings": ["w"],
    "derived_facts": [],
}


def test_report_round_trip():
    report = Report.from_dict(REPORT_DOC)
    assert report.to_dict() == REPORT_DOC
    assert list(report.to_dict()) == [
        "scene_digest", "classification", "straightening", "roots",
        "witness_lnd", "verification", "warnings", "derived_facts"]


def test_report_requires_exact_keys():
    with pytest.raises(ValueError):
        Report.from_dict({"scene_digest": "x"})
    extra = dict(REPORT_DOC, stray=1)
    with pytest.raises(ValueError):
        Report.from_dict(extra)


def test_render_text_shapes():
    text = render_text({
        "name": "quadric",
        "flag": True,
        "nothing": None,
        "vector": [1, -2],
        "vectors": [[1, 0], [0, 1]],
        "nested": {"inner": [{"a": 1}]},
        "empty_list": [],
        "empty_map": {},
    })
    lines = text.splitlines()
    assert "name: quadric" in lines
    assert "flag: true" in lines
    assert "nothing: none" in lines
    assert "vector: [1, -2]" in lines
    assert "vectors: [1, 0] [0, 1]" in lines
    assert text.endswith("\n")
    assert render_text({"a": 1}) == render_text({"a": 1})
