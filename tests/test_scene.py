import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toricflow
from toricflow import SceneError, hilbert_basis, load_scene, render_text
from toricflow.scene import parse_integers, parse_rational

import corpus
from conftest import A2_SCENE, CUSP_SCENE, QUADRIC_SCENE


def test_quadric_scene(quadric):
    scene = load_scene(json.dumps(QUADRIC_SCENE))
    assert scene.rank == 2
    assert [r.entries for r in scene.sigma().rays] == [(0, 1), (2, -1)]
    assert scene.monoid() == quadric
    assert scene.monoid().weight_cone == quadric.weight_cone
    assert hilbert_basis(scene.monoid().weight_cone) == hilbert_basis(quadric.weight_cone)
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


@pytest.mark.parametrize("text, value", [
    ("-7/3", Fraction(-7, 3)), ("+3", Fraction(3)), ("0", Fraction(0)),
    ("12/8", Fraction(3, 2))])
def test_parse_rational_reads_integers_and_fractions(text, value):
    assert parse_rational(text, "x") == value


@pytest.mark.parametrize("text", ["1e10000000", "1.5", "1_000", " 1", "1/",
                                  "/2", "1/-2", "\u0661", "1/0"])
def test_parse_rational_refuses_other_forms(text):
    with pytest.raises(SceneError, match="x: cannot parse rational"):
        parse_rational(text, "x")


def test_parse_integers_reads_signs_and_ascii_digits():
    assert parse_integers("+3,-4,007", 3, "x") == (3, -4, 7)


@pytest.mark.parametrize("text", ["1_0,1", " 1,1", "1,1 ", "\uff11,1", "1,\u0661", "0x1,1",
                                  "1,,1", "1,1,", "1.0,1", "", "1", "7" * 5000 + ",1"])
def test_parse_integers_refuses_other_forms(text):
    with pytest.raises(SceneError, match="x must be 2 comma separated integers"):
        parse_integers(text, 2, "x")


@pytest.mark.parametrize("raw,fragment", [
    ("[]", "object"),
    ('{"rank": 2}', "exactly one"),
    ('{"rank": 2, "cone_rays": [[1,0]], "monoid_generators": [[1,0]]}',
     "exactly one"),
    ('{"rank": 0, "cone_rays": [[1,0]]}', "positive"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], "extra": 1}', "unknown"),
    ('{"rank": 2, "cone_rays": [[1,0,0],[0,1]]}', "2 integers"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,0]]}', "cone_rays[1]: the zero vector"),
    ('{"rank": 2, "cone_rays": [[1.5,0],[0,1]]}', "integers"),
    ('{"rank": 2, "cone_rays": []}', "cone_rays must be a nonempty list"),
    ('{"rank": 2, "cone_rays": {"a": [1,0]}}', "cone_rays must be a nonempty list"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], "points": [[1,1]]}', "points must be an object"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], "points": {"p": [1,1]}}',
     "torus"),
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], "points": {"p": {"torus": [1]}}}',
     "torus needs 2 coordinates"),
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
    ('{"rank": 2, "cone_rays": [[1,0],[0,1]], "subgroups": [[1,0]]}',
     "subgroups must be an object"),
    ("not json", "JSON"),
])
def test_scene_rejections(raw, fragment):
    with pytest.raises(SceneError) as info:
        load_scene(raw)
    assert fragment in str(info.value)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int->str digit limit")
def test_an_integer_past_the_digit_limit_cannot_be_read():
    # this refusal embeds CPython's own message, which Python 3.10 words
    # "limit (4300)" and later ones "limit (4300 digits)", so the corpus,
    # whose stderr must replay alike on each of them, leaves it to this test
    text = '{"rank": 1, "cone_rays": [[%s]]}' % ("1" * 5000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SceneError, match=r"^scene cannot be read: Exceeds the limit \(4300"):
            load_scene(text)
        code, stdout_digest, err = corpus.outcome(text, ["dual"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, stdout_digest) == (2, corpus.digest(""))
    assert err.startswith("error: SceneError: scene cannot be read: Exceeds the limit (4300")
    assert err.count("\n") == 1, err


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
    # duplicate generators are refused when the scene is read
    with pytest.raises(SceneError):
        load_scene(json.dumps({"rank": 2, "monoid_generators": [[1, 0], [1, 0]]}))


def test_digest_ignores_key_order_and_tracks_content():
    a = load_scene('{"rank": 2, "cone_rays": [[0,1],[2,-1]]}')
    b = load_scene('{"cone_rays": [[0,1],[2,-1]], "rank": 2}')
    c = load_scene('{"rank": 2, "cone_rays": [[0,1],[3,-1]]}')
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert len(a.digest) == 64


def test_digest_falls_back_to_hashlib_with_the_same_bytes():
    # a build without CPython's builtin SHA-256 module hashes through hashlib
    text = json.dumps(QUADRIC_SCENE)
    canonical = json.dumps(QUADRIC_SCENE, sort_keys=True, separators=(",", ":"))
    expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert load_scene(text).digest == expected
    code = ("import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
            "import hashlib, toricflow.scene as scene; "
            "print(scene.sha256 is hashlib.sha256, scene.load_scene(sys.argv[1]).digest)")
    src = Path(toricflow.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code, text], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True %s\n" % expected, "")


def test_primary_cone_follows_scene_kind():
    cone_scene = load_scene(json.dumps(QUADRIC_SCENE))
    assert cone_scene.primary_cone().side == "N"
    monoid_scene = load_scene(json.dumps(A2_SCENE))
    assert monoid_scene.primary_cone().side == "M"
    assert monoid_scene.sigma().side == "N"


def test_cusp_scene_builds_but_is_unsaturated():
    scene = load_scene(json.dumps(CUSP_SCENE))
    assert not scene.monoid().saturation().saturated


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
