"""Command line front end.

Every subcommand reads one scene (file or stdin), prints one document to
stdout, and exits 0.  Failures map to exit codes by error family:

    2  malformed scene or arguments
    3  hypothesis violated (not pointed, not saturated, not parabolic, ...)
    4  resource bound hit (rank limit, enumeration cap, output digit limit)
"""

import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .errors import (BoundExceeded, HypothesisError, NormalityRequired,
                     NotParabolic, ResourceError, SceneError, ToricError)
from .lattice import primitive
from .monoid import hilbert_basis
from .grading import classify, straightening_subtori
from .demazure import roots_in_box
from .algebra import HomogeneousLND
from .orbits import ga_flow_point, limit_point, verify_compatible, witness_derivation
from .report import render_text
from .scene import integer, load_scene, parse_integers, parse_rational

DEFAULT_ROOT_BOX = 5


def _dumps(value, newline="\n"):
    """JSON with 2-space indent, scalar-only lists and empty containers
    inline, by one exact-type dispatch per value; newline is the line break
    and indent of the value's line.  An int or int list is its repr; the
    literals are told by identity, as True == 1."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return repr(value)
    inner = newline + "  "
    if kind is dict and value:
        parts, brackets = [_quote(key) + ": " + _dumps(item, inner)
                           for key, item in value.items()], "{}"
    elif kind is list:
        types = set(map(type, value))
        if types <= {int}:
            return repr(value)
        if types.isdisjoint((dict, list)):
            return "[" + ", ".join(map(_quote if types == {str} else _dumps, value)) + "]"
        parts, brackets = [_dumps(item, inner) for item in value], "[]"
    elif kind is dict:
        return "{}"
    elif value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    else:
        raise TypeError("%s is not a JSON scalar" % kind.__name__)
    return brackets[0] + inner + ("," + inner).join(parts) + newline + brackets[1]


def _cone_doc(cone):
    return {
        "side": cone.side,
        "rank": cone.rank,
        "rays": [list(r.entries) for r in cone.rays],
        "facet_normals": [list(n.entries) for n in cone.facet_normals],
    }


def _grading_doc(cone, grading):
    doc = {
        "kind": grading.kind.value,
        "degree_gcd": grading.degree_gcd,
        "effective": grading.effective,
        "zero_face_dim": None if grading.zero_face is None else grading.zero_face.dim,
        "zero_face_rays": None if grading.zero_face is None
        else [list(r.entries) for r in grading.zero_face.rays],
        "ray_index": grading.ray_index,
    }
    if grading.ray_index is not None:
        doc["ray"] = list(cone.facet_normals[grading.ray_index].entries)
    return doc


def _point_doc(point):
    return {"coords": [str(x) for x in point.coords], "provenance": point.provenance[0]}


def _root_doc(root):
    return {"vector": list(root.vector.entries), "ray_index": root.ray_index}


def _lnd_doc(lnd):
    """The derivation on each generator g: d(chi^g) = <p, g> chi^(g + e)."""
    action = []
    for gen, k in zip(lnd.monoid.generators, lnd.degrees):
        image = {",".join(map(str, (gen + lnd.root.vector).entries)): str(k)} if k else {}
        action.append({"generator": list(gen.entries), "degree": k, "image": image})
    return {
        "root": _root_doc(lnd.root),
        "ray": list(lnd.ray.entries),
        "kernel_rank": lnd.kernel_rank(),
        "action": action,
    }


def _invariant_doc(check):
    return {
        "exponent": list(check.exponent.entries),
        "base_value": str(check.base_value),
        "gm_values": [str(x) for x in check.gm_values],
        "ga_values": [str(x) for x in check.ga_values],
        "constant": check.constant,
        "annihilated": check.annihilated,
    }


def _verification_doc(rep):
    return {
        "verdict": "pass" if rep.passed else "fail",
        "subgroup": list(rep.subgroup.entries),
        "point": _point_doc(rep.point),
        "kind": "Parabolic",
        "ray_index": rep.ray_index,
        "ray": list(rep.ray.entries),
        "root": _root_doc(rep.root),
        "root_box": rep.root_box,
        "gm_samples": [str(x) for x in rep.gm_samples],
        "ga_samples": [str(x) for x in rep.ga_samples],
        "invariants": [_invariant_doc(c) for c in rep.invariant_checks],
        "limit": {"coords": [str(x) for x in rep.limit.coords]},
        "flow_parameter": str(rep.flow_parameter),
        "reached_exactly": rep.reached_exactly,
        "notes": [],
        "derived_facts": [dict(f) for f in rep.derived_facts],
    }


def cmd_dual(scene, args):
    cone = scene.primary_cone()
    return {"cone": _cone_doc(cone), "dual": _cone_doc(cone.dual())}


def cmd_facets(scene, args):
    cone = scene.primary_cone()
    return {
        "cone": _cone_doc(cone),
        "facets": [{"normal_index": index, "normal": list(cone.facet_normals[index].entries),
                    "rays": [list(r.entries) for r in face.rays], "dim": face.dim}
                   for index, face in enumerate(cone.facets())],
    }


def cmd_hilbert(scene, args):
    cone = scene.weight_cone()
    return {
        "weight_cone": _cone_doc(cone),
        "hilbert_basis": [list(u.entries) for u in hilbert_basis(cone)],
    }


def cmd_saturation(scene, args):
    result = scene.monoid().saturation()
    return {
        "saturated": result.saturated,
        "witness": None if result.witness is None else list(result.witness.entries),
    }


def cmd_classify(scene, args):
    subgroup = scene.subgroup_vector(args.l)
    cone = scene.monoid().weight_cone
    return {
        "subgroup": list(subgroup.entries),
        "classification": _grading_doc(cone, classify(cone, subgroup)),
    }


def cmd_straightening(scene, args):
    mon = scene.monoid()
    return {
        "generators": [list(u.entries) for u in mon.generators],
        "subtori": _straightening_doc(mon),
    }


def _straightening_doc(mon):
    facets = mon.weight_cone.facets()
    return [{"ray_index": divisor.ray_index,
             "subgroup": list(divisor.ray.entries),
             "facet_rays": [list(r.entries) for r in facets[divisor.ray_index].rays],
             "vanishing_coordinates": list(divisor.vanishing),
             "surviving_coordinates": list(divisor.surviving)}
            for divisor in straightening_subtori(mon)]


def _check_box(box):
    if box < 0:
        raise SceneError("--box must be nonnegative, got %d" % box)


def _roots_doc(scene, box, ray_index=None):
    """count, by_ray and roots of the root scan, for `roots` and `report`.
    Callers check --box first, before any cone is built."""
    sigma = scene.sigma()
    if ray_index is not None and not 0 <= ray_index < len(sigma.rays):
        raise SceneError("ray index %d out of range, cone has %d rays"
                         % (ray_index, len(sigma.rays)))
    roots = roots_in_box(sigma, box, ray_index=ray_index)
    counts = dict.fromkeys(range(len(sigma.rays)) if ray_index is None else [ray_index], 0)
    for r in roots:
        counts[r.ray_index] += 1
    return {
        "count": len(roots),
        "by_ray": [{"ray_index": index, "ray": list(sigma.rays[index].entries), "count": count}
                   for index, count in counts.items()],
        "roots": [_root_doc(r) for r in roots],
    }


def cmd_roots(scene, args):
    _check_box(args.box)
    return {
        "box": args.box,
        "ray_filter": args.ray,
        **_roots_doc(scene, args.box, args.ray),
    }


def _lnd_from_arg(scene, text):
    return HomogeneousLND(scene.monoid(), parse_integers(text, scene.rank, "--root"))


def cmd_lnd(scene, args):
    return {"lnd": _lnd_doc(_lnd_from_arg(scene, args.root))}


def cmd_flow(scene, args):
    lnd = _lnd_from_arg(scene, args.root)
    point = scene.point(args.point)
    s = parse_rational(args.s, "--s")
    return {
        "point": _point_doc(point),
        "root": _root_doc(lnd.root),
        "s": str(s),
        "image": _point_doc(ga_flow_point(lnd, s, point)),
    }


def cmd_limit(scene, args):
    mon = scene.monoid()
    point = scene.point(args.point)
    subgroup = scene.subgroup_vector(args.l)
    limit = limit_point(mon, subgroup, point)
    return {
        "point": _point_doc(point),
        "subgroup": list(subgroup.entries),
        "exists": limit is not None,
        "limit": None if limit is None else {"coords": [str(x) for x in limit.coords]},
    }


def cmd_verify(scene, args):
    # The arguments and the grading are refused before a cone scene's
    # Hilbert basis and the torus point are built.
    mon = scene.monoid()
    scene.torus(args.point)
    subgroup = scene.subgroup_vector(args.l)
    kwargs = {}
    if args.ts is not None:
        kwargs["gm_samples"] = tuple(parse_rational(x, "--ts") for x in args.ts.split(","))
        if 0 in kwargs["gm_samples"]:
            raise SceneError("--ts samples must be nonzero")
    if args.ss is not None:
        kwargs["ga_samples"] = tuple(parse_rational(x, "--ss") for x in args.ss.split(","))
    witness = witness_derivation(mon, classify(mon.weight_cone, subgroup))
    rep = verify_compatible(mon, subgroup, scene.point(args.point), witness=witness, **kwargs)
    return {**_verification_doc(rep), "point_name": args.point}


def cmd_report(scene, args):
    _check_box(args.box)
    classification, witness_lnd, verification, warnings, facts = {}, {}, [], [], {}
    witnesses = {}  # ray index -> (lnd, box), one first-root search per ray
    mon = scene.monoid()
    cone, saturation = mon.weight_cone, mon.saturation()
    if not saturation.saturated:
        warnings.append("%s; straightening and flow verification are refused"
                        % NormalityRequired(saturation.witness.entries))
    points = ({name: scene.point(name) for name in sorted(scene.point_coords)}
              if scene.subgroups else {})
    for name in sorted(scene.subgroups):
        subgroup = scene.subgroups[name]
        grading = classify(cone, subgroup)
        classification[name] = dict(_grading_doc(cone, grading), subgroup=list(subgroup.entries))
        if not grading.effective:
            warnings.append("subgroup %s acts with degree gcd %d, not effectively"
                            % (name, grading.degree_gcd))
        if primitive(-subgroup) in cone.facet_normals:  # -l parabolic, l hyperbolic
            warnings.append("subgroup %s is hyperbolic for the t->0 "
                            "convention, but its negation is parabolic" % name)
        try:
            witness = witnesses.get(grading.ray_index) or witness_derivation(mon, grading)
        except (NormalityRequired, NotParabolic) as error:
            witness, refusal = None, {"verdict": "refused", "reason": error.verdict,
                                      "detail": str(error)}
        else:
            witnesses[grading.ray_index] = witness
            witness_lnd[name] = _lnd_doc(witness[0])
        for pname, point in points.items():
            entry = {"subgroup_name": name, "point_name": pname}
            entry.update(refusal if witness is None else _verification_doc(
                verify_compatible(mon, subgroup, point, witness=witness)))
            for fact in entry.pop("derived_facts", ()):
                facts.setdefault(fact["fact"], fact)
            verification.append(entry)
    # The roots scan runs after the loop, so that a witness search that
    # trips the root step cap is the error reported, not the wider scan.
    return {
        "classification": classification,
        "straightening": _straightening_doc(mon) if saturation.saturated else None,
        "roots": {"box": args.box, **_roots_doc(scene, args.box)},
        "witness_lnd": witness_lnd,
        "verification": verification,
        "warnings": warnings,
        "derived_facts": list(facts.values()),
    }


_L = ("--l", {"required": True,
              "help": "subgroup name from the scene, or comma separated ints (--l=-1,0)"})
_POINT = ("--point", {"required": True, "help": "point name from the scene"})
_ROOT = ("--root", {"required": True, "help": "root vector, comma separated (--root=-1,1)"})
_BOX = ("--box", {"type": integer, "default": DEFAULT_ROOT_BOX,
                  "help": "root scan box, |e_i| <= box (default %d)"
                  % DEFAULT_ROOT_BOX})

# subcommand: (handler, help, options), in the order --help lists them
COMMANDS = {
    "dual": (cmd_dual, "cone and its dual in double description", ()),
    "facets": (cmd_facets, "facets of the primary cone", ()),
    "hilbert": (cmd_hilbert, "Hilbert basis of the weight cone", ()),
    "saturation": (cmd_saturation, "saturation check with witness", ()),
    "classify": (cmd_classify, "grading class of a subgroup vector", (_L,)),
    "straightening": (cmd_straightening,
                      "parabolic subtori and their fixed divisors", ()),
    "roots": (cmd_roots, "Demazure roots inside a coordinate box", (
        _BOX, ("--ray", {"type": integer, "default": None,
                         "help": "only roots distinguished at this ray index"}))),
    "lnd": (cmd_lnd, "derivation attached to a Demazure root", (_ROOT,)),
    "flow": (cmd_flow, "flow a named point for time s", (
        _POINT, _ROOT,
        ("--s", {"required": True, "help": "flow time, rational like --s=-1/3 or --s=2"}))),
    "limit": (cmd_limit, "limit of a point under a subgroup, if any",
              (_POINT, _L)),
    "verify": (cmd_verify, "full compatibility certificate for one pair", (
        _POINT, _L,
        ("--ts", {"default": None,
                  "help": "torus samples, comma separated rationals (--ts=-1,1/2)"}),
        ("--ss", {"default": None,
                  "help": "flow samples, comma separated rationals (--ss=-1/3,2)"}))),
    "report": (cmd_report, "one document with every section", (_BOX,)),
}

EXIT_CODES = ((SceneError, 2), (HypothesisError, 3), (ResourceError, 4))

# options before the subcommand
OPTIONS = (
    ("--scene", {"default": "-", "help": "scene JSON path, - for stdin (default)"}),
    ("--format", {"choices": ("json", "text"), "default": "json",
                  "help": "output format (default json)"}),
)


def build_parser():
    """The argument parser, built from OPTIONS and COMMANDS for the calls
    that _exact_args leaves to it (see main)."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="toricflow",
        description="additive group actions on affine toric varieties, exactly")
    for flag, spec in OPTIONS:
        parser.add_argument(flag, **spec)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, spec in options:
            command.add_argument(flag, **spec)
    return parser


def _exact_args(argv):
    """The arguments build_parser() would read from argv, read from the same
    option tables with no parser, or None.  A namespace comes back only when
    every option is spelled in full and given once, its value joined by "="
    or the next argument not starting with "-", and passes its type, choices
    and required checks; help, abbreviations and anything argparse would
    refuse get None, so that argparse handles them."""
    given, table, command = {}, dict(OPTIONS), None
    args = iter(argv)
    for arg in args:
        flag, joined, value = arg.partition("=")
        if flag not in table:
            if command is not None or arg not in COMMANDS:
                return None
            command, table = arg, dict(COMMANDS[arg][2])
            continue
        if not joined:
            value = next(args, "-")  # a missing value is refused as "-" is
            if value.startswith("-"):
                return None
        spec = table[flag]
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if flag in given or value not in spec.get("choices", (value,)):
            return None
        given[flag] = value
    if command is None:
        return None
    values = {"command": command}
    for flag, spec in OPTIONS + COMMANDS[command][2]:
        if flag not in given and spec.get("required"):
            return None
        values[flag[2:]] = given.get(flag, spec.get("default"))
    return SimpleNamespace(**values)


def _read_scene(args):
    try:
        if args.scene == "-":
            text = sys.stdin.read()
            text.encode("utf-8")  # stdin decodes bad bytes to lone surrogates
        else:
            with open(args.scene, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as error:
        raise SceneError("cannot read scene file %s: %s" % (args.scene, error))
    except UnicodeError as error:
        raise SceneError("scene is not UTF-8: %s" % error)
    return load_scene(text)


def _document(args):
    """The header, then the body the command's handler returns; the fixed
    bytes of `report` have no "command" key.  The scene is dropped on
    return, before the document is rendered."""
    scene = _read_scene(args)
    body = COMMANDS[args.command][0](scene, args)
    if args.command == "report":
        return {"scene_digest": scene.digest, **body}
    return {"command": args.command, "scene_digest": scene.digest, **body}


def _output(args):
    """One request's output, rendered in full before any of it is printed."""
    try:
        payload = _document(args)
        if args.format == "json":
            return _dumps(payload) + "\n"
        return render_text(payload)
    except ValueError as error:
        if "integer string conversion" not in str(error):
            raise
        raise BoundExceeded(
            "an exact output value has over %d digits, the int->str digit "
            "limit; set PYTHONINTMAXSTRDIGITS=0 to lift it"
            % sys.get_int_max_str_digits())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _exact_args(argv) or build_parser().parse_args(argv)
    try:
        text = _output(args)
    except ToricError as error:
        print("error: %s: %s" % (type(error).__name__, error), file=sys.stderr)
        return next(code for family, code in EXIT_CODES
                    if isinstance(error, family))
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
