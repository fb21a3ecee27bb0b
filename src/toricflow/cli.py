"""Command line front end.

Every subcommand reads one scene (file or stdin), prints one document to
stdout, and exits 0.  Failures map to exit codes by error family:

    2  malformed scene or arguments
    3  hypothesis violated (not pointed, not saturated, not parabolic, ...)
    4  resource bound hit (rank limit, enumeration cap)
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (HypothesisError, NormalityRequired, NotADemazureRoot,
                     NotParabolic, ResourceError, SceneError)
from .lattice import LatticeVector
from .monoid import hilbert_basis
from .grading import GradingKind, classify, straightening_subtori
from .demazure import is_root, roots_in_box
from .algebra import AlgebraElement, HomogeneousLND
from .orbits import (ga_flow_point, limit_point, smallest_root_at_ray,
                     verify_compatible)
from .report import Report, render_text
from .scene import load_scene

DEFAULT_ROOT_BOX = 5


def _dumps(value, indent=0):
    """json.dumps with scalar-only lists kept on one line."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = ["%s%s: %s" % (inner, json.dumps(key), _dumps(item, indent + 1))
                 for key, item in value.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(not isinstance(item, (dict, list)) for item in value):
            return "[" + ", ".join(json.dumps(item) for item in value) + "]"
        parts = [inner + _dumps(item, indent + 1) for item in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return json.dumps(value)


def _vec(v):
    if isinstance(v, LatticeVector):
        return list(v.entries)
    return list(v)


def _frac(x):
    return str(Fraction(x))


def _fracs(values):
    return [_frac(x) for x in values]


def _element_doc(element):
    doc = {}
    for exponent, coeff in element.terms:
        doc[",".join(str(a) for a in exponent.entries)] = _frac(coeff)
    return doc


def _cone_doc(cone):
    return {
        "side": cone.side,
        "rank": cone.rank,
        "rays": [_vec(r) for r in cone.rays],
        "facet_normals": [_vec(n) for n in cone.facet_normals],
    }


def _grading_doc(mon, grading):
    doc = {
        "kind": grading.kind.value,
        "degree_gcd": grading.degree_gcd,
        "effective": grading.effective,
        "zero_face_dim": None if grading.zero_face is None else grading.zero_face.dim,
        "zero_face_rays": None if grading.zero_face is None
        else [_vec(r) for r in grading.zero_face.rays],
        "ray_index": grading.ray_index,
    }
    if grading.ray_index is not None:
        doc["ray"] = _vec(mon.dual_cone.rays[grading.ray_index])
    return doc


def _point_doc(point):
    return {"coords": _fracs(point.coords), "provenance": point.provenance[0]}


def _root_doc(root):
    return {"vector": _vec(root.vector), "ray_index": root.ray_index}


def _lnd_doc(lnd):
    mon = lnd.monoid
    action = []
    for gen in mon.generators:
        image = lnd.apply(AlgebraElement.monomial(mon, gen))
        action.append({
            "generator": _vec(gen),
            "degree": lnd.degree(gen),
            "image": _element_doc(image),
        })
    return {
        "root": _root_doc(lnd.root),
        "ray": _vec(lnd.ray),
        "kernel_rank": lnd.kernel_rank(),
        "action": action,
    }


def _invariant_doc(check):
    return {
        "exponent": _vec(check.exponent),
        "base_value": _frac(check.base_value),
        "gm_values": _fracs(check.gm_values),
        "ga_values": _fracs(check.ga_values),
        "constant": check.constant,
        "annihilated": check.annihilated,
    }


def _verification_doc(rep):
    return {
        "verdict": "pass" if rep.passed else "fail",
        "subgroup": _vec(rep.subgroup),
        "point": _point_doc(rep.point),
        "kind": rep.grading.kind.value,
        "ray_index": rep.ray_index,
        "ray": _vec(rep.ray),
        "root": _root_doc(rep.root),
        "root_box": rep.root_box,
        "gm_samples": _fracs(rep.gm_samples),
        "ga_samples": _fracs(rep.ga_samples),
        "invariants": [_invariant_doc(c) for c in rep.invariant_checks],
        "limit": None if rep.limit is None else {"coords": _fracs(rep.limit.coords)},
        "flow_parameter": _frac(rep.flow_parameter),
        "reached_exactly": rep.reached_exactly,
        "notes": list(rep.notes),
        "derived_facts": [dict(f) for f in rep.derived_facts],
    }


def _parse_int_csv(text, what):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SceneError("%s must be a comma separated integer list, got %r"
                         % (what, text))


def _parse_fraction(text, what):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SceneError("%s must be a rational like 7/3, got %r" % (what, text))


def _parse_fraction_csv(text, what):
    return tuple(_parse_fraction(part, what) for part in text.split(","))


def cmd_dual(scene, args):
    cone = scene.primary_cone()
    return {
        "command": "dual",
        "scene_digest": scene.digest,
        "cone": _cone_doc(cone),
        "dual": _cone_doc(cone.dual()),
    }


def cmd_facets(scene, args):
    cone = scene.primary_cone()
    facets = []
    for index, face in enumerate(cone.facets()):
        facets.append({
            "normal_index": index,
            "normal": _vec(cone.facet_normals[index]),
            "rays": [_vec(r) for r in face.rays],
            "dim": face.dim,
        })
    return {
        "command": "facets",
        "scene_digest": scene.digest,
        "cone": _cone_doc(cone),
        "facets": facets,
    }


def cmd_hilbert(scene, args):
    cone = scene.weight_cone()
    basis = hilbert_basis(cone)
    return {
        "command": "hilbert",
        "scene_digest": scene.digest,
        "weight_cone": _cone_doc(cone),
        "hilbert_basis": [_vec(u) for u in basis],
    }


def cmd_saturation(scene, args):
    result = scene.monoid().saturation()
    return {
        "command": "saturation",
        "scene_digest": scene.digest,
        "saturated": result.saturated,
        "witness": None if result.witness is None else _vec(result.witness),
    }


def cmd_classify(scene, args):
    subgroup = scene.subgroup_vector(args.l)
    mon = scene.monoid()
    grading = classify(mon, subgroup)
    return {
        "command": "classify",
        "scene_digest": scene.digest,
        "subgroup": _vec(subgroup),
        "classification": _grading_doc(mon, grading),
    }


def cmd_straightening(scene, args):
    mon = scene.monoid()
    result = straightening_subtori(mon)
    return {
        "command": "straightening",
        "scene_digest": scene.digest,
        "generators": [_vec(u) for u in mon.generators],
        "subtori": _straightening_doc(mon, result),
    }


def _straightening_doc(mon, result):
    facets = mon.weight_cone.facets()
    entries = []
    for subtorus, divisor in zip(result.subtori, result.divisors):
        entries.append({
            "ray_index": divisor.ray_index,
            "subgroup": _vec(subtorus),
            "facet_rays": [_vec(r) for r in facets[divisor.ray_index].rays],
            "vanishing_coordinates": list(divisor.vanishing),
            "surviving_coordinates": list(divisor.surviving),
        })
    return entries


def _by_ray_doc(sigma, roots, indices):
    return [{"ray_index": index, "ray": _vec(sigma.rays[index]),
             "count": sum(1 for r in roots if r.ray_index == index)}
            for index in indices]


def _check_box(box):
    if box < 0:
        raise SceneError("--box must be nonnegative, got %d" % box)


def cmd_roots(scene, args):
    _check_box(args.box)
    sigma = scene.sigma()
    ray_index = args.ray
    if ray_index is not None and not 0 <= ray_index < len(sigma.rays):
        raise SceneError("ray index %d out of range, cone has %d rays"
                         % (ray_index, len(sigma.rays)))
    roots = roots_in_box(sigma, args.box, ray_index=ray_index)
    indices = range(len(sigma.rays)) if ray_index is None else [ray_index]
    return {
        "command": "roots",
        "scene_digest": scene.digest,
        "box": args.box,
        "ray_filter": ray_index,
        "count": len(roots),
        "by_ray": _by_ray_doc(sigma, roots, indices),
        "roots": [_root_doc(r) for r in roots],
    }


def _lnd_from_arg(scene, text):
    mon = scene.monoid()
    entries = _parse_int_csv(text, "--root")
    if len(entries) != scene.rank:
        raise SceneError("--root must have %d entries, got %r"
                         % (scene.rank, text))
    root = is_root(mon.dual_cone, LatticeVector.m(entries))
    if root is None:
        raise NotADemazureRoot("%r pairs wrongly against the dual cone rays"
                               % (entries,))
    return HomogeneousLND(mon, root)


def cmd_lnd(scene, args):
    lnd = _lnd_from_arg(scene, args.root)
    return {
        "command": "lnd",
        "scene_digest": scene.digest,
        "lnd": _lnd_doc(lnd),
    }


def cmd_flow(scene, args):
    lnd = _lnd_from_arg(scene, args.root)
    point = scene.point(args.point)
    s = _parse_fraction(args.s, "--s")
    image = ga_flow_point(lnd, s, point)
    return {
        "command": "flow",
        "scene_digest": scene.digest,
        "point": _point_doc(point),
        "root": _root_doc(lnd.root),
        "s": _frac(s),
        "image": _point_doc(image),
    }


def cmd_limit(scene, args):
    mon = scene.monoid()
    point = scene.point(args.point)
    subgroup = scene.subgroup_vector(args.l)
    limit = limit_point(mon, subgroup, point)
    return {
        "command": "limit",
        "scene_digest": scene.digest,
        "point": _point_doc(point),
        "subgroup": _vec(subgroup),
        "exists": limit is not None,
        "limit": None if limit is None else {"coords": _fracs(limit.coords)},
    }


def cmd_verify(scene, args):
    mon = scene.monoid()
    point = scene.point(args.point)
    subgroup = scene.subgroup_vector(args.l)
    kwargs = {}
    if args.ts is not None:
        kwargs["gm_samples"] = _parse_fraction_csv(args.ts, "--ts")
        if 0 in kwargs["gm_samples"]:
            raise SceneError("--ts samples must be nonzero, got %r" % args.ts)
    if args.ss is not None:
        kwargs["ga_samples"] = _parse_fraction_csv(args.ss, "--ss")
    rep = verify_compatible(mon, subgroup, point, **kwargs)
    doc = _verification_doc(rep)
    doc["point_name"] = args.point
    return {"command": "verify", "scene_digest": scene.digest, **doc}


def _classification_section(scene, warnings):
    section = {}
    mon = scene.monoid()
    for name in sorted(scene.subgroups):
        subgroup = scene.subgroups[name]
        grading = classify(mon, subgroup)
        section[name] = _grading_doc(mon, grading)
        section[name]["subgroup"] = _vec(subgroup)
        if not grading.effective:
            warnings.append("subgroup %s acts with degree gcd %d, not effectively"
                            % (name, grading.degree_gcd))
        if grading.kind is GradingKind.HYPERBOLIC:
            flipped = classify(mon, -subgroup)
            if flipped.kind is GradingKind.PARABOLIC:
                warnings.append("subgroup %s is hyperbolic for the t->0 "
                                "convention, but its negation is parabolic"
                                % name)
    return section


def _witness_section(scene, classification):
    section = {}
    mon = scene.monoid()
    for name in sorted(scene.subgroups):
        if classification[name]["kind"] != GradingKind.PARABOLIC.value:
            continue
        ray_index = classification[name]["ray_index"]
        root, _ = smallest_root_at_ray(mon.dual_cone, ray_index)
        section[name] = _lnd_doc(HomogeneousLND(mon, root))
    return section


def _verification_section(scene):
    entries = []
    facts = []
    seen_facts = set()
    for sname in sorted(scene.subgroups):
        for pname in sorted(scene.point_coords):
            entry = {"subgroup_name": sname, "point_name": pname}
            try:
                rep = verify_compatible(scene.monoid(), scene.subgroups[sname],
                                        scene.point(pname))
            except NormalityRequired as error:
                entry["verdict"] = "refused"
                entry["reason"] = "NormalityRequired"
                entry["detail"] = str(error)
            except NotParabolic as error:
                entry["verdict"] = "refused"
                entry["reason"] = error.verdict
                entry["detail"] = str(error)
            else:
                entry.update(_verification_doc(rep))
                for fact in entry.pop("derived_facts"):
                    if fact["fact"] not in seen_facts:
                        seen_facts.add(fact["fact"])
                        facts.append(fact)
            entries.append(entry)
    return entries, facts


def cmd_report(scene, args):
    _check_box(args.box)
    warnings = []
    mon = scene.monoid()
    saturation = mon.saturation()
    if not saturation.saturated:
        warnings.append("monoid is not saturated, witness %s; straightening "
                        "and flow verification are refused"
                        % (_vec(saturation.witness),))
    classification = _classification_section(scene, warnings)
    if saturation.saturated:
        straightening = _straightening_doc(mon, straightening_subtori(mon))
        witness_lnd = _witness_section(scene, classification)
    else:
        straightening = None
        witness_lnd = {}
    sigma = scene.sigma()
    roots = roots_in_box(sigma, args.box)
    roots_section = {
        "box": args.box,
        "count": len(roots),
        "by_ray": _by_ray_doc(sigma, roots, range(len(sigma.rays))),
        "roots": [_root_doc(r) for r in roots],
    }
    verification, facts = _verification_section(scene)
    report = Report(
        scene_digest=scene.digest,
        classification=classification,
        straightening=straightening,
        roots=roots_section,
        witness_lnd=witness_lnd,
        verification=verification,
        warnings=warnings,
        derived_facts=facts,
    )
    return report.to_dict()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricflow",
        description="additive group actions on affine toric varieties, exactly")
    parser.add_argument("--scene", default="-",
                        help="scene JSON path, - for stdin (default)")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="cone and its dual in double description")
    p.set_defaults(handler=cmd_dual)

    p = sub.add_parser("facets", help="facets of the primary cone")
    p.set_defaults(handler=cmd_facets)

    p = sub.add_parser("hilbert", help="Hilbert basis of the weight cone")
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("saturation", help="saturation check with witness")
    p.set_defaults(handler=cmd_saturation)

    p = sub.add_parser("classify", help="grading class of a subgroup vector")
    p.add_argument("--l", required=True,
                   help="subgroup name from the scene, or comma separated ints")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("straightening",
                       help="parabolic subtori and their fixed divisors")
    p.set_defaults(handler=cmd_straightening)

    p = sub.add_parser("roots", help="Demazure roots inside a coordinate box")
    p.add_argument("--box", type=int, default=DEFAULT_ROOT_BOX,
                   help="scan |e_i| <= box (default %d)" % DEFAULT_ROOT_BOX)
    p.add_argument("--ray", type=int, default=None,
                   help="only roots distinguished at this ray index")
    p.set_defaults(handler=cmd_roots)

    p = sub.add_parser("lnd", help="derivation attached to a Demazure root")
    p.add_argument("--root", required=True, help="root vector, comma separated")
    p.set_defaults(handler=cmd_lnd)

    p = sub.add_parser("flow", help="flow a named point for time s")
    p.add_argument("--point", required=True, help="point name from the scene")
    p.add_argument("--root", required=True, help="root vector, comma separated")
    p.add_argument("--s", required=True, help="flow time, rational like -2 or 7/3")
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("limit", help="limit of a point under a subgroup, if any")
    p.add_argument("--point", required=True, help="point name from the scene")
    p.add_argument("--l", required=True,
                   help="subgroup name from the scene, or comma separated ints")
    p.set_defaults(handler=cmd_limit)

    p = sub.add_parser("verify",
                       help="full compatibility certificate for one pair")
    p.add_argument("--point", required=True, help="point name from the scene")
    p.add_argument("--l", required=True,
                   help="subgroup name from the scene, or comma separated ints")
    p.add_argument("--ts", default=None,
                   help="torus samples, comma separated rationals")
    p.add_argument("--ss", default=None,
                   help="flow samples, comma separated rationals")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("report", help="one document with every section")
    p.add_argument("--box", type=int, default=DEFAULT_ROOT_BOX,
                   help="box for the root scan section (default %d)"
                   % DEFAULT_ROOT_BOX)
    p.set_defaults(handler=cmd_report)

    return parser


def _read_scene(args):
    if args.scene == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.scene)
        try:
            text = path.read_text()
        except OSError as error:
            raise SceneError("cannot read scene file %s: %s" % (path, error))
    return load_scene(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scene = _read_scene(args)
        payload = args.handler(scene, args)
    except SceneError as error:
        print("error: %s: %s" % (type(error).__name__, error), file=sys.stderr)
        return 2
    except ResourceError as error:
        print("error: %s: %s" % (type(error).__name__, error), file=sys.stderr)
        return 4
    except HypothesisError as error:
        print("error: %s: %s" % (type(error).__name__, error), file=sys.stderr)
        return 3
    if args.format == "json":
        sys.stdout.write(_dumps(payload) + "\n")
    else:
        sys.stdout.write(render_text(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
