"""Layer spans for the traced benchmark run, added from outside the program.

Each layer entry point is replaced by a wrapper in every toricflow module
that binds it (roots_in_box, for one, is bound in demazure, orbits and
cli); methods are replaced on their class.  A wrapper records its call, its
self time (duration minus the time of the spans it caused) and any count
computed from its arguments or result.  Everything stays in memory: one
dict of totals per request, read out when the run ends.
"""

import sys
from collections import Counter
from time import perf_counter


def _zonotope_box(cone):
    """Bounding-box size of the zonotope of the cone's rays: the candidate
    count of the Hilbert basis scan, computed from the argument."""
    rays = [r.entries for r in cone.rays]
    size = 1
    for j in range(cone.rank):
        size *= (sum(max(0, r[j]) for r in rays) - sum(min(0, r[j]) for r in rays) + 1)
    return size


def _count_from_rays(counts, args, result):
    counts["cones.fm_generators"] += len(args[1])


def _count_hilbert(counts, args, result):
    counts["monoid.hilbert_box_points"] += _zonotope_box(args[0])
    counts["monoid.hilbert_basis.size"] += len(result)


def _count_roots(counts, args, result):
    sigma, bound = args[0], args[1]
    counts["demazure.box_points"] += (2 * bound + 1) ** sigma.rank
    counts["demazure.roots_found"] += len(result)


def _count_smallest_root(counts, args, result):
    counts["orbits.root_box_max"] = max(counts["orbits.root_box_max"], result[1])


def _count_flow(counts, args, result):
    counts["algebra.flow_terms"] += len(result.terms)


# (span name, module, class or None, attribute, counter or None)
LAYERS = [
    ("cones.from_rays", "cones", "Cone", "from_rays", _count_from_rays),
    ("lattice.integer_kernel", "lattice", None, "integer_kernel", None),
    ("lattice.matrix_rank", "lattice", None, "matrix_rank", None),
    ("monoid.hilbert_basis", "monoid", None, "hilbert_basis", _count_hilbert),
    ("monoid.init", "monoid", "AffineMonoid", "__init__", None),
    ("monoid.decompose", "monoid", "AffineMonoid", "decompose", None),
    ("monoid.saturation", "monoid", "AffineMonoid", "saturation", None),
    ("grading.classify", "grading", None, "classify", None),
    ("grading.straightening", "grading", None, "straightening_subtori", None),
    ("demazure.is_root", "demazure", None, "is_root", None),
    ("demazure.roots_in_box", "demazure", None, "roots_in_box", _count_roots),
    ("algebra.element_init", "algebra", "AlgebraElement", "__init__", None),
    ("algebra.lnd_init", "algebra", "HomogeneousLND", "__init__", None),
    ("algebra.apply", "algebra", "HomogeneousLND", "apply", None),
    ("algebra.exp_flow", "algebra", "HomogeneousLND", "exp_flow", _count_flow),
    ("orbits.evaluate", "orbits", None, "evaluate", None),
    ("orbits.ga_flow_point", "orbits", None, "ga_flow_point", None),
    ("orbits.smallest_root_at_ray", "orbits", None, "smallest_root_at_ray",
     _count_smallest_root),
    ("orbits.verify_compatible", "orbits", None, "verify_compatible", None),
    ("scene.load_scene", "scene", None, "load_scene", None),
    ("report.render_text", "report", None, "render_text", None),
]

ROOT_SPAN = "cli"


class Tracer:
    """Span totals of the request in flight: self time and calls per span
    name, plus computed counts."""

    def __init__(self):
        self._open = []
        self.reset()

    def reset(self):
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()

    def wrap(self, name, fn, counter=None):
        def span(*args, **kwargs):
            child = [0.0]
            self._open.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += elapsed
                self.self_time[name] += elapsed - child[0]
                self.calls[name] += 1
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return span

    def install(self):
        """Wrap every layer entry point wherever a toricflow module binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "toricflow" or n.startswith("toricflow.")]
        for name, module, owner, attr, counter in LAYERS:
            home = sys.modules["toricflow." + module]
            if owner is None:
                original = getattr(home, attr)
                wrapped = self.wrap(name, original, counter)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
            else:
                cls = getattr(home, owner)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, counter)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, counter))

    def snapshot(self):
        """Totals of the request just finished, as plain numbers."""
        out = {name + ".s": value for name, value in self.self_time.items()}
        out.update({name + ".calls": value for name, value in self.calls.items()})
        out.update(self.counts)
        return out


# Per-layer metrics as (name, unit).  ".s" metrics are medians over rounds
# of a pass's sum; the others are counts and must repeat exactly in every
# round.
PER_LAYER = [
    ("cones.from_rays.s", "s"), ("cones.from_rays.calls", "count"),
    ("cones.fm_generators", "count"),
    ("monoid.hilbert_basis.s", "s"), ("monoid.hilbert_box_points", "count"),
    ("monoid.hilbert_basis.size", "count"), ("monoid.init.s", "s"),
    ("monoid.saturation.s", "s"),
    ("monoid.decompose.s", "s"), ("monoid.decompose.calls", "count"),
    ("algebra.exp_flow.s", "s"), ("algebra.exp_flow.calls", "count"),
    ("algebra.apply.calls", "count"), ("algebra.elements_built", "count"),
    ("algebra.flow_terms", "count"), ("algebra.lnd_init.s", "s"),
    ("orbits.ga_flow_point.s", "s"), ("orbits.evaluate.s", "s"),
    ("demazure.roots_in_box.s", "s"), ("demazure.roots_in_box.calls", "count"),
    ("demazure.box_points", "count"), ("demazure.roots_found", "count"),
    ("demazure.roots_per_point", "ratio"), ("demazure.is_root.calls", "count"),
    ("orbits.smallest_root_at_ray.s", "s"),
    ("orbits.smallest_root_at_ray.calls", "count"), ("orbits.root_box_max", "count"),
    ("grading.classify.s", "s"), ("grading.classify.calls", "count"),
    ("grading.straightening.s", "s"), ("orbits.verify_compatible.s", "s"),
    ("orbits.verify_compatible.raised", "count"),
    ("lattice.integer_kernel.s", "s"), ("lattice.matrix_rank.calls", "count"),
    ("scene.load_scene.s", "s"), ("report.render_text.s", "s"),
    ("cli.self.s", "s"),
]


def pass_totals(request_totals):
    """One pass's layer totals from the totals of its requests."""
    total = Counter()
    box_max = 0
    for totals in request_totals:
        for key, value in totals.items():
            if key == "orbits.root_box_max":
                box_max = max(box_max, value)
            else:
                total[key] += value
    total["orbits.root_box_max"] = box_max
    total["algebra.elements_built"] = total["algebra.element_init.calls"]
    total["cli.self.s"] = total[ROOT_SPAN + ".s"]
    points = total["demazure.box_points"]
    total["demazure.roots_per_point"] = total["demazure.roots_found"] / points if points else 0.0
    return total
