"""Benchmark of the toricflow command line tool.

    python3 bench/run.py --workload flow-thin --seed 1 --seconds 30 --trace 0

Runs one workload in this process through toricflow.cli.main, imported from
the checkout's src/ directory: one untimed round whose outputs are checked,
then whole timed rounds until --seconds have passed.  Every request reads
its scene from a file, as the command line does, so nothing the program
builds carries over between requests.  Each request runs between two
timings of a fixed pure-Python yardstick, and its time is reported as a
multiple of their mean (unit xref), which cancels slow phases of a shared
machine.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's
layers (tracing.py) and prints the per-layer metrics instead.  Reference
figures go to stderr; the last line of stdout is the result object.
"""

import argparse
import gc
import hashlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# Set-up is timed this many times, spread over the run so that one slow
# phase of the machine cannot move the median.
SETUP_RUNS = 30
YARDSTICK_STEPS = 800
# setup_s is given in seconds of a reference machine on which one
# yardstick takes this long.  Raw set-up seconds on a shared machine swing
# by half between batches a few seconds apart; scaled by the yardstick
# timed in the same child right after, they move by a few percent.
YARDSTICK_REFERENCE_S = 0.005

# The child times the import and the scene loads, then the yardstick, which
# needs nothing that toricflow has not imported by then.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import toricflow.cli
from toricflow.scene import load_scene
for path in sys.argv[2:]:
    with open(path) as handle:
        load_scene(handle.read())
middle = time.perf_counter()
from fractions import Fraction
YARDSTICK_STEPS = %d
%s
yardstick()
print(middle - start, time.perf_counter() - middle)
"""


def yardstick():
    """Fixed work of the kind the program does, in the standard library
    only: integer tuples, dot products, dict stores and Fraction sums."""
    total = 0
    acc = Fraction(0)
    seen = {}
    for i in range(1, YARDSTICK_STEPS):
        v = (i % 7 - 3, i % 5 - 2, i % 3 - 1)
        w = tuple(a * i + b for a, b in zip(v, (1, 2, 3)))
        total += sum(a * b for a, b in zip(v, w))
        seen[w] = total
        acc += Fraction(total % 89 + 1, i % 13 + 2)
    return acc, len(seen)


def load_cli():
    """toricflow.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "toricflow" / "cli.py").is_file():
        sys.exit("error: %s/toricflow not found; run from a toricflow checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import toricflow.cli
    if Path(toricflow.cli.__file__).resolve().parent != SRC / "toricflow":
        sys.exit("error: imported toricflow from %s" % toricflow.cli.__file__)
    return toricflow.cli


def write_scenes(requests, directory):
    paths = {}
    for request in requests:
        scene = request.scene
        if scene.name not in paths:
            path = Path(directory) / (scene.name + ".json")
            path.write_text(scene.text())
            paths[scene.name] = str(path)
    return paths


def time_setup(paths, pycache):
    """Seconds a fresh interpreter takes to import toricflow.cli and load
    the workload's scenes, and seconds of the yardstick run after that.

    The child keeps its bytecode in `pycache`, which the first call fills.
    Set-up is then timed with a warm bytecode cache whether or not the
    checkout has __pycache__ directories or the environment forbids
    writing them; without that, it doubles when the cache is missing."""
    child = SETUP_CHILD % (YARDSTICK_STEPS, inspect.getsource(yardstick))
    argv = ([sys.executable, "-X", "pycache_prefix=" + pycache, "-c", child, str(SRC)]
            + sorted(paths.values()))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True,
                          env=env)
    return tuple(map(float, done.stdout.split()))


def time_yardstick():
    gc.collect()
    start = perf_counter()
    yardstick()
    return perf_counter() - start


class Sample:
    __slots__ = ("seconds", "yard", "code", "output", "digest", "totals", "peak_mib")


def run_request(main, argv, tracer, keep_output):
    sample = Sample()
    out, err = StringIO(), StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            sample.code = main(argv)
    except SystemExit as stop:
        sample.code = stop.code
    except Exception as error:
        sample.code = "%s: %s" % (type(error).__name__, error)
    sample.seconds = perf_counter() - start
    # Timed rounds keep only a digest, so that memory does not grow with
    # the number of rounds.
    sample.digest = hashlib.sha256(out.getvalue().encode()).digest()
    sample.output = out.getvalue() if keep_output else None
    sample.totals = None
    if tracer is not None:
        sample.totals = tracer.snapshot()
        tracer.reset()
    return sample


def run_reference(main, argvs, tracer, measure_memory):
    """The untimed round whose outputs are checked.  With measure_memory
    it runs under tracemalloc, about ten times slower, and each sample's
    peak_mib is the most memory the request held at once beyond what the
    process held before it."""
    if measure_memory:
        tracemalloc.start()
    samples = []
    for argv in argvs:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sample = run_request(main, argv, tracer, keep_output=True)
        sample.peak_mib = (tracemalloc.get_traced_memory()[1] - before) / 2**20
        samples.append(sample)
    tracemalloc.stop()
    return samples


def run_round(main, argvs, tracer):
    """One pass over the requests.  Each request runs between two yardstick
    timings and is measured against their mean, which also cancels a
    machine that speeds up or slows down steadily."""
    samples = []
    before = time_yardstick()
    for argv in argvs:
        sample = run_request(main, argv, tracer, keep_output=False)
        after = time_yardstick()
        sample.yard = (before + after) / 2
        samples.append(sample)
        before = after
    return samples


def check_outputs(requests, reference, rounds):
    """Problems with the outputs, and the count of failed timed requests.

    The untimed reference round is checked against the scenes'
    construction; every timed round must repeat its bytes exactly."""
    problems = []
    failed = 0
    for i, (request, first) in enumerate(zip(requests, reference)):
        failed += sum(samples[i].code != 0 for samples in rounds)
        if first.code != 0:
            problems.append("%s exited %r" % (request.label, first.code))
            continue
        problems += ["%s: %s" % (request.label, p) for p in checks.check(request, first.output)]
        for samples in rounds:
            if samples[i].code == 0 and samples[i].digest != first.digest:
                problems.append("%s: output bytes changed between rounds" % request.label)
    return problems, failed


def run_workload(workload, seed, seconds, trace, measure_costs=True, log=sys.stderr):
    """Run one workload; return the result object.  Set-up time and peak
    memory are measured only with measure_costs and without trace."""
    cli = load_cli()
    requests = workloads.build(workload, seed)
    tracer = None
    main = cli.main
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        main = tracer.wrap(tracing.ROOT_SPAN, cli.main)
        measure_costs = False
    expected_yard = yardstick()
    OUT.mkdir(exist_ok=True)
    setup = []
    with tempfile.TemporaryDirectory(dir=OUT) as directory:
        paths = write_scenes(requests, directory)
        argvs = [r.argv(paths[r.scene.name]) for r in requests]
        pycache = str(Path(directory) / "pycache")
        if measure_costs:
            time_setup(paths, pycache)  # fills the bytecode cache; not counted

        reference = run_reference(main, argvs, tracer, measure_costs)
        rounds = []
        start = perf_counter()
        while not rounds or perf_counter() - start < seconds:
            rounds.append(run_round(main, argvs, tracer))
            if measure_costs and len(setup) < SETUP_RUNS * (perf_counter() - start) / seconds:
                setup.append(time_setup(paths, pycache))
        while measure_costs and len(setup) < SETUP_RUNS:
            setup.append(time_setup(paths, pycache))

    problems, failed = check_outputs(requests, reference, rounds)
    if yardstick() != expected_yard:
        problems.append("the yardstick's result changed")

    ratios = [[r[i].seconds / r[i].yard for r in rounds] for i in range(len(requests))]
    pooled = sorted(x for column in ratios for x in column)
    pass_xref = sum(statistics.median(column) for column in ratios)
    pass_s = sum(statistics.median(r[i].seconds for r in rounds) for i in range(len(requests)))
    print("workload %s seed %d: %d rounds of %d requests, yardstick %.3f ms (median)"
          % (workload, seed, len(rounds), len(requests),
             1000 * statistics.median(s.yard for r in rounds for s in r)), file=log)
    for i, (request, column) in enumerate(zip(requests, ratios)):
        ms = statistics.median(r[i].seconds for r in rounds) * 1000
        print("  %-40s n=%d median %.2f xref %.2f ms, max %.2f xref%s"
              % (request.label, len(column), statistics.median(column), ms, max(column),
                 ", peak %.3f MiB" % reference[i].peak_mib if measure_costs else ""),
              file=log)
    print("  pass %.3f xref (%.4f s); request p50 %.3f xref%s"
          % (pass_xref, pass_s, statistics.median(pooled),
             "; p90 %.3f xref over %d samples" % (pooled[int(0.9 * len(pooled))], len(pooled))
             if len(pooled) >= 100 else ""), file=log)
    for p in problems[:20]:
        print("  PROBLEM " + p, file=log)

    if trace:
        metrics = layer_metrics(rounds, problems)
        write_spans(workload, requests, rounds[-1])
    else:
        metrics = {
            "pass_xref": {"value": pass_xref, "unit": "xref"},
            "request_xref.p50": {"value": statistics.median(pooled), "unit": "xref"},
        }
        if measure_costs:
            metrics["peak_alloc_mib"] = {"value": max(s.peak_mib for s in reference),
                                         "unit": "MiB"}
            scaled = [YARDSTICK_REFERENCE_S * seconds / yard for seconds, yard in setup]
            metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
            raw = [seconds for seconds, _ in setup]
            for label, values in (("scaled", scaled), ("as timed", raw)):
                print("  setup %s: median %.4f s, quartiles %s"
                      % (label, statistics.median(values),
                         ", ".join("%.4f" % q for q in statistics.quantiles(values, n=4))),
                      file=log)
    return {"correct": not problems, "attempted": len(rounds) * len(requests),
            "failed": failed, "metrics": metrics}


def layer_metrics(rounds, problems):
    """Per-layer metrics: times are medians over rounds of a pass's total;
    counts must repeat exactly in every round."""
    per_round = [tracing.pass_totals([s.totals for s in samples]) for samples in rounds]
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        values = [totals[name] for totals in per_round]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append("count %s differs between rounds: %s" % (name, values))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_spans(workload, requests, samples):
    """Per-request span totals of the last traced round, for inspection."""
    doc = [{"request": r.label, "seconds": s.seconds, "spans": s.totals}
           for r, s in zip(requests, samples)]
    (OUT / ("trace-%s.json" % workload)).write_text(json.dumps(doc, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
