"""Quick check of the benchmark: one timed round of every workload, with
every correctness check, in about ten seconds.

    python3 bench/quick.py

Prints one line per workload and exits 1 if any output is wrong or any
request failed.
"""

import sys
from io import StringIO

import run
import workloads


def main():
    ok = True
    for workload in sorted(workloads.WORKLOADS):
        log = StringIO()
        result = run.run_workload(workload, 1, 0, 0, measure_costs=False, log=log)
        good = result["correct"] and result["failed"] == 0
        ok = ok and good
        print("%-14s %s: %d requests, pass %.1f xref"
              % (workload, "ok" if good else "FAILED", result["attempted"],
                 result["metrics"]["pass_xref"]["value"]))
        if not good:
            sys.stderr.write(log.getvalue())
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
