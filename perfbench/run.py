#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

    python3 perfbench/run.py --workload wisc_scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds perfbench/main.exe with dune
inside the checkout (shared dune cache off, so nothing is written outside
it), runs it, and passes its standard output through. The last line is the
JSON result; the exit code is not 0 if the build fails, the run fails or
times out, or the result line is malformed.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main(argv):
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        run = subprocess.run([EXE] + argv, stdout=subprocess.PIPE,
                             stderr=sys.stderr, env=env,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print("perfbench: run failed", file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(run.stdout)
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
