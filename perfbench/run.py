#!/usr/bin/env python3
"""Audit-server benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 20 --trace 0

Builds bin/serverd.exe and the load generator (perfbench/gen.exe) from
source with dune, then runs one workload. The generator prints diagnostics to
stderr and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("point_lookup", "audited_writes")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "bin/serverd.ml", "lib/server/wire.ml", "perfbench/dune"):
        if not os.path.isfile(needed):
            sys.stderr.write(
                "run.py: %s not found; run from the root of a select_triggers checkout\n" % needed
            )
            return 2

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/serverd.exe", "./perfbench/gen.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode or 1

    gen = [
        "_build/default/perfbench/gen.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serverd", "_build/default/bin/serverd.exe",
        "--out", "perfbench/_out",
    ]
    proc = subprocess.Popen(gen)
    try:
        return proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        # The generator stops its serverd children on SIGTERM.
        proc.terminate()
        proc.wait()
        sys.stderr.write("run.py: generator exceeded its time limit\n")
        return 1
    except KeyboardInterrupt:
        proc.terminate()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
