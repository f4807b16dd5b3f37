#!/usr/bin/env python3
"""Build the serve daemon and the benchmark from source, then run one workload.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload stream-single --seed 7 --seconds 10 --trace 0

Every argument is forwarded to perfbench/bench.exe (see perfbench/README.md).
Build output goes to stderr; the benchmark's report, ending in one JSON line,
goes to stdout. The exit code is the benchmark's: non-zero when the build
fails or any correctness check fails.

The benchmark's own process is confined to one CPU, and bench.exe starts
each daemon on the other CPUs (see perfbench/README.md, "CPU placement").
Without taskset or a second CPU nothing is placed; the report's host line
shows which.
"""

import os
import shutil
import signal
import subprocess
import sys

TARGETS = ["./bin/rebalance.exe", "./perfbench/bench.exe"]


def main():
    needed = ["dune-project", "bin/rebalance.ml", "lib", "perfbench/dune"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        sys.stderr.write(
            "perfbench: run from the root of a rebalance checkout (missing: %s)\n"
            % ", ".join(missing)
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", "."] + TARGETS, stdout=sys.stderr, stderr=sys.stderr
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    bench = os.path.join("_build", "default", "perfbench", "bench.exe")
    exe = os.path.join("_build", "default", "bin", "rebalance.exe")
    args = [bench, "--exe", exe] + sys.argv[1:]
    cpus = sorted(os.sched_getaffinity(0))
    pin = None
    if len(cpus) >= 2 and shutil.which("taskset"):
        args += ["--cpus", ",".join(str(c) for c in cpus), "--client-cpu", str(cpus[0])]
        pin = {cpus[0]}
    child = subprocess.Popen(
        args, preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None
    )

    # Pass a termination on, so the benchmark reaps its daemons.
    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
