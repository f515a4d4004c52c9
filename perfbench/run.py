#!/usr/bin/env python3
"""Run one reqsched benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload cluster --seed 1 --seconds 40 --trace 0

Builds the server (bin/reqsched.exe) and the benchmark program
(perfbench/bench.exe) from source with dune, then runs the program with
the same arguments.  Its last stdout line is the JSON result;
build output goes to stderr.  Exits non-zero when the checkout holds no
reqsched sources, the build fails, or an output check fails.
"""

import os
import shutil
import signal
import subprocess
import sys

TARGETS = ["bin/reqsched.exe", "perfbench/bench.exe"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/reqsched.ml")):
        print("perfbench: no reqsched sources here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # no shared dune cache: the build writes only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run([dune, "build", "--root", "."] + TARGETS,
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    bench = subprocess.Popen([BENCH] + sys.argv[1:])
    received = []

    def stop(signum, _frame):
        # bench.exe stops its servers on SIGTERM; the wait below
        # returns once it has
        received.append(signum)
        bench.terminate()

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    code = bench.wait()
    return 128 + received[0] if received else code


if __name__ == "__main__":
    sys.exit(main())
