#!/usr/bin/env python3
"""Build the benchmark and the mrsl CLI from source, then run one workload.

    python3 perfbench/run.py --workload derive|impute|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The last line of standard output is
the benchmark's JSON result; build output goes to standard error. It
exits non-zero, printing no result, when the checkout holds no buildable
repository.
"""

import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI = os.path.join("_build", "default", "bin", "mrsl_cli.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe",
         "./bin/mrsl_cli.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    os.execv(BENCH, [BENCH, "--cli", CLI] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
