#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

The script builds perfbench/main.exe with dune (inside the checkout's
_build directory) and runs it with the given arguments, passing its
output and exit code through.  It fails without printing a result when
the checkout lacks the library sources.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write(
                "perfbench: %s not found; run from the root of a full source checkout\n"
                % needed
            )
            return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune is not on PATH\n")
        return 2
    # keep every build output inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", root, "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
