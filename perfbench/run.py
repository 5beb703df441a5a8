#!/usr/bin/env python3
"""Build the compiler and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload aot-paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Build output goes to standard error; the benchmark's report goes to
standard output and ends with one JSON line.  Sockets, artifact stores,
traces and temporary files stay under perfbench/out/.
"""

import os
import subprocess
import sys

OUT = os.path.join("perfbench", "out")


def main():
    root = os.getcwd()
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(os.path.join(root, p))]
    if missing:
        sys.stderr.write("perfbench: not the root of a full checkout (missing %s)\n" % ", ".join(missing))
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.join(root, OUT, "tmp"))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/pb.exe", "./bin/dbdsc.exe"],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 2
    cmd = [os.path.join("_build", "default", "perfbench", "pb.exe")] + sys.argv[1:]
    cmd += ["--dbdsc", os.path.join("_build", "default", "bin", "dbdsc.exe"), "--out", OUT]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
