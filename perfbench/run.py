#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program (perfbench/main.ml) is built from source with dune, then run
with the same arguments. Its standard output is passed through; the last
line is the JSON result. The exit code is the program's: nonzero when an
output check failed, the build failed, or the run did not finish in time.
The result and, for traced runs, the spans are also written to
perfbench/out/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "out")
SOURCE_DIRS = ["lib", "bin", "bench", "perfbench"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def source_digest():
    """sha256 over the sources the benchmark builds from, in path order."""
    h = hashlib.sha256()
    files = ["dune-project", "dune", "BENCHMARK.json"]
    for top in SOURCE_DIRS:
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "out" and not d.startswith((".", "_")))
            files += [os.path.join(root, n) for n in names
                      if n == "dune" or n.endswith((".ml", ".mli", ".py"))]
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git") or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny sample sizes, for the benchmark's own tests")
    p.add_argument("--perturb", action="store_true",
                   help="perturb the jobs=2 aggregate: the output check must fail")
    args = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the repository: dune-project and lib/ are missing")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = dune_command() + ["build", "--root", ".", "./perfbench/main.exe"]
    try:
        b = subprocess.run(build, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if b.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--commit", commit(),
           "--source-digest", source_digest(), "--out-dir", OUT_DIR]
    if args.perturb:
        cmd.append("--perturb")
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
