#!/usr/bin/env python3
"""Builds and runs the relaxc verification benchmark.

Run from the root of a relaxc checkout:

    python3 verifybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the benchmark (and the relaxc_core
library it links) into .bench_build/ (or $CARGO_TARGET_DIR when set);
later runs only check the build is current. Build output goes to stderr;
the last line of stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

WORKLOADS = ("proofs_z3", "proofs_tiered", "refute_mixed", "serve_warm")


def main():
    args = sys.argv[1:]
    opts = dict(zip(args[0::2], args[1::2]))
    if len(args) % 2 or set(opts) - {"--workload", "--seed", "--seconds",
                                     "--trace"} \
            or opts.get("--workload") not in WORKLOADS:
        sys.stderr.write("usage: run.py --workload {%s} --seed N "
                         "--seconds S --trace 0|1\n" % "|".join(WORKLOADS))
        return 2

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    os.makedirs(build, exist_ok=True)

    def step(cmd):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)

    if not any(os.path.exists(os.path.join(build, f))
               for f in ("Makefile", "build.ninja")):
        step(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "--target", "verifybench", "-j",
          str(min(4, os.cpu_count() or 1))])

    sha = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, env=dict(os.environ,
                                               GIT_DIR=os.path.join(root, ".git")))
        if r.returncode == 0:
            sha = r.stdout.strip()

    cmd = [os.path.join(build, "verifybench"), "--root", ".",
           "--work-dir", os.path.relpath(build, root), "--git-sha", sha]
    for k in ("--workload", "--seed", "--seconds", "--trace"):
        if k in opts:
            cmd += [k, opts[k]]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
