#!/usr/bin/env python3
"""Freezes the reference probe's SMT-LIB scripts.

The probe is a fixed set of solver queries that the benchmark solves with
the Z3 C API next to every timed verification. The scripts were taken once
from `relaxc dump-vcs --smtlib` on the case studies and are kept in
scripts.smt2 so that no later change to relaxc can move the probe.

Usage (from the repository root, with relaxc built in build/):

    python3 verifybench/probe/freeze.py build/relaxc > verifybench/probe/scripts.smt2

Re-running it replaces the probe, which makes every earlier probe-relative
figure incomparable with later ones; do it only on purpose.
"""
import re
import subprocess
import sys

CASE_STUDIES = ["lu.rlx", "swish.rlx", "task_skip.rlx", "water.rlx"]
STRIDE = 2  # keep every STRIDE-th script of the concatenated dump


# `relaxc dump-vcs --smtlib` prints fresh names such as variant'1 bare,
# which is not a legal SMT-LIB symbol; the probe quotes them as |variant'1|.
PRIMED = re.compile(r"(?<![|\w!'])([A-Za-z_][\w!]*'[\w!']*)")


def blocks(dump):
    """Yields (expected status, script) for each dumped query."""
    expect = None
    lines = []
    inside = False
    for line in dump.splitlines():
        m = re.match(r"\s*; SMT-LIB \((sat|unsat) expected\)", line)
        if m:
            expect = m.group(1)
            continue
        if line.startswith("(set-info"):
            inside = True
            lines = [line]
            continue
        if inside:
            lines.append(line)
            if line.strip() == "(check-sat)":
                inside = False
                yield expect, PRIMED.sub(r"|\1|", "\n".join(lines))


def main():
    relaxc = sys.argv[1]
    scripts = []
    for name in CASE_STUDIES:
        out = subprocess.run([relaxc, "dump-vcs", "examples/programs/" + name,
                              "--smtlib"], check=True, capture_output=True,
                             text=True).stdout
        for expect, script in blocks(out):
            scripts.append((name, expect, script))
    kept = scripts[::STRIDE]
    print("; Reference probe scripts, frozen from `relaxc dump-vcs --smtlib`")
    print("; on %s (every %d-th query). Each script follows a line" %
          (", ".join(CASE_STUDIES), STRIDE))
    print("; `; probe <source> expect <sat|unsat>`. Primed names are quoted")
    print("; as |x'1| (the dump prints them bare). Do not edit.")
    for name, expect, script in kept:
        print("; probe %s expect %s" % (name, expect))
        print(script)


if __name__ == "__main__":
    main()
