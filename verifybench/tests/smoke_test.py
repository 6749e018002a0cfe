#!/usr/bin/env python3
"""Smoke test of the verification benchmark at a short length.

Run from the root of a relaxc checkout:

    python3 verifybench/tests/smoke_test.py

It checks, for every workload in BENCHMARK.json and both trace modes, that
the last stdout line is the result object with exactly the contract's keys,
that every named metric is printed with its unit, and that the run is
correct with zero failed operations. It then checks that verdicts really
are checked (a flipped known answer makes the run incorrect), that a
generated mutant the interpreter cannot show wrong stops the run, and that
the exact counters of the traced run repeat across two runs with one seed.
Takes about two minutes.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SECONDS = "1"


def result(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    assert lines, "no output from %s:\n%s" % (cmd, out.stderr[-2000:])
    return out.returncode, json.loads(lines[-1])


def bench(workload, trace, seed=1):
    return result(["python3", "verifybench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", SECONDS,
                   "--trace", str(trace)])


def check_shape(spec, res, trace):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}, \
        sorted(set(res["metrics"]) ^ {m["name"] for m in want})
    for m in want:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, res = bench(w["name"], trace)
            check_shape(spec, res, trace)
            assert rc == 0 and res["correct"] and res["failed"] == 0, \
                (w["name"], trace, res)
            print("ok  %s trace=%d attempted=%d" %
                  (w["name"], trace, res["attempted"]), flush=True)

    # Verdicts are checked: claim a correct case study is wrong.
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                         ".bench_build")
    flipped = os.path.join(build, "smoke-data")
    os.makedirs(flipped, exist_ok=True)
    data = os.path.join(ROOT, "verifybench", "data")
    for name in ("mutants.txt", "generated.txt"):
        shutil.copy(os.path.join(data, name), flipped)
    with open(os.path.join(data, "expected.txt")) as src, \
            open(os.path.join(flipped, "expected.txt"), "w") as dst:
        dst.write(src.read().replace("swish.rlx verified",
                                     "swish.rlx refuted"))
    def direct(workload):
        return [os.path.join(build, "verifybench"), "--workload", workload,
                "--seed", "1", "--seconds", SECONDS, "--trace", "0",
                "--root", ".", "--work-dir", os.path.relpath(build, ROOT),
                "--data-dir", flipped]

    rc, res = result(direct("proofs_z3"))
    assert not res["correct"] and res["failed"] >= 1, res
    print("ok  a wrong known answer fails the run (failed=%d)" %
          res["failed"], flush=True)

    # A frozen mutant that blocks before anything can fail is not known
    # wrong: the load-time interpreter check must refuse it.
    path = os.path.join(flipped, "generated.txt")
    with open(path) as f:
        text = f.read()
    main_body = text.index("\n{\n", text.index("proc main()")) + 3
    with open(path, "w") as f:
        f.write(text[:main_body] + "  assume 1 < 0;\n" + text[main_body:])
    out = subprocess.run(direct("refute_mixed"), capture_output=True,
                         text=True, cwd=ROOT)
    assert out.returncode != 0 and '"correct"' not in out.stdout, out.stdout
    assert "no concrete failing run" in out.stderr, out.stderr[-500:]
    print("ok  a vacuous generated mutant stops the run", flush=True)

    # Exact counters repeat across runs with one seed.
    spec_counts = [m["name"] for m in spec["per_layer"]
                   if m["unit"] == "count" and m["name"] != "server.refusals"]
    _, a = bench("refute_mixed", 1, seed=5)
    _, b = bench("refute_mixed", 1, seed=5)
    for name in spec_counts:
        assert a["metrics"][name] == b["metrics"][name], name
    print("ok  exact counters repeat across runs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
