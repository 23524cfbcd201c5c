#!/usr/bin/env python3
"""Smoke test of the benchmark itself, through the same code as a real run
but on the tiny `smoke` relation of run.py.

It checks that
  * `--trace 0` prints exactly the end-to-end metrics of BENCHMARK.json,
    each with its unit and a positive value, and `--trace 1` exactly the
    per-layer metrics, each with its unit;
  * both runs pass the correctness gate with no failed operation;
  * the gate of run.py counts an FD file that lost its last line as a
    failed operation.

    python3 perfbench/smoke_test.py
"""

import json
import os
import shutil
import subprocess
import sys

import run as runner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def bench(*extra):
    """Runs run.py on the smoke workload; returns its result object."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "smoke", "--seed", "7", "--seconds", "1", *extra],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"run.py {' '.join(extra)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(ok, message):
    if not ok:
        sys.exit(f"smoke test failed: {message}")


def check_metrics(result, declared, label, positive):
    names = {m["name"] for m in declared}
    odd = sorted(names ^ set(result["metrics"]))
    check(not odd, f"{label}: names printed or declared but not both: {odd}")
    for m in declared:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"],
              f"{label}: {m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        check(isinstance(got["value"], (int, float)), f"{label}: {m['name']} is not a number")
        check(not positive or got["value"] > 0, f"{label}: {m['name']} is not positive")


def check_gate():
    """Feeds the gate one intact and one truncated `fds` output."""
    r = runner.Run("smoke-gate", runner.build())
    try:
        r.gen(*runner.WORKLOADS["smoke"], seed=7)
        r.reference()
        _, _, out = r.child(["fds", "--algo", "tane", r.csv], "tane.txt")
        check(out is not None, "fds --algo tane did not exit 0")
        r.check_fds(out, "intact")
        check(not r.failures, f"the gate refused an intact FD file: {r.failures}")
        with open(out, "rb") as f:
            data = f.read()
        with open(out, "wb") as f:
            f.write(data[: data.rstrip(b"\n").rfind(b"\n") + 1])
        r.check_fds(out, "truncated")
        check(len(r.failures) == 1, "a truncated FD file was not counted as a failed operation")
    finally:
        shutil.rmtree(r.scratch, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = bench("--trace", trace)
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"--trace {trace}: {result['failed']} of {result['attempted']} operations failed")
        check_metrics(result, declared[key], f"--trace {trace}", positive=trace == "0")
    check_gate()
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()
