#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at tiny scale through run.py, untraced
and twice traced with the same seed, and fails unless:
  * every end-to-end (untraced) and per-layer (traced) metric named in
    BENCHMARK.json is emitted, with its unit, and no other metric is;
  * every value is finite and every end-to-end value is non-zero;
  * no operation failed and the outputs were correct;
  * the exact per-layer counts repeat exactly between the two traced runs.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
EXACT_COUNTS = [
    "engine.rows_scanned.o4",
    "engine.rows_joined.o4",
    "engine.udf.invocations.canonical",
    "engine.udf.body_calls.canonical",
]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600,
                          check=False)
    out = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not out:
        raise AssertionError(
            f"{workload} trace={trace}: exit {done.returncode}")
    return json.loads(out[-1])


def check(result, expected, label, nonzero):
    errors = []
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{label}: correct={result['correct']} "
                      f"failed={result['failed']}")
    if result["attempted"] < 1:
        errors.append(f"{label}: nothing attempted")
    got = result["metrics"]
    for name in sorted(set(got) - set(expected)):
        errors.append(f"{label}: unexpected metric {name}")
    for name, unit in expected.items():
        if name not in got:
            errors.append(f"{label}: missing metric {name}")
            continue
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            errors.append(
                f"{label}: {name} unit {got[name]['unit']} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} = {value!r}")
        elif nonzero and value == 0:
            errors.append(f"{label}: {name} is 0")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, 0)
        errors += check(plain, end_to_end, f"{workload} untraced", True)
        first, second = run(workload, 1), run(workload, 1)
        errors += check(first, per_layer, f"{workload} traced", False)
        for name in EXACT_COUNTS:
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a != b:
                errors.append(f"{workload}: {name} {a} then {b}")
        print(f"{workload}: {plain['attempted']} + {first['attempted']} "
              f"operations checked", flush=True)
    for e in errors:
        print("FAIL", e)
    print("smoke:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
