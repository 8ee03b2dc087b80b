#!/usr/bin/env python3
"""Smoke check of the benchmark itself, every workload at tiny size.

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it asserts that
  * a --trace 0 run is correct and prints every end_to_end metric with
    its unit, and a --trace 1 run every per_layer metric;
  * every output check can fail: with one digest corrupted, the command
    exits non-zero and its result line says correct=false.
Exits non-zero on the first failed assertion.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, lines, result, proc.stderr


def expect(cond, what):
    if not cond:
        sys.exit(f"smoke: FAILED: {what}")


def check_metrics(result, defs, where):
    expect(result is not None, f"{where}: no result line")
    expect(result["correct"] is True, f"{where}: not correct")
    expect(result["attempted"] >= 1, f"{where}: nothing attempted")
    for m in defs:
        got = result["metrics"].get(m["name"])
        expect(got is not None, f"{where}: {m['name']} missing")
        expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit")
        expect(isinstance(got["value"], (int, float))
               and math.isfinite(got["value"]),
               f"{where}: {m['name']} value {got['value']}")
    expect(len(result["metrics"]) == len(defs), f"{where}: extra metrics")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (x["name"] for x in spec["workloads"]):
        code, lines, result, err = run(w, 0)
        expect(code == 0, f"{w} trace 0 exited {code}: {err[-2000:]}")
        check_metrics(result, spec["end_to_end"], f"{w} trace 0")
        checks = [ln.split()[1].rstrip(":") for ln in lines
                  if ln.startswith("check ")]
        expect("same_seed_rep0" in checks and len(checks) >= 2,
               f"{w}: checks {checks}")

        code, _, result, err = run(w, 1)
        expect(code == 0, f"{w} trace 1 exited {code}: {err[-2000:]}")
        check_metrics(result, spec["per_layer"], f"{w} trace 1")

        for name in checks:
            code, _, result, _ = run(w, 0, "--corrupt-digest", name)
            expect(code != 0, f"{w}: corrupted {name} still exits 0")
            expect(result is not None and result["correct"] is False,
                   f"{w}: corrupted {name} not reported as incorrect")
        print(f"smoke: {w} ok (checks that can fail: {', '.join(checks)})")
    print("smoke: ok")


if __name__ == "__main__":
    main()
