#!/usr/bin/env python3
"""End-to-end benchmark of the deep-healing simulator.

    python3 perfbench/run.py --workload fig12_lifetime --seed 1 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench with
an optimised build, then drives the dh_perfbench binary:

  --trace 0  untraced: set-up timed in fresh processes before and after
             one timed run of --seconds (median), then the output checks
             in a separate process. Prints every end-to-end metric.
  --trace 1  traced: the per-layer split (spans kept in memory, dumped to
             .bench_build/perfbench-work/spans_<workload>.csv), exact
             registry counts, checkpoint cost and the serial baseline,
             plus the same output checks. Prints every per-layer metric.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The run exits non-zero when an output check fails, when the
build is not optimised, or when the program cannot be built.
`--workload all` runs every workload in turn.
"""
import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD_DIR / "dh_perfbench"
SETUP_PROCESSES = 21  # set-up samples per run (fresh processes), median
OPTIMISED_BUILDS = ("Release", "RelWithDebInfo")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd, "configure")
    step(["cmake", "--build", str(BUILD_DIR), "-j", "4"], "build")


def step(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=840)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{what} failed ({proc.returncode})")


def harness(mode, args, timeout):
    """Run one dh_perfbench process; returns its JSON report."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(WORK_DIR)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic_ns()  # same clock as the binary's steady_clock
    cmd += ["--t0-ns", str(t0)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"dh_perfbench {mode} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_fingerprint(fp):
    if fp.get("optimized") != 1 or \
            fp.get("build_type") not in OPTIMISED_BUILDS:
        raise BenchError(f"refusing to report from a non-optimised build: "
                         f"{fp}")
    print("fingerprint: " + json.dumps(fp, sort_keys=True))


def output_checks(args, digest0, extra=None):
    """Same-seed determinism plus the workload's own digest pairs."""
    report = harness("check", args, timeout=150)
    pairs = {"same_seed_rep0": {"expected": digest0,
                                "actual": report["digest0"]}}
    pairs.update(extra or {})
    pairs.update(report["checks"])
    if args.corrupt_digest:
        if args.corrupt_digest not in pairs:
            raise BenchError(f"no check named {args.corrupt_digest}; "
                             f"have {sorted(pairs)}")
        pairs[args.corrupt_digest]["actual"] += "1"
    ok = True
    for name, p in pairs.items():
        good = p["expected"] != "" and p["expected"] == p["actual"]
        ok = ok and good
        print(f"check {name}: {'ok' if good else 'FAILED'}")
        if not good:
            log(f"check {name} failed:\n  expected {p['expected']}\n"
                f"  actual   {p['actual']}")
    return ok


def untraced(args, spec):
    # Half the set-up samples before the timed run and half after it, so
    # that one burst of the host's load cannot take all of them.
    def setups_now():
        return [harness("setup", args, timeout=60)["setup_s"]
                for _ in range(SETUP_PROCESSES // 2)]
    setups = setups_now()
    run = harness("run", args, timeout=args.seconds + 90)
    check_fingerprint(run["fingerprint"])
    setups.append(run["setup_s"])
    setups += setups_now()
    # Timed repetitions whose digest differs from repetition 0's.
    mismatched = {"expected": "0",
                  "actual": str(int(run["rep_digests_mismatched"]))}
    correct = output_checks(args, run["digest0"],
                            {"timed_reps_same_digest": mismatched})
    values = {
        "items_per_s": run["items_per_s"],
        "item_us_p50": run["item_us_p50"],
        "item_us_p99": run["item_us_p99"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    items = int(run["items"])
    threw = int(run["threw"])
    bad = int(run["violated"]) + threw
    print(f"{args.workload} seed {args.seed}: {items} items in "
          f"{int(run['reps'])} repetitions of the seed's "
          f"{int(run['items_per_rep'])} items over {run['wall_s']:.3f} s; "
          f"latency percentiles are over those {int(run['items_per_rep'])} "
          f"samples, each item's least latency in any repetition; "
          f"items_per_s is from their mean; setup is the median of "
          f"{len(setups)} processes")
    print(f"  failed_fraction = {bad / items:.6g} ({bad} of {items} items "
          f"threw or broke a physical invariant; {threw} threw)")
    print(f"  cpu_us_per_item = {run['cpu_us_per_item']:.6g} us (the "
          f"{run['cores_busy']:.3f} cores kept busy per items_per_s; not "
          f"bounded: host steal time is not charged as CPU time)")
    return correct, items, threw, metrics(spec["end_to_end"], values)


def traced(args, spec, layers):
    report = harness("trace", args, timeout=170)
    check_fingerprint(report["fingerprint"])
    values = dict(report["metrics"])
    items = int(report["items"])
    threw = int(report["threw"])
    values["host.effective_parallelism"] = \
        report["fingerprint"]["effective_parallelism"]
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            continue
        if args.workload in layers["per_layer"][name]["measured_on"]:
            raise BenchError(f"{name} not reported on {args.workload}")
        values[name] = 0.0  # layer not exercised by this workload
    correct = output_checks(args, report["digest0"])
    return correct, items, threw, metrics(spec["per_layer"], values)


def metrics(defs, values):
    out = {}
    for m in defs:
        v = values[m["name"]]
        if v is None or not math.isfinite(v):
            raise BenchError(f"{m['name']} is not a finite number: {v}")
        out[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:<32} {v:>16.6g} {m['unit']}")
    return out


def run_one(args, spec, layers):
    print(f"== {args.workload} (trace {args.trace})")
    if args.trace:
        correct, items, threw, out = traced(args, spec, layers)
    else:
        correct, items, threw, out = untraced(args, spec)
    print(json.dumps({"correct": correct, "attempted": items,
                      "failed": threw, "metrics": out}), flush=True)
    return correct


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-size repetitions (perfbench/smoke.py)")
    ap.add_argument("--corrupt-digest", metavar="CHECK",
                    help="alter one digest before comparing, to prove the "
                         "check can fail (perfbench/smoke.py)")
    args = ap.parse_args()
    try:
        build()
        ok = True
        for w in names if args.workload == "all" else [args.workload]:
            args.workload = w
            ok = run_one(args, spec, layers) and ok
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
