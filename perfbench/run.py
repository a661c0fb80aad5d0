#!/usr/bin/env python3
"""Builds and runs the mecsc benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_gan|scale_100k|serve_stream|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the library and the driver with
CMake into $CARGO_TARGET_DIR (default .bench_build), runs the workload in
its own process, checks its output, and prints as the last line one JSON
object with the keys correct, attempted, failed and metrics: every
end_to_end metric of BENCHMARK.json for --trace 0, every per_layer
metric for --trace 1. `--workload all` runs every workload timed and
traced, each in its own process, and prints a summary table instead.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1  # recorded default; use others to confirm a claim
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def load_spec():
    with open(BENCH_DIR.parent / "BENCHMARK.json") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the driver; returns its path or None."""
    build_dir = build_root / "perfbench"
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "mecsc_perfbench",
         "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return build_dir / "mecsc_perfbench"


def run_workload(binary, out_dir, workload, seed, seconds, trace):
    """Runs one workload process; returns its parsed result or None."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            raw = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or raw is None:
        log(f"perfbench: {workload} exited with code {proc.returncode}")
        return None
    return raw


def contract_metrics(spec, raw, trace):
    """The metrics the result line carries, checked against BENCHMARK.json.

    A timed run must report every end_to_end metric. A traced run
    reports the per_layer metrics of the layers on its workload's path;
    the others are reported as 0 (the layer did no work). A name or
    unit the spec does not list is an error.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = raw["metrics"]
    problems = [f"unknown metric {n}" for n in got if n not in units]
    problems += [f"{n}: unit {got[n]['unit']} != {units[n]}"
                 for n in got if n in units and got[n]["unit"] != units[n]]
    metrics = {}
    for name, unit in units.items():
        if name in got and got[name]["value"] is not None:
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"missing metric {name}")
    return metrics, problems


def one(args, spec, binary, out_dir):
    raw = run_workload(binary, out_dir, args.workload, args.seed,
                       args.seconds, args.trace)
    if raw is None:
        return 1
    metrics, problems = contract_metrics(spec, raw, args.trace)
    for p in problems:
        log("perfbench: " + p)
    result = {
        "correct": bool(raw["correct"]) and not problems,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def all_workloads(args, spec, binary, out_dir):
    """Every workload, timed then traced, each in its own process."""
    rows, combined = [], {}
    correct, attempted, failed = True, 0, 0
    for w in spec["workloads"]:
        name = w["name"]
        runs = {}
        for trace in (0, 1):
            raw = run_workload(binary, out_dir, name, args.seed, args.seconds,
                               trace)
            if raw is None:
                return 1
            metrics, problems = contract_metrics(spec, raw, trace)
            for p in problems:
                log(f"perfbench: {name}: {p}")
            correct = correct and raw["correct"] and not problems
            attempted += raw["attempted"]
            failed += raw["failed"]
            runs[trace] = metrics
            if trace == 0:
                first_p50 = raw["info"]["first_instance_decide_ms_p50"]["value"]
            for m, v in metrics.items():
                combined[f"{name}.{m}"] = v
        # Traced minus untraced decide p50 on the same (first) instance.
        overhead = runs[1]["trace.decide_ms_p50"]["value"] - first_p50
        combined[f"{name}.trace.overhead_ms"] = {"value": overhead,
                                                 "unit": "ms"}
        rows.append((name, runs[0], overhead))
    print("\n== summary (seed %d) ==" % args.seed)
    names = [m["name"] for m in spec["end_to_end"]]
    print("%-14s" % "workload" + "".join("%18s" % n for n in names)
          + "%18s" % "trace_overhead_ms")
    for name, timed, overhead in rows:
        print("%-14s" % name
              + "".join("%18.4g" % timed[n]["value"] for n in names)
              + "%18.4g" % overhead)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": combined}), flush=True)
    return 0


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root.resolve())
    if binary is None:
        return 1
    out_dir = (build_root / "out").resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return all_workloads(args, spec, binary, out_dir)
    return one(args, spec, binary, out_dir)


if __name__ == "__main__":
    sys.exit(main())
