#!/usr/bin/env python3
"""End-to-end benchmark of the online forecasting path.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the benchmark program plus the
library sources under src/) into .bench_build/perfbench, runs one workload
and prints, as the last line of stdout, one JSON object with exactly the
keys correct, attempted, failed and metrics:

  --trace 0  the end-to-end metrics, measured with span recording off;
  --trace 1  the per-layer metrics of a run with span recording on, plus
             trace.overhead_share: how much slower the traced run's p50_ms
             was than an untraced run of the same seed made just before it.

Exits 1 when the build fails, a correctness check fails or the output does
not match the schema. BENCHMARK.json lists the workloads and metrics;
perfbench/METRICS.md says what each one measures.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fleet_steady", "fleet_storm", "sched_adaptive")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_units(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def validate_result(obj, units):
    """Raise ValueError unless `obj` is a result line carrying exactly the
    metrics in `units` (name -> unit), each a finite number."""
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys must be exactly correct, attempted, failed, metrics")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise ValueError(key + " must be a non-negative integer")
    if obj["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics or {}))
        extra = sorted(set(metrics or {}) - set(units))
        raise ValueError("metric names differ: missing %s, extra %s" % (missing, extra))
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError(name + ": expected {value, unit}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v or v in (float("inf"), float("-inf")):
            raise ValueError(name + ": value is not a finite number")
        if m["unit"] != units[name]:
            raise ValueError("%s: unit %r, expected %r" % (name, m["unit"], units[name]))


def overhead_share(untraced_p50, traced_p50):
    """Relative slow-down of the traced run's per-operation median."""
    return (traced_p50 - untraced_p50) / untraced_p50


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def run_binary(binary, args, trace):
    """Run one workload; returns (exit code, context lines, result object)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing (exit %d)" % done.returncode)
    return done.returncode, lines[:-1], json.loads(lines[-1])


def context_value(lines, key):
    for line in lines:
        obj = json.loads(line)
        if key in obj:
            return obj[key]
    raise RuntimeError("no %r line in the traced run's output" % key)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = load_spec()
    binary = build()
    if args.trace == 0:
        code, context, result = run_binary(binary, args, trace=False)
        units = metric_units(spec, "end_to_end")
    else:
        code0, _, untraced = run_binary(binary, args, trace=False)
        code, context, result = run_binary(binary, args, trace=True)
        traced_p50 = context_value(context, "end_to_end")["p50_ms"]
        result["metrics"]["trace.overhead_share"] = {
            "value": overhead_share(untraced["metrics"]["p50_ms"]["value"], traced_p50),
            "unit": "ratio"}
        result["correct"] = result["correct"] and untraced["correct"] and code0 == 0
        units = metric_units(spec, "per_layer")
    for line in context:
        print(line)
    validate_result(result, units)
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
