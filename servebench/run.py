#!/usr/bin/env python3
"""Open-loop serving benchmark for the Eleos reproduction.

Builds servebench/serve_bench from the repository's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build under the repository root), runs one
workload from servebench/workloads.json and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and metrics.

    python3 servebench/run.py --workload kv-read-paging --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans to .bench_out/). --override NAME=VALUE
changes one workload parameter (the sensitivity check uses it). The exit code
is 0 only when the build succeeded, every answer checked out and every
expected metric was reported.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build():
    """Configures and builds serve_bench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources under {ROOT}/src; nothing to build")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "serve_bench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return None
    binary = os.path.join(out, "serve_bench")
    return binary if os.path.isfile(binary) else None


def workload_params(name, overrides):
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    if name not in spec["workloads"]:
        raise KeyError(f"unknown workload {name!r}; "
                       f"known: {', '.join(spec['workloads'])}")
    params = dict(spec["common"])
    params.update(spec["workloads"][name]["params"])
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep or key not in params:
            raise KeyError(f"bad override {item!r}")
        params[key] = value
    return params


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def valid_result(result, expected):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metric names differ: missing {missing}, unexpected {extra}"
    for name, unit in expected.items():
        m = metrics[name]
        if m.get("unit") != unit:
            return f"{name}: unit {m.get('unit')!r}, expected {unit!r}"
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return f"{name}: value {v!r} is not a finite number"
    return None


def run(workload, seed, seconds, trace, overrides=()):
    """Runs one benchmark invocation; returns (exit_code, result or None)."""
    binary = build()
    if binary is None:
        return 2, None
    try:
        params = workload_params(workload, overrides)
    except KeyError as e:
        log(str(e))
        return 2, None
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    for key, value in params.items():
        cmd += [f"--{key}", str(value)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3, None
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        log(f"serve_bench printed no result (exit {done.returncode})")
        return done.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line of serve_bench output is not JSON")
        return 1, None
    problem = valid_result(result, expected_metrics(trace))
    if problem:
        log(problem)
        return 1, None
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        log(f"wrong or failed answers ({result['failed']} of "
            f"{result['attempted']} failed), exit {done.returncode}")
        return done.returncode or 1, result
    return 0, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--override", action="append", default=[],
                    metavar="NAME=VALUE")
    args = ap.parse_args()
    code, result = run(args.workload, args.seed, args.seconds, args.trace,
                       args.override)
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
