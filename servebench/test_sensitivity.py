#!/usr/bin/env python3
"""Sensitivity self-check of the serving benchmark.

A layer the benchmark claims to measure must visibly respond, and its bypass
workload must not. At a reduced size, halving EPC++ (the SUVM page cache)
must raise suvm.major_faults_per_op and lower capacity_kops on
kv-read-paging, and must leave every virtual-time metric of fs-rpc-resident
unchanged, because that workload's dataset fits EPC++ either way. Only
benchmark-side inputs change between the runs.

    python3 servebench/test_sensitivity.py

Exits 0 when every check holds.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 11
SMALL = ["warmup-requests=8000", "ladder-requests=4000",
         "light-requests=5000", "heavy-requests=10000",
         "trace-requests=4000", "setup-reps=1"]
# Reduced size: a quarter of the dataset and of EPC++ (4x overcommit kept).
READ = SMALL + ["dataset-mib=16"]
FILE = SMALL + ["dataset-mib=2"]
VIRTUAL = ["capacity_kops", "lat_p50_us.light", "lat_p99_us.light",
           "lat_p50_us.heavy", "lat_p99_us.heavy", "lat_p999_us.heavy"]


def measure(workload, overrides):
    metrics = {}
    for trace in (0, 1):
        code, result = run.run(workload, SEED, 1, trace, overrides)
        if code != 0 or result is None:
            raise SystemExit(f"{workload} {overrides}: run failed ({code})")
        metrics.update({k: v["value"] for k, v in result["metrics"].items()})
    return metrics


def main():
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    base = measure("kv-read-paging", READ + ["epc-pp-mib=4"])
    half = measure("kv-read-paging", READ + ["epc-pp-mib=2"])
    for name in ("suvm.major_faults_per_op", "capacity_kops"):
        print(f"     kv-read-paging {name}: {base[name]:.4g} -> {half[name]:.4g}")
    check(half["suvm.major_faults_per_op"] > 1.1 * base["suvm.major_faults_per_op"],
          "kv-read-paging: halving EPC++ raises suvm.major_faults_per_op")
    check(half["capacity_kops"] < 0.97 * base["capacity_kops"],
          "kv-read-paging: halving EPC++ lowers capacity_kops")

    base = measure("fs-rpc-resident", FILE + ["epc-pp-mib=8"])
    half = measure("fs-rpc-resident", FILE + ["epc-pp-mib=4"])
    check(base["suvm.major_faults_per_op"] == 0 and
          half["suvm.major_faults_per_op"] == 0,
          "fs-rpc-resident: no major faults after warm-up at either size")
    for name in VIRTUAL:
        rel = abs(half[name] - base[name]) / base[name]
        check(rel <= 0.01, f"fs-rpc-resident: {name} unchanged "
                           f"({base[name]:.5g} -> {half[name]:.5g})")
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all sensitivity checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
