#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

Runs servebench/run.py once per seed for each workload and prints, per
metric, the median over the seeds and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, over seeds 1 to 10. A metric is steady when its spread is below
a third of its bound in BENCHMARK.json. setup_s is shown but exempt: the
acceptance rule holds set-up time only to its median, which must not get
worse between two sets of runs by more than its bound.

    python3 servebench/check_spread.py [--workload NAME ...]

Raw results go to .bench_out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", default=[])
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    steady = True
    for workload in workloads:
        results = []
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}")
                steady = False
                continue
            results.append(json.loads(done.stdout.splitlines()[-1]))
        with open(os.path.join(out_dir, f"spread-{workload}.json"), "w") as f:
            json.dump(results, f, indent=1)
        if len(results) < 4:
            print(f"{workload}: too few successful runs")
            steady = False
            continue
        print(f"{workload} ({len(results)} runs)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name == "setup_s":
                verdict = "exempt"
            else:
                verdict = "ok" if spread < bound / 3 else "WIDE"
                steady = steady and verdict == "ok"
            print(f"  {name:20s} median {med:12.5g}  spread {spread:7.4f}  "
                  f"bound {bound:.2f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
