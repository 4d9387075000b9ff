#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload (with
--trace 0) and prints, per metric, the median and the spread -- the distance
between the first and third quartile as a share of the median -- of the
yardstick-scaled value next to the spread of its raw value, and the metric's
bound. Run from the repository root:

    python3 perfbench/spread.py --runs 10 --first-seed 1 login pnc fleet

Exits non-zero when a run fails or a spread (other than setup_s) exceeds its
bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+\S+\s+raw (\S+) at host\.ref_rate (\S+)/s")


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("nan")


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        m = LINE.match(line)
        if m:
            raw[m.group(1)] = float(m.group(3))
            raw["host.ref_rate"] = float(m.group(4))
    return result, raw


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("workloads", nargs="*")
    opts = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    worst = True
    for workload in workloads:
        runs = []
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            result, raw = run(bench["command"], workload, seed, seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: correctness check failed")
            runs.append((result, raw))
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {opts.runs} runs of {seconds} s, seeds "
              f"{opts.first_seed}..{opts.first_seed + opts.runs - 1}")
        print(f"  {'metric':<32} {'median':>12} {'spread':>8} {'raw spread':>10} {'bound':>6}")
        for name, bound in bounds.items():
            median, s = spread([r["metrics"][name]["value"] for r, _ in runs])
            raw = [rw[name] for _, rw in runs if name in rw]
            raw_s = f"{spread(raw)[1]:10.4f}" if len(raw) == len(runs) else f"{'-':>10}"
            flag = "" if s <= bound / 3 else (" > bound/3" if s <= bound else " > BOUND")
            if s > bound and name != "setup_s":
                worst = False
            print(f"  {name:<32} {median:12.6g} {s:8.4f} {raw_s} {bound:6.2f}{flag}")
        rates = [rw["host.ref_rate"] for _, rw in runs]
        print(f"  {'host.ref_rate':<32} {statistics.median(rates):12.6g} {spread(rates)[1]:8.4f}\n")
    sys.exit(0 if worst else 1)


if __name__ == "__main__":
    main()
