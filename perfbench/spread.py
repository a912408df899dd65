"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

Usage: python3 perfbench/spread.py --workload fulling-waves

Runs perfbench/run.py once per seed, seeds 1 to 10, then prints for each metric the median and the interquartile distance
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json, and the failed share of operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    values, shares = {}, set()
    for seed in range(1, 11):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}: {proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((res["failed"], res["attempted"], res["correct"]))
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        passes = proc.stdout.splitlines()[0].split("pass times")[-1].strip()
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}"
                                           for k, v in res["metrics"].items())
              + f"  run {elapsed:.1f} s  raw passes: {passes}", flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for k, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{k:14s} median {statistics.median(vals):.6g}  "
              f"spread {(q3 - q1) / statistics.median(vals):.4f}  "
              f"bound {bounds.get(k)}")
    print("failed/attempted/correct per run:", sorted(shares))
