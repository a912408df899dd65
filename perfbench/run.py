"""phaseintegral benchmark: four closed-loop workloads, timed from outside.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-points --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

--trace 0 measures the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
--trace 1 runs half the time untraced and half under the tracer and
reports the per-layer metrics, including the tracing overhead.
Every run checks each operation's result against an independent oracle or
a property of the method, and runs the checks' self-test.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9
_PERF = time.perf_counter


def _die(msg: str):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def _locate_program(root: str):
    """Put the checkout's src first on sys.path and on the PYTHONPATH that
    child processes inherit; refuse any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "phaseintegral", "__init__.py")):
        _die(f"no phaseintegral sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import phaseintegral
    if not os.path.abspath(phaseintegral.__file__).startswith(src + os.sep):
        _die(f"imported phaseintegral from {phaseintegral.__file__}, not {src}")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                 else []))


def setup_seconds(workload: str, root: str) -> tuple:
    """Median (raw, speed-referred) wall time of a fresh interpreter doing
    the workload's set-up."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    raw, scaled = [], []
    before = clock.kernel()
    for i in range(SETUP_REPEATS + 1):       # the first run fills __pycache__
        t0 = _PERF()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=120)
        dt = _PERF() - t0
        after = clock.kernel()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            raw.append(dt)
            scaled.append(clock.scale(dt, before, after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def run_passes(wl, budget: float, tracer=None):
    """Whole passes until their summed raw time reaches `budget` (at least
    one).  Each pass is checked as soon as it ends, so what is kept does not
    grow with the number of passes.  Returns raw and speed-referred pass
    times, each pass's failures, the operations attempted and the first
    pass's records (for the self-test)."""
    raw, scaled, fails = [], [], []
    attempted, first = 0, None
    wl.clock = clock.SpeedClock()
    while not raw or sum(raw) < budget:
        if tracer is not None:
            tracer.install()
        out = wl.run_pass()
        if tracer is not None:
            tracer.uninstall()
        r, s = wl.clock.lap()
        raw.append(r)
        scaled.append(s)
        records = wl.extract(out)
        del out
        fails.append(wl.check(records))
        attempted += len(records)
        if first is None:
            first = records
        del records
        gc.collect()
    wl.clock = None
    return raw, scaled, fails, attempted, first


def self_test(wl, clean: dict) -> list:
    """[(label, expect, ok)] for each perturbed or known-good result."""
    base = wl.check(clean)
    results = []
    for label, op, mutate, expect in wl.self_test():
        recs = copy.deepcopy(clean)
        mutate(recs)
        fails = wl.check(recs)
        if expect == "reject":       # rejected, and not for an earlier reason
            ok = op in fails and fails[op] != base.get(op)
        else:
            ok = op not in fails
        results.append((label, expect, ok))
    return results


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 root: str) -> dict:
    import workloads
    cls = workloads.WORKLOADS[name]
    problems = None
    metrics = {}
    if not trace:
        setup_raw, setup_scaled = setup_seconds(name, root)
        metrics["setup_s"] = (setup_scaled, "s")
    if name != "pia-readme":
        import problems as problem_setup
        problems = problem_setup.build(name)
    wl = cls(seed, root, problems)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    if trace:
        from tracer import METRICS, Tracer
        times_u, _, fails, attempted, first = run_passes(wl, seconds / 2)
        tracer = Tracer()
        wl.traced = True
        times, _, fails_t, attempted_t, _ = run_passes(wl, seconds / 2, tracer)
        fails += fails_t
        attempted += attempted_t
        layer = tracer.metrics()
        for child in getattr(wl, "child_metrics", []):
            for k, v in child["metrics"].items():
                layer[k] += v
        for k in layer:
            v = layer[k] / len(times)
            layer[k] = int(round(v)) if METRICS[k] == "count" else v
        layer["trace.overhead_s"] = (statistics.median(times)
                                     - statistics.median(times_u))
        tracer.dump(os.path.join(out_dir, f"spans-{name}-seed{seed}.json.gz"))
        metrics = {k: (layer[k], unit) for k, unit in METRICS.items()}
        all_times = times_u + times
    else:
        all_times, times, fails, attempted, first = run_passes(wl, seconds)
        usage = (resource.RUSAGE_CHILDREN if name == "pia-readme"
                 else resource.RUSAGE_SELF)
        peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    failed = sum(len(f) for f in fails)
    if not trace:
        metrics["wall_s"] = (statistics.median(times), "s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")

    tests = self_test(wl, first)
    if trace:
        tests += [(f"{k} = {metrics[k][0]} (layer bypassed)", "zero",
                   metrics[k][0] == 0) for k in cls.skipped]
    unexpected = sorted({op for f in fails for op in f
                         if workloads.known_fault(op) is None})
    correct = all(ok for _, _, ok in tests) and not unexpected

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"passes {len(all_times)}  raw pass times "
          + " ".join(f"{t:.3f}" for t in all_times))
    if not trace:
        print(f"  raw medians: pass {statistics.median(all_times):.4g} s, "
              f"set-up {setup_raw:.4g} s; the metrics below are referred to "
              f"full machine speed (clock.py)")
    for k, (v, unit) in metrics.items():
        print(f"  {k:28s} {_fmt(v):>12s} {unit}")
    print(f"  operations attempted {attempted}  failed {failed}")
    causes = {}
    for f in fails:
        for op, reason in f.items():
            causes.setdefault((op, reason), 0)
            causes[(op, reason)] += 1
    for (op, reason), n in sorted(causes.items()):
        cause = workloads.known_fault(op)
        tag = "UNEXPECTED" if cause is None else "known fault"
        print(f"  failed x{n} [{tag}] {op}: {reason}")
        if cause is not None:
            print(f"    cause: {cause}")
    verdicts = {"reject": ("rejected", "NOT REJECTED"),
                "accept": ("accepted", "NOT ACCEPTED"),
                "zero": ("confirmed", "NOT ZERO")}
    for label, expect, ok in tests:
        print(f"  {'skip check' if expect == 'zero' else 'self-test'}: "
              f"{label}: {verdicts[expect][0 if ok else 1]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args, root: str) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    import workloads
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} failed: {proc.stderr.strip()}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    _locate_program(root)
    # One CPU for this process, its reference kernel and its children, so the
    # kernel sees the same neighbours as the work it calibrates.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads
    if args.workload == "all":
        result = run_all(args, root)
    elif args.workload in workloads.WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), root)
    else:
        _die(f"unknown workload {args.workload!r}; choose from "
             + ", ".join(["all"] + list(workloads.WORKLOADS)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
