#!/usr/bin/env python3
"""Steadiness check for the share-group benchmark.

    python3 perfbench/steady.py --runs 10 --sets 2 [--workloads fd_share,shm_pool]

Runs perfbench/run.py once per (set, seed, workload), with a new seed for
every run, and reports for each end-to-end metric its median and its
quartile spread (q3 - q1) / median, with quartiles taken as
statistics.quantiles(values, n=4) gives them. With --sets 2 it also reports
how far the second set's median moved from the first's, and how many trials
the host check skipped. Raw values go to --out as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"steady: {workload} seed {seed} failed")
    lines = r.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"steady: {workload} seed {seed} reported failures: {result}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["skipped_trials"] = next(
        int(l.split()[1]) for l in lines if l.startswith("skipped_trials "))
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    raw = {}  # raw[set][workload][metric] = [values]
    seed = args.first_seed
    for s in range(args.sets):
        raw[s] = {w: {} for w in workloads}
        for _ in range(args.runs):
            for w in workloads:  # interleaved, so host drift hits every workload
                for k, v in run_once(w, seed, args.seconds, args.trace).items():
                    raw[s][w].setdefault(k, []).append(v)
                seed += 1
            print(f"steady: set {s} done through seed {seed - 1}", file=sys.stderr)

    for w in workloads:
        print(f"== {w}")
        print(f"  {'metric':36s} " + "  ".join(
            f"{'set' + str(s) + ' median':>14s} {'iqr/med':>8s}" for s in raw)
            + ("  2nd/1st" if args.sets > 1 else "") + "   bound")
        for m in metrics:
            name = m["name"]
            cells, meds = [], []
            for s in raw:
                med, iqr = spread(raw[s][w][name])
                meds.append(med)
                cells.append(f"{med:14.6g} {iqr:8.4f}")
            ratio = f"  {meds[1] / meds[0]:7.4f}" if args.sets > 1 and meds[0] else ""
            bound = bounds.get(name)
            print(f"  {name:36s} " + "  ".join(cells) + ratio
                  + (f"   {bound}" if bound is not None else ""))
        print("  skipped trials: " + ", ".join(
            f"set{s} {sum(raw[s][w]['skipped_trials']):.0f}" for s in raw))
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
