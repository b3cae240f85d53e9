#!/usr/bin/env python3
"""A/B of this checkout against a base revision on the repo's benchmark.

    python3 tools/ab.py --base <rev> [--pairs 10] [--seconds 20]
                        [--workloads shm_pool,fd_share] [--first-seed N]
                        [--out ab.json] [--keep]

Checks <rev> out in a git worktree under .bench_build/ and runs
perfbench/run.py there (the base) and in this checkout (the head); each
side's run.py builds its own sources in the perf configuration. For every
workload in BENCHMARK.json it runs --pairs pairs, one run per side with the
same seed, alternating which side goes first, and prints the seeds it
picked. A run that exits 4 (sgbench's host check: the host kept taking the
member cores away) is rerun once with the same seed, and the rerun is
reported.

Per workload and end-to-end metric it prints each side's median and
quartiles (statistics.quantiles, n=4), the pairs the head won (direction
from BENCHMARK.json's "better"), the ratio of the medians and a verdict:

  gain        the head wins at least 9 in 10 pairs, and the medians differ
              by more than the base's quartile spread (q3 - q1);
  regression  the head's median is worse than the base's by more than the
              metric's bound (a fraction of the base's median);
  no move     otherwise.

It also prints failed/attempted ops per side. Runs go one at a time, so the
three pinned members of each run have the host to themselves.
"""
import argparse
import json
import math
import random
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_CHECK_EXIT = 4


def git(*args, cwd=ROOT):
    r = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"ab: git {' '.join(args)} failed: {r.stderr.strip()}")
    return r.stdout.strip()


def base_worktree(rev):
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = ROOT / ".bench_build" / f"ab-base-{sha[:12]}"
    if (path / ".git").is_file() and git("rev-parse", "HEAD", cwd=path) == sha:
        return sha, path  # kept by an earlier --keep run
    if path.exists():  # a leftover that is not this revision's worktree
        shutil.rmtree(path)
        git("worktree", "prune")
    path.parent.mkdir(exist_ok=True)
    git("worktree", "add", "--detach", str(path), sha)
    return sha, path


class HostCheck(Exception):
    """sgbench refused to report: the host took the member cores away."""


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if r.returncode != 0:
        if re.search(rf"sgbench exited with {HOST_CHECK_EXIT}\b", r.stderr):
            raise HostCheck()
        sys.stderr.write(r.stderr)
        raise SystemExit(f"ab: {workload} seed {seed} failed in {tree}")
    return json.loads(r.stdout.splitlines()[-1])


def run_side(name, tree, workload, seed, seconds, log):
    try:
        result = run_once(tree, workload, seed, seconds)
    except HostCheck:
        print(f"ab: {name} {workload} seed {seed} exited {HOST_CHECK_EXIT} (host check); "
              "rerunning once with the same seed", file=sys.stderr)
        log.append(f"{name} {workload} seed {seed}: host check, rerun")
        try:
            result = run_once(tree, workload, seed, seconds)
        except HostCheck:
            raise SystemExit(f"ab: {name} {workload} seed {seed} failed the host check twice")
    vals = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"ab: {name} {workload} seed {seed} "
          + " ".join(f"{k}={v:.6g}" for k, v in sorted(vals.items())), file=sys.stderr)
    return vals, result["attempted"], result["failed"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, better, bound):
    sign = 1 if better == "higher" else -1
    won = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    if won >= math.ceil(0.9 * len(base)) and sign * (hmed - bmed) > bq3 - bq1:
        call = "gain"
    elif bound is not None and sign * (bmed - hmed) > bound * abs(bmed):
        call = "regression"
    else:
        call = "no move"
    return won, call


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--first-seed", type=int,
                   help="seed of the first pair (default: picked at random)")
    p.add_argument("--out", help="write every run's metrics here as JSON")
    p.add_argument("--keep", action="store_true", help="keep the base worktree")
    args = p.parse_args()
    workloads = args.workloads.split(",")
    first = args.first_seed or random.SystemRandom().randrange(1, 1_000_000)
    seeds = [first + i for i in range(args.pairs)]

    sha, base_tree = base_worktree(args.base)
    sides = {"base": base_tree, "head": ROOT}
    print(f"ab: base {args.base} = {sha} in {base_tree}")
    print(f"ab: head {git('rev-parse', 'HEAD')}"
          + (" + uncommitted changes" if git("status", "--porcelain", "--", "src", "perfbench")
             else "") + f" in {ROOT}")
    print(f"ab: {args.pairs} pairs per workload at {args.seconds} s, seeds {seeds[0]}..{seeds[-1]}, "
          "odd pairs base first")

    raw = {w: {s: [] for s in sides} for w in workloads}
    ops = {w: {s: [0, 0] for s in sides} for w in workloads}
    log = []
    try:
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for w in workloads:  # interleaved, so host drift hits every workload
                for side in order:
                    vals, attempted, failed = run_side(side, sides[side], w, seed, args.seconds, log)
                    raw[w][side].append(vals)
                    ops[w][side][0] += failed
                    ops[w][side][1] += attempted
    finally:
        if not args.keep:
            git("worktree", "remove", "--force", str(base_tree))

    for w in workloads:
        print(f"== {w} ({args.pairs} pairs, seeds {seeds[0]}..{seeds[-1]})")
        print(f"  {'metric':16s} {'better':6s} {'base median [q1, q3]':>34s} "
              f"{'head median [q1, q3]':>34s} {'won':>6s} {'ratio':>7s}  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            base = [r[name] for r in raw[w]["base"]]
            head = [r[name] for r in raw[w]["head"]]
            won, call = verdict(base, head, m["better"], m.get("bound"))
            bq, hq = quartiles(base), quartiles(head)
            cells = [f"{med:12.5g} [{q1:9.5g}, {q3:9.5g}]" for q1, med, q3 in (bq, hq)]
            ratio = hq[1] / bq[1] if bq[1] else float("nan")
            print(f"  {name:16s} {m['better']:6s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{won:>3d}/{len(base):<2d} {ratio:7.4f}  {call}")
        print("  failed/attempted ops: " + ", ".join(
            f"{s} {ops[w][s][0]}/{ops[w][s][1]}" for s in sides))
    print("ab: reruns: " + ("; ".join(log) if log else "none"))
    if args.out:
        Path(args.out).write_text(json.dumps({"base": sha, "seeds": seeds, "runs": raw,
                                              "ops": ops, "reruns": log}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
