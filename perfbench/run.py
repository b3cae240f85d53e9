#!/usr/bin/env python3
"""Entry point of the share-group benchmark (see NOTES.md).

    python3 perfbench/run.py --workload shm_pool --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke [--workload shm_pool]

Builds the kernel library and the workload driver from this checkout's
sources in the perf configuration (into .bench_build/perfbench), runs one
workload in a fresh process, and prints provenance, the per-trial table and
every metric, then the result JSON as the last line. --smoke is the
benchmark's own test: a short traced trial per workload that asserts zero
failed ops, clean teardown, nested spans and the predicted counter zeros.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "sgbench"
WORKLOADS = ("fd_share", "shm_pool", "shm_swap")
RUN_TIMEOUT_S = 170  # a benchmark run must end within 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no kernel sources at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", str(BUILD), "--parallel", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def provenance():
    sha = "none"
    if (ROOT / ".git").exists() and shutil.which("git") is not None:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    # The checkout may not be a git repository: a digest of what was built
    # identifies the code either way.
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return f"git_sha={sha} source_sha256={h.hexdigest()[:16]}"


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}.tsv")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"sgbench exited with {r.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail(f"metrics {sorted(set(result['metrics']) ^ want)} disagree with BENCHMARK.json")
    print(f"provenance {provenance()} nproc={os.cpu_count()} "
          f"usable_cores={len(os.sched_getaffinity(0))} workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


def smoke(workloads):
    bad = 0
    for w in workloads:
        r = subprocess.run([str(BINARY), "--smoke", "--workload", w, "--seed", "1"],
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        sys.stdout.write(r.stdout)
        sys.stderr.write(r.stderr)
        if r.returncode != 0:
            print(f"smoke {w}: FAIL (exit {r.returncode})")
            bad += 1
    print("smoke: all passed" if bad == 0 else f"smoke: {bad} workload(s) failed")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    build()
    if args.smoke:
        return smoke([args.workload] if args.workload else WORKLOADS)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
