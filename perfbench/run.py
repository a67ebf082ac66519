#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the dfsim
library from ../src) into .bench_build/ at the checkout root, then runs one
workload and passes its output through; the last line is the JSON result.

    python3 perfbench/run.py --workload milc_pair --seed 1 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --record-digests

--all runs every workload untraced and traced, prints all metrics plus the
tracing overhead, and writes .bench_build/benchmark_results.json.
--record-digests re-captures perfbench/digests/ for the default seed (only
after a deliberate change to simulated results).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "dfsim_perfbench")
WORKLOADS = ["milc_pair", "hacc_full_sharded", "campaign_mixed"]
DEFAULT_SEED = 1


def build():
    """Configure once, then (re)build; build output goes to a log file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "ab") as log:
        if not any(os.path.exists(os.path.join(BUILD_DIR, f))
                   for f in ("build.ninja", "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cfg = subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=log, stderr=subprocess.STDOUT)
            if cfg.returncode != 0:
                return False
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        b = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=log, stderr=subprocess.STDOUT)
        return b.returncode == 0


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, record=None, echo=True):
    """Runs one workload in its own process; returns (exit code, last line)."""
    work = os.path.join(BUILD_DIR, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--commit", git_commit(),
           "--digests", os.path.join(BENCH_DIR, "digests", workload + ".txt")]
    if record:
        cmd += ["--record", record]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = ""
    for line in proc.stdout:
        if echo:
            sys.stdout.write(line)
            sys.stdout.flush()
        if line.strip():
            last = line.strip()
    code = proc.wait()
    spans = os.path.join(work, "spans.jsonl")
    if os.path.exists(spans):
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(traces, f"{workload}-seed{seed}.jsonl"))
    shutil.rmtree(work, ignore_errors=True)
    return code, last


def run_all(seed, seconds):
    results = {}
    ok = True
    for w in WORKLOADS:
        entry = {}
        for trace in (False, True):
            print(f"=== {w} ({'traced' if trace else 'untraced'}) ===",
                  flush=True)
            code, last = run_workload(w, seed, seconds, trace)
            try:
                res = json.loads(last) if code == 0 else None
            except json.JSONDecodeError:
                res = None
            if res is None:
                print(f"{w}: run failed (exit {code})", file=sys.stderr)
                return 1
            ok = ok and res["correct"]
            entry["traced" if trace else "untraced"] = res
        results[w] = entry
    print("=== summary ===")
    for w, e in results.items():
        m = e["untraced"]["metrics"]
        print(f"{w}: " + ", ".join(
            f"{k} {v['value']:.6g} {v['unit']}" for k, v in m.items()))
        u, t = e["untraced"], e["traced"]["metrics"]
        print(f"  fail_ratio {u['failed']}/{u['attempted']}, tracing "
              f"overhead {t['trace.overhead_pct']['value']:.1f} %")
    out = os.path.join(BUILD_DIR, "benchmark_results.json")
    with open(out, "w") as fh:
        json.dump({"seed": seed, "seconds": seconds, "commit": git_commit(),
                   "workloads": results}, fh, indent=1)
    print(f"wrote {out}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    a = ap.parse_args()
    if not (a.all or a.record_digests or a.workload):
        ap.error("give --workload, --all or --record-digests")
    if not build():
        print(f"build failed; see {os.path.join(BUILD_DIR, 'build.log')}",
              file=sys.stderr)
        return 1
    if a.all:
        return run_all(a.seed, a.seconds)
    if a.record_digests:
        for w in WORKLOADS:
            dest = os.path.join(BENCH_DIR, "digests", w + ".txt")
            code, last = run_workload(w, DEFAULT_SEED, a.seconds, False,
                                      record=dest, echo=False)
            print(f"{w}: exit {code} {last[:80]}")
        return 0
    return run_workload(a.workload, a.seed, a.seconds, a.trace == 1)[0]


if __name__ == "__main__":
    sys.exit(main())
