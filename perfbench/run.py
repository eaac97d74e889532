#!/usr/bin/env python3
"""The repo benchmark: build the driver, run one workload, check, summarize.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --emit-benchmark-json     # print BENCHMARK.json

The driver (perfbench/driver, CMake package perfbench/CMakeLists.txt) is
built from source into $CARGO_TARGET_DIR, default .bench_build. --trace 0
measures the end-to-end metrics, in up to PARTS driver processes run one
after another that share the seconds; --trace 1 runs one process that
splits its seconds into an untraced and a traced half and reports the
per-layer metrics. Every run writes its
result (seed, full workload configuration, metrics with units and sample
counts) to <out>/results/<workload>/seed-<n>.trace-<t>.json for
perfbench/compare.py, and prints one JSON object as its last stdout line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A wrong output prints correct=false and exits 1.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import summary  # noqa: E402

ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hpp")):
        fail("no bpim sources next to perfbench/ (src/ is missing)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bpim_perfbench")


# Driver processes per untraced run, and the shortest part worth a process.
PARTS = 7
MIN_PART_SECONDS = 4.0
# Workloads whose correctness check is a statistic of the whole run's
# samples (the Monte Carlo's skew and CV bounds): one process, so that the
# check sees all of them.
WHOLE_RUN_CHECK = {"mc_bl_characterization"}


def run_driver(driver, args, seconds, work, part):
    raw_path = os.path.join(work, f"raw-{part}.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--raw", raw_path, "--trace-dir", os.path.join(work, "trace")]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=60 + 3 * seconds)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    with open(raw_path) as f:
        return json.load(f)


def run_parts(driver, args, work):
    """The raw record of the run. An untraced run is PARTS processes (fewer
    when --seconds is short), each on the same seed: on the reference box a
    process often runs at one speed for most of its life (see README.md),
    so one process per run would make each run a single draw of it."""
    if args.trace:
        return run_driver(driver, args, args.seconds, work, 0)
    parts = max(1, min(PARTS, int(args.seconds // MIN_PART_SECONDS)))
    if args.workload in WHOLE_RUN_CHECK:
        parts = 1
    raws = [run_driver(driver, args, args.seconds / parts, work, p) for p in range(parts)]
    raw = summary.merge_parts(raws)
    raw["config"] = dict(raw["config"], processes=parts)
    return raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in summary.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=summary.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                    help="result directory (default .bench_out)")
    ap.add_argument("--emit-benchmark-json", action="store_true")
    args = ap.parse_args()
    if args.emit_benchmark_json:
        print(json.dumps(summary.benchmark_json(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    driver = build()
    work = os.path.join(args.out, "tmp", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        raw = run_parts(driver, args, work)
        phases = raw["phases"].values()
        mismatches = sum(p["mismatches"] for p in phases)
        correct = mismatches == 0 and not raw["check"]
        try:
            if args.trace:
                chunks = sorted(glob.glob(os.path.join(work, "trace", "trace-*.json")),
                                key=lambda p: int(p.rsplit("-", 1)[1].split(".")[0]))
                metrics = summary.per_layer(raw, summary.load_trace(chunks))
            else:
                metrics = summary.end_to_end(raw)
        except summary.NotEnoughSamples as e:
            fail(f"run too short for the percentile rule: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": raw["config"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "mismatches": mismatches, "check": raw["check"],
        "first_mismatch": next((p["first_mismatch"] for p in phases if p["first_mismatch"]), ""),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    res_dir = os.path.join(args.out, "results", args.workload)
    os.makedirs(res_dir, exist_ok=True)
    with open(os.path.join(res_dir, f"seed-{args.seed}.trace-{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("config " + json.dumps(raw["config"], sort_keys=True))
    for k, (v, u, n) in metrics.items():
        print(f"  {k:40s} {v:16.6f} {u:10s} (n={n})")
    if not correct:
        print("CHECK FAILED: " + (result["first_mismatch"] or raw["check"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
