#!/usr/bin/env python3
"""Repository benchmark: builds the runner from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The runner (perfbench/runner, built by
perfbench/CMakeLists.txt against ../src) is compiled into .bench_build/ on
first use.  Workload sizes are constants in each workload's source
(perfbench/runner/<workload>.cpp; --tiny picks the self-test's sizes);
metric names and units come from BENCHMARK.json.  With --trace 0 the result carries every
end-to-end metric, with --trace 1 every per-layer metric.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.  Lines before it give the host
fingerprint, the correctness gates, and each metric's median and quartiles —
within this run (repetitions) and across all runs recorded in this checkout
(.bench_build/perfbench_runs.jsonl).  Exit codes: 0 ok, 1 build or runner
failure (no result printed), 2 a correctness gate failed, 3 a metric named in
BENCHMARK.json is missing from the runner's output.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build the runner; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return None
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "perfbench_runner"])
    with open(log_path, "a") as logf:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log(f"build failed ({' '.join(cmd)}); see {log_path}")
                return None
    return os.path.join(out_dir, "perfbench_runner")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="use the workload's tiny sizes (self-test)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 1

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1

    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--tiny={int(args.tiny)}", f"--trace-out={trace_out}"]
    env = {k: v for k, v in os.environ.items() if k != "MDA_UCR_DIR"}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner timed out after {RUNNER_TIMEOUT_S} s")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"runner failed with exit code {proc.returncode}")
        return 1
    out = json.loads(lines[-1])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        v = out["metrics"].get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if missing:
        log(f"metrics missing from the runner output: {', '.join(missing)}")
        return 3

    # History across runs of this checkout, for the across-run quartiles.
    history_path = os.path.join(os.path.dirname(out_dir), "perfbench_runs.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny,
              "metrics": {k: v["value"] for k, v in metrics.items()}}
    with open(history_path, "a") as f:
        f.write(json.dumps(record) + "\n")
    runs = []
    with open(history_path) as f:
        for line in f:
            r = json.loads(line)
            if (r["workload"], r["trace"], r.get("tiny", False)) == \
                    (args.workload, args.trace, args.tiny):
                runs.append(r["metrics"])

    others = {k: v for k, v in sorted(out["metrics"].items()) if k not in metrics}
    print(json.dumps({"fingerprint": out["fingerprint"],
                      "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "gates": out["gates"],
                      "info": out["info"], "other_metrics": others}))
    within = {}
    for name, vals in out["samples"].items():
        q1, q2, q3 = quartiles(vals)
        within[name] = {"n": len(vals), "q1": q1, "median": q2, "q3": q3}
    across = {}
    for m in wanted:
        vals = [r[m["name"]] for r in runs if m["name"] in r]
        q1, q2, q3 = quartiles(vals)
        across[m["name"]] = {"n": len(vals), "q1": q1, "median": q2, "q3": q3,
                             "unit": m["unit"]}
    print(json.dumps({"within_run": within, "across_runs": across}))

    result = {"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 2


if __name__ == "__main__":
    sys.exit(main())
