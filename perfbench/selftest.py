#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at its tiny sizes (run.py
--tiny), once untraced and once traced, and fails
(exit 1) when a run does not exit cleanly, a correctness gate fails, or any
end-to-end / per-layer metric named in BENCHMARK.json is missing from the
result or carries no unit.  It also checks that workloads.json documents
every workload (reason, layers stressed and bypassed, seed argument).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        docs = json.load(f)["workloads"]
    errors = []
    for w in bench["workloads"]:
        name = w["name"]
        doc = docs.get(name)
        if doc is None:
            errors.append(f"{name}: not described in workloads.json")
            continue
        for key in ("why", "loop", "stresses", "bypasses", "seed_argument"):
            if not doc.get(key):
                errors.append(f"{name}: workloads.json lacks '{key}'")
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{name} trace={trace}: exit code {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{name} trace={trace}: result keys {sorted(result)}")
            if not result.get("correct"):
                errors.append(f"{name} trace={trace}: a correctness gate failed")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None:
                    errors.append(f"{name} trace={trace}: missing {m['name']}")
                elif not got.get("unit") or got["unit"] != m["unit"]:
                    errors.append(f"{name} trace={trace}: {m['name']} has unit "
                                  f"{got.get('unit')!r}, want {m['unit']!r}")
            print(f"{name} trace={trace}: {len(result['metrics'])} metrics, "
                  f"correct={result['correct']}", flush=True)
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
