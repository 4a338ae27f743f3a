#!/usr/bin/env python3
"""SimBench steadiness tool: run each workload repeatedly, exactly as the
benchmark is invoked, and print each end-to-end metric's median, quartiles
and spread (interquartile range / median).

    python3 simbench/steady.py [--workloads a,b] [--runs 10] [--seconds S]

Run i uses seed i (1, 2, ..., runs). A metric is flagged when its spread
exceeds a tenth, or a third of its bound in BENCHMARK.json; the exit status
is 1 if any metric is flagged.
Per-run values are appended as JSON lines to .bench_build/simbench/steady.jsonl
so two sets of runs can be compared afterwards.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("steady: run failed: " + " ".join(cmd))
    res = json.loads(lines[-1])
    res["elapsed_s"] = time.monotonic() - t0
    return res


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = ROOT / ".bench_build" / "simbench" / "steady.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    flagged = []
    for w in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            r = one_run(w, seed, args.seconds)
            runs.append(r)
            with open(log, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed,
                                    "elapsed_s": r["elapsed_s"],
                                    "metrics": {k: v["value"] for k, v in
                                                r["metrics"].items()}}) + "\n")
        print("== %s: %d runs, %.0f s per run" % (
            w, len(runs), statistics.mean(r["elapsed_s"] for r in runs)))
        print("  %-18s %14s %14s %14s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            limit = min(0.10, bounds[name] / 3)
            mark = "" if spread <= limit else "  <-- exceeds %.3f" % limit
            if mark:
                flagged.append((w, name, spread))
            print("  %-18s %14.6g %14.6g %14.6g %8.4f %6.3f%s" % (
                name, q1, med, q3, spread, bounds[name], mark))
    for w, name, spread in flagged:
        print("FLAGGED %s %s spread %.4f" % (w, name, spread))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
