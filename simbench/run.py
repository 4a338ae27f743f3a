#!/usr/bin/env python3
"""SimBench runner: build the simulator the way the repository builds it,
run one workload, check its outputs and print its metrics.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is compiled by the
repository's own CMake configuration (hook.cmake adds the target to the
top-level project), in .bench_build/simbench.

A benchmark seed n stands for SUBSEEDS simulated worlds (sub-seeds
SUBSEEDS*n + k). --trace 0 runs cold repetitions (one process each),
cycling through the worlds, for about --seconds and prints the end-to-end
metrics: host metrics are the median over repetitions, sim metrics come
from the worlds' delay samples pooled, and every repetition of a world
must reproduce its digest. --trace 1 runs one untraced and one traced
repetition of the first world, checks that their simulated results are
identical and prints the per-layer metrics. The last line of stdout is
one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count repetitions (whole simulated runs) and a
repetition fails when any of its output checks fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "simbench"
BINARY = BUILD / "simbench"
SUBSEEDS = 3
MAX_REPS = 60
REP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("simbench: " + msg)
    sys.exit(code)


# --------------------------------------------------------------------- build

def _link_state(path):
    if path.is_symlink():
        return ("link", os.readlink(path))
    if path.exists():
        return ("file", None)
    return ("absent", None)


def _restore_link(path, state):
    """Configuring the top-level project re-points the untracked root
    compile_commands.json symlink at the configured build tree; put back
    what was there before."""
    kind, target = state
    if kind == "file":
        return
    if path.is_symlink() or path.exists():
        if kind == "link" and path.is_symlink() and os.readlink(path) == target:
            return
        path.unlink()
    if kind == "link":
        os.symlink(target, path)


def _cmake(args, logfile):
    link = ROOT / "compile_commands.json"
    state = _link_state(link)
    try:
        with open(logfile, "a") as out:
            rc = subprocess.call(["cmake"] + args, stdout=out,
                                 stderr=subprocess.STDOUT, cwd=ROOT)
    finally:
        _restore_link(link, state)
    if rc != 0:
        tail = Path(logfile).read_text(errors="replace").splitlines()[-30:]
        log("\n".join(tail))
        fail("cmake %s failed (log: %s)" % (args[0], logfile))


def build():
    """Configure (once) and build the benchmark target with the repository's
    default build type; returns the binary's build description."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no repository sources next to %s; nothing to build" % HERE)
    BUILD.mkdir(parents=True, exist_ok=True)
    logfile = BUILD / "build.log"
    if not (BUILD / "CMakeCache.txt").is_file():
        _cmake(["-S", str(ROOT), "-B", str(BUILD),
                "-DCMAKE_PROJECT_INCLUDE=" + str(HERE / "hook.cmake")], logfile)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    _cmake(["--build", str(BUILD), "--target", "simbench", "-j", jobs], logfile)
    if not BINARY.is_file():
        fail("build produced no %s" % BINARY)
    return table()


def table():
    out = subprocess.run([str(BINARY), "--list-metrics"], capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- repetitions

def rep(workload, seed, traced=False, scale=None, corrupt=False):
    """One cold repetition in its own process; returns its JSON result
    (delay samples included) with the exit status under "rc"."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--traced", "--spans",
                str(BUILD / ("spans-%s-%d.json" % (workload, seed)))]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    if corrupt:
        cmd.append("--corrupt-digest")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stderr)
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    res = json.loads(lines[-1])
    res["rc"] = proc.returncode
    res["host_s"] = time.monotonic() - t0
    return res


def rep_problems(r):
    probs = list(r["failures"])
    if r["rc"] != 0 and not probs:
        probs.append("exit status %d" % r["rc"])
    return probs


def nearest_rank(xs, q):
    """The q-quantile of sorted xs, nearest rank (as PercentileSampler)."""
    return xs[max(1, math.ceil(q * len(xs))) - 1]


def pooled_sim(worlds, procs):
    """Sim metrics over the delay samples of all the seed's worlds pooled.
    A p99 is reported only with at least 10 samples beyond it."""
    buckets = {}
    for r in worlds:
        for name, xs in r["samples"].items():
            buckets.setdefault(name, []).extend(xs)
    every = sorted(x for xs in buckets.values() for x in xs)
    out = {}
    if len(every) >= 1000:
        out["delay_p50_ms"] = nearest_rank(every, 0.50)
        out["delay_p99_ms"] = nearest_rank(every, 0.99)
    for metric, bucket in (("attach_p99_ms", "attach"),
                           ("sr_p99_ms", "service_request"),
                           ("tau_p99_ms", "tau")):
        xs = sorted(buckets.get(bucket, []))
        if len(xs) >= 1000:
            out[metric] = nearest_rank(xs, 0.99)
    if procs["attempted"]:
        out["proc_ok_ratio"] = procs["completed"] / procs["attempted"]
    return out


def sub_seeds(seed):
    """The SUBSEEDS simulated worlds one benchmark seed stands for."""
    return [(seed * SUBSEEDS + k) % 2**64 for k in range(SUBSEEDS)]


def end_to_end(meta, workload, seed, seconds, scale=None, corrupt=False):
    """Cold repetitions for about `seconds`, cycling through the seed's
    sub-seeds (each at least twice); returns (metrics, info)."""
    seeds = sub_seeds(seed)
    start = time.monotonic()
    reps = []
    while len(reps) < MAX_REPS:
        elapsed = time.monotonic() - start
        if len(reps) >= 2 * SUBSEEDS and len(reps) % SUBSEEDS == 0:
            typical = statistics.median(r["host_s"] for r in reps)
            if elapsed + SUBSEEDS * typical > seconds:
                break
        # The corrupted digest stands in for one repetition that disagrees.
        r = rep(workload, seeds[len(reps) % SUBSEEDS], scale=scale,
                corrupt=corrupt and len(reps) == SUBSEEDS)
        if len(reps) >= SUBSEEDS:
            del r["samples"]  # the first round's are pooled; these repeat them
        reps.append(r)
    problems = []
    for i, r in enumerate(reps):
        problems += ["rep %d: %s" % (i, p) for p in rep_problems(r)]
        first = reps[i % SUBSEEDS]
        if r["digest"] != first["digest"]:
            problems.append("rep %d: digest %s differs from rep %d's %s "
                            "(same seed)" % (i, r["digest"], i % SUBSEEDS,
                                             first["digest"]))
    procs = {k: sum(r["counts"][k] for r in reps[:SUBSEEDS])
             for k in reps[0]["counts"]}
    sim = pooled_sim(reps[:SUBSEEDS], procs)
    metrics = {}
    for m in meta["metrics"]:
        name = m["name"]
        if m["tag"] == "host":
            value = statistics.median(r["metrics"][name] for r in reps)
        elif m["tag"] == "sim":
            value = sim.get(name)
        else:
            continue
        if value is None:
            problems.append("%s absent (too few samples beyond its p99)" % name)
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}
    info = {"reps": len(reps), "procedures": procs, "problems": problems,
            "failed_reps": sum(1 for r in reps if rep_problems(r)),
            "digest": " ".join(r["digest"] for r in reps[:SUBSEEDS])}
    return metrics, info


def per_layer(meta, workload, seed, scale=None):
    """One untraced and one traced repetition; returns (metrics, info)."""
    seed = sub_seeds(seed)[0]
    plain = rep(workload, seed, scale=scale)
    traced = rep(workload, seed, traced=True, scale=scale)
    problems = ["untraced: " + p for p in rep_problems(plain)]
    problems += ["traced: " + p for p in rep_problems(traced)]
    if plain["digest"] != traced["digest"]:
        problems.append("traced digest %s differs from untraced %s"
                        % (traced["digest"], plain["digest"]))
    pm, tm = plain["metrics"], traced["metrics"]
    window = pm["window_s"]
    attributed = tm.get("run.attributed_s", 0.0)
    derived = {
        "sim.engine.host_ns_per_event":
            window * 1e9 / max(1, plain["counts"]["window_events"]),
        "run.trace_overhead_s": tm["window_s"] - window,
        "run.attributed_share": attributed / window,
        "run.unattributed_s": window - attributed,
    }
    metrics = {}
    for m in meta["metrics"]:
        if m["tag"] != "layer":
            continue
        name = m["name"]
        value = derived[name] if name in derived else tm.get(name)
        if value is None:
            problems.append("per-layer metric %s not emitted" % name)
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}
    info = {"reps": 2, "procedures": traced["counts"], "problems": problems,
            "failed_reps": sum(1 for r in (plain, traced) if rep_problems(r)),
            "digest": traced["digest"]}
    return metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-check knobs (selfcheck.py): smaller worlds, a corrupted digest.
    ap.add_argument("--scale", type=float, default=None,
                    help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-digest", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    meta = build()
    if args.workload not in meta["workloads"]:
        fail("unknown workload %r (have %s)"
             % (args.workload, ", ".join(meta["workloads"])))
    if args.trace:
        metrics, info = per_layer(meta, args.workload, args.seed, args.scale)
    else:
        metrics, info = end_to_end(meta, args.workload, args.seed,
                                   args.seconds, scale=args.scale,
                                   corrupt=args.corrupt_digest)
    correct = not info["problems"]
    b = meta["build"]
    procs = info["procedures"]
    print("simbench: workload=%s seed=%d reps=%d digests=%s | compiler=%s "
          "build_type=%s flags=%s | procedures attempted=%d completed=%d "
          "failed=%d (failed_or_rejected=%d unfinished=%d)"
          % (args.workload, args.seed, info["reps"], info["digest"],
             b["compiler"], b["build_type"], b["flags"].strip(),
             procs["attempted"], procs["completed"], procs["failed"],
             procs["failed_or_rejected"], procs["unfinished"]))
    for name, m in metrics.items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for p in info["problems"]:
        print("  CHECK FAILED: " + p)
    print(json.dumps({"correct": correct, "attempted": info["reps"],
                      "failed": info["failed_reps"] if correct
                      else max(1, info["failed_reps"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
