#!/usr/bin/env python3
"""SimBench self-check at reduced scale (about a minute).

    python3 simbench/selfcheck.py

Asserts that
  * the metric lists in BENCHMARK.json and in the binary agree (names and
    units; end-to-end = host + sim, per-layer = layer);
  * every workload in BENCHMARK.json is one the binary knows;
  * on each workload, run.py --trace 0 emits every end-to-end metric with
    its unit and --trace 1 every per-layer metric with its unit, both
    reporting correct (which includes traced digest == untraced digest);
  * a deliberately corrupted digest makes the run fail (exit status 1,
    "correct": false).
Exit status 0 when every assertion holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the runner's build step)

# Population multipliers that keep >= 1000 samples in every procedure class.
SCALE = {"s1_steady": 0.25, "geo_chaos": 0.25, "storm_1m": 0.2}
SEED = 7

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def invoke(workload, trace, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", str(SCALE.get(workload, 0.25))] + list(extra)
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        res = None
    if res is None:
        sys.stderr.write(out.stdout + out.stderr)
    return out.returncode, res, out.stdout


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = run.build()
    table = {m["name"]: m for m in meta["metrics"]}

    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    bin_e2e = {n: m["unit"] for n, m in table.items() if m["tag"] != "layer"}
    bin_layer = {n: m["unit"] for n, m in table.items() if m["tag"] == "layer"}
    expect(e2e == bin_e2e, "end_to_end metrics of BENCHMARK.json == binary "
           "host+sim metrics (%d)" % len(bin_e2e))
    expect(layer == bin_layer, "per_layer metrics of BENCHMARK.json == binary "
           "layer metrics (%d)" % len(bin_layer))
    names = [w["name"] for w in bench["workloads"]]
    expect(set(names) <= set(meta["workloads"]),
           "BENCHMARK.json workloads %s known to the binary" % names)
    print("build: %s" % meta["build"])

    for w in names:
        for trace, want in ((0, e2e), (1, layer)):
            rc, res, text = invoke(w, trace)
            expect(rc == 0 and res is not None and res["correct"],
                   "%s --trace %d runs correct" % (w, trace))
            if res is None:
                continue
            got = res["metrics"]
            missing = [n for n in want if n not in got]
            wrong = [n for n in want if n in got and got[n]["unit"] != want[n]]
            expect(not missing and not wrong,
                   "%s --trace %d emits every metric with its unit "
                   "(missing %s, wrong unit %s)" % (w, trace, missing, wrong))
            if rc != 0:
                sys.stdout.write(text)

    rc, res, _ = invoke(names[0], 0, ["--corrupt-digest"])
    expect(rc == 1 and res is not None and not res["correct"],
           "a corrupted digest fails the run (exit %d)" % rc)

    print("selfcheck: %s" % ("PASS" if not failures else
                             "%d FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
