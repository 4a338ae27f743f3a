#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): full -Werror build + complete test
# suite, then the complete suite again under ASan+UBSan — the chaos paths
# exercise retransmit-timer lambdas, PDU aliasing across endpoints, and
# crash/deregistration races that only the sanitizers can vouch for, and
# every other test gets the same instrumented run.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

cmake -B build -S . -DSCALE_WERROR=ON >/dev/null
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

# Lint leg (DESIGN.md §6): ScaleLint rules L1-L8 over the tree — emitting
# the scale-lint-v1 report and diffing it against the committed
# LINT_baseline.json, so NEW findings and NEW waivers fail tier-1 (not just
# nonzero exits) — then clang-tidy via the exported compile commands.
scripts/lint.sh build

# Bench-smoke leg (DESIGN.md "Observability"): one cheap bench emits its
# scale-bench-v1 JSON and the in-tree checker validates it, so a schema
# regression in obs::Report fails the gate before any plotting script sees it.
build/bench/fig6_analysis --json build/BENCH_fig6_analysis.json >/dev/null
build/tools/obs/bench_json_check build/BENCH_fig6_analysis.json
build/bench/ablation_overload --json build/BENCH_ablation_overload.json \
  >/dev/null
build/tools/obs/bench_json_check build/BENCH_ablation_overload.json
# Full (non-quick) run: the binary's exit code enforces the steering win
# condition (an alternative policy beating the ring under the slow-VM
# script), so a regression in any policy fails tier-1 here.
build/bench/ablation_steering --json build/BENCH_ablation_steering.json \
  >/dev/null
build/tools/obs/bench_json_check build/BENCH_ablation_steering.json
# Full run: exit code asserts the measured SR/attach queueing delays sit in
# the analytic M/M/k / M/D/k / M/D/1-split brackets (bench/fig12_mmk.cpp).
build/bench/fig12_mmk --json build/BENCH_fig12_mmk.json >/dev/null
build/tools/obs/bench_json_check build/BENCH_fig12_mmk.json

# Perf-smoke leg (DESIGN.md §8): run the hot-path microbench and diff its
# allocation counters against the committed baseline. Alloc counts — not
# wall times — are the gate: they are deterministic, so "someone put a heap
# allocation back on the event path" fails tier-1 on any machine. The same
# full (non-quick) run holds fig10's world at 10⁶ UEs: the binary's exit
# code enforces the §12 bytes-per-UE budget, and --compare-capacity gates
# peak RSS (≤1.15× baseline) and events/s (≥0.4× baseline).
build/bench/perf_core --json build/BENCH_core_now.json >/dev/null
build/tools/obs/bench_json_check build/BENCH_core_now.json
build/tools/obs/bench_json_check --compare-allocs BENCH_core.json \
  build/BENCH_core_now.json
build/tools/obs/bench_json_check --compare-capacity BENCH_core.json \
  build/BENCH_core_now.json

cmake -B build-asan -S . -DSCALE_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j"${JOBS}"
(cd build-asan && ctest --output-on-failure -j"${JOBS}")
# MillionUE smoke under ASan+UBSan: the same capacity phases at 100 K UEs
# (--quick skips the absolute bytes-per-UE assert — sanitizer shadow memory
# inflates RSS) — slab growth, FlatIndex churn, and the storm's index
# reassignment paths all run instrumented.
build-asan/bench/perf_core --quick >/dev/null

echo "tier-1: OK"
