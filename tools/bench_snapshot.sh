#!/usr/bin/env bash
# Regenerates the benchmark snapshot (BENCH_pr4.json by default): the
# scalar-vs-batched cost-model sweep and the build's wall time over the
# fig. 3/4/5 workload shapes, plus the serve-throughput-vs-readers series
# (simulated cycles + wall time). The
# simulated series are deterministic — same dataset, same cost model, same
# numbers on any host — which is what lets tools/check_bench_regression.sh
# gate on them. Wall numbers are host-dependent context, never gated on.
#
# Also regenerates the workload scenario matrix (BENCH_pr7.json): every
# wfbn-workload scenario replayed with the fairness/latency SLO gates
# enforced, plus the deterministic stream fingerprints and sim cycles the
# regression checker pins. Skip it with BENCH_PR7_OUT=skip.
#
# Usage: tools/bench_snapshot.sh [extra bench_snapshot flags...]
#   e.g. tools/bench_snapshot.sh --samples 200000 --reps 9
#   BENCH_OUT=BENCH_custom.json tools/bench_snapshot.sh   # override target
#   BENCH_PR7_OUT=BENCH_custom7.json / BENCH_PR7_OUT=skip # matrix target
set -euo pipefail
cd "$(dirname "$0")/.."

out=${BENCH_OUT:-BENCH_pr4.json}
pr7_out=${BENCH_PR7_OUT:-BENCH_pr7.json}
pr9_out=${BENCH_PR9_OUT:-BENCH_pr9.json}
cargo build --release -p wfbn-bench --bin bench_snapshot --bin scenario_matrix \
    --bin cluster_bench
./target/release/bench_snapshot --out "$out" "$@"
echo "bench_snapshot: wrote $out"
if [[ $pr7_out != skip ]]; then
    # Full replay (not --sim-only): the committed snapshot carries the
    # wall percentiles for EXPERIMENTS.md, and a gate failure fails the
    # re-baseline — a snapshot that violates its own SLOs must not land.
    ./target/release/scenario_matrix --out "$pr7_out"
    echo "bench_snapshot: wrote $pr7_out"
fi
if [[ $pr9_out != skip ]]; then
    # Full run (not --sim-only): the committed snapshot carries the wall
    # qps series for EXPERIMENTS.md, and the binary itself fails the
    # re-baseline if cluster_s8_scaling drops below the 3x acceptance floor.
    ./target/release/cluster_bench --out "$pr9_out"
    echo "bench_snapshot: wrote $pr9_out"
fi
