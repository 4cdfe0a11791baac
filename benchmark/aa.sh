#!/usr/bin/env bash
# A/A check: two sets of runs of the same code must agree within the
# benchmark's own bounds on every end-to-end metric, with identical
# sim_digests.
#
#   benchmark/aa.sh [RUNS [SEED [SECONDS]]]
#
# Runs every workload RUNS times per set (seeds SEED, SEED+1, ...; default
# 10 runs from seed 1, run_seconds each) and compares the sets. Exits
# non-zero when `compare` finds anything worse. A metric that cannot pass
# here within its bound belongs with the per-layer metrics, not under a
# wider bound.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
runs="${1:-10}"
seed="${2:-1}"
seconds="${3:-}"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/sara-benchmark"
args=(run --runs "$runs" --seed "$seed")
if [ -n "$seconds" ]; then args+=(--seconds "$seconds"); fi

"$bin" "${args[@]}" --out "$here/out/aa-A.json"
"$bin" "${args[@]}" --out "$here/out/aa-B.json"
"$bin" compare "$here/out/aa-A.json" "$here/out/aa-B.json"
