#!/usr/bin/env bash
# Build the benchmark offline and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is its JSON result
#   benchmark/run.sh [--seed N] [--seconds S] [--threads T] [--workload W] [--smoke]
#       the whole suite; prints `workload metric value unit`, writes
#       benchmark/out/results.json, exits non-zero if a check fails
#   benchmark/run.sh compare A.json B.json --bounds BENCHMARK.json
#       what repeat.sh ends with
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/bda-benchmark"
if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
exec "$bin" --out-dir "$here/out" "$@"
