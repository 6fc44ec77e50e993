#!/usr/bin/env bash
# Run the whole suite twice with the same code and the same arguments, print
# every end-to-end metric of both sets with their relative gap, and fail if a
# gap exceeds the metric's bound in BENCHMARK.json or if the two sets
# disagree on an ensemble digest or a posterior RMSE. The `tts_*` bounds in
# BENCHMARK.json were fixed from runs of this script (see RESULTS.md).
#
#   benchmark/repeat.sh [--seed N] [--seconds S] [--threads T]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
"$here/run.sh" "$@" --out-dir "$here/out/set-a"
"$here/run.sh" "$@" --out-dir "$here/out/set-b"
"$here/run.sh" compare "$here/out/set-a/results.json" "$here/out/set-b/results.json" \
    --bounds "$here/../BENCHMARK.json"
