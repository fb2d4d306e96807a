#!/usr/bin/env bash
# Builds the benchmark once (release, offline) and runs it. With no
# arguments it runs `run`: all four workloads, end-to-end metrics, verdicts
# checked against the oracle. Other arguments are passed through, e.g.
#   benchmark/run.sh trace --seed 7
#   benchmark/run.sh check --seed 7
#   benchmark/run.sh --workload hot_query --seed 1 --seconds 28 --trace 0
# The build goes to benchmark/target unless CARGO_TARGET_DIR says otherwise,
# so a parent commit and a change can each be built once, in checkouts or
# target directories of their own, and their binaries alternated.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml"
if [ "$#" -eq 0 ]; then
    set -- run
fi
exec "$target/release/rvaas-benchmark" "$@"
