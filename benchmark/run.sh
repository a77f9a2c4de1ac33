#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in this process; the last stdout line is the result
#       object {"correct","attempted","failed","metrics"}.
#   benchmark/run.sh [--seed S] [--trace] [--quick]
#       all six workloads, each in a fresh child process.
#   benchmark/run.sh --selfcheck [--quick]
#       the untraced suite twice, compared against each metric's bound.
#   benchmark/run.sh --update-golden
#       re-take the seed-1 digests into benchmark/golden.json.
#
# Exit code: 0 when every correctness check held, non-zero otherwise (also
# when the build fails, e.g. in a tree without ../crates).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# A workload sees only the knobs it sets itself.
unset MOBIDIST_JOBS MOBIDIST_SHARDS MOBIDIST_DELIVERY MOBIDIST_CACHE MOBIDIST_TRACE

# Build output goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

target="${CARGO_TARGET_DIR:-benchmark/target}"
export BENCH_DIR="$here"
export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/mobidist-benchmark" "$@"
