#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests.
#
# Run from the repository root:
#   ./ci/check.sh            # full gate
#   ./ci/check.sh --fast     # skip the release build, the release gates
#                            # and the benchmark gate
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> doc-consistency gate"
# Every experiment the bench crate defines must have a README.md row and an
# EXPERIMENTS.md section, and every mobility pattern and fault kind a mention
# in SCENARIOS.md: tests/doc_gates.rs, under `cargo test` below. (So is the
# trace schema's doc gate: mobidist-net's
# `observability_md_documents_exactly_the_tables` compares OBSERVABILITY.md
# with the schema tables in crates/net/src/obs.rs.)
# Every MOBIDIST_* knob the docs, Makefile, CI or skills name must be read
# somewhere in the source (CHANGES.md and ROADMAP.md are history, ISSUE.md
# and REVIEW.md are per-PR task files, benchmark/ has its own gate).
# tests/doc_gates.rs checks that, and that every knob read is documented;
# the list below feeds the retired-variable check further down.
knob_docs=$(ls ./*.md | grep -v -e '/CHANGES\.md$' -e '/ROADMAP\.md$' -e '/ISSUE\.md$' -e '/REVIEW\.md$')
# (Every `make` target and `--bin` that README.md, DESIGN.md or the verify
# skill tells the reader to run must exist: tests/doc_gates.rs, under
# `cargo test` below.)
# `experiments` is the one launcher: the per-experiment bench targets and
# their quick-mode variable are gone and must not creep back. (The name is
# spelled in two halves so this file passes its own gate.)
if grep -rn "MOBIDIST""_QUICK" crates src tests examples Makefile ci .claude/skills $knob_docs; then
  echo "doc gate: the quick-mode variable is retired (use \`experiments ... --quick\`)" >&2; exit 1
fi
if grep -n '\[\[bench\]\]' crates/bench/Cargo.toml; then
  echo "doc gate: crates/bench has a [[bench]] target again (use \`make bench\`)" >&2; exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --workspace --release
fi

# benchmark/ is its own workspace and compiles against the crates' public
# API; type-check it (tests included) here, so a break of that surface fails
# in seconds instead of at the release benchmark gate at the very end.
echo "==> benchmark surface check"
cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets
# The adapters compare the public views the benchmark reads (the episode
# log's `==` and iteration among them), so they run here, not only in the
# benchmark's own check.
cargo test --offline --manifest-path benchmark/Cargo.toml --test adapters -q

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test"
cargo test --workspace -q

if [[ $fast -eq 0 ]]; then
  # Every suite again with optimizations on, since that is how experiment
  # tables are produced: wheel vs reference heap, batched delivery vs its
  # per-event reference (and its zero-allocation steady state), the shard
  # equivalence pins, and the bench crate's differential table over jobs,
  # shards and trace. The whole workspace rather than a hand-kept
  # list, so a new suite cannot be forgotten in release mode.
  echo "==> cargo test --release"
  cargo test --workspace --release -q

  # Scratch space for the table comparisons below.
  scratch="$(mktemp -d)"
  trap 'rm -rf "$scratch"' EXIT

  # Shard-soundness gate: the space-sharded kernel must produce
  # byte-identical results at every worker count (the release-mode test
  # run above covers ledgers, digests and the pinned per-shard trace
  # order). Two legs here:
  #   1. E12's quick table, 1 shard vs 2 (what the benchmark's churn_1m
  #      runs), 3 (uneven cell division) and 4 shards, cmp'd byte-for-byte;
  #   2. the million-host smoke under its 160 MiB peak-RSS ceiling (it
  #      reads 44-51 MiB at 1-8 workers), at 4 workers and at 1 — one
  #      worker holds the whole million-host wheel arena in a single Vec,
  #      the worst case for its growth. The 1-worker run is timed: it is
  #      also the throughput-sanity leg's baseline.
  echo "==> shard-soundness gate"
  ./target/release/experiments e12 --quick --shards 1 > "$scratch/shard1.txt"
  for s in 2 3 4; do
    ./target/release/experiments e12 --quick --shards $s > "$scratch/shard$s.txt"
    cmp "$scratch/shard1.txt" "$scratch/shard$s.txt" || {
      echo "shard gate: $s-shard table differs from the 1-shard run" >&2; exit 1; }
  done
  ./target/release/scalecheck --shards 4
  t0=$(date +%s%N)
  ./target/release/scalecheck --shards 1
  one_ms=$(( ($(date +%s%N) - t0) / 1000000 ))

  # Trace-soundness gate: tracereport --check on a traced run, so the
  # trace/ledger reconciliation identities hold with coalescing on. The
  # experiment list lives in the Makefile's tracecheck target, so the
  # canned check and this gate cannot drift apart.
  echo "==> trace-soundness gate"
  make --no-print-directory tracecheck

  # Sweep fan-out gate: every table that fans its runs out through
  # map_indexed_with (E12 shards inside one run and has its own gate; E13 is
  # in differential.rs's jobs row) must print the same bytes on one worker —
  # the calling thread alone — as on every CPU. On a multi-core machine the
  # parallel pass must also not be slower than the one-worker pass, or the
  # fan-out costs more than it buys; a 1-CPU runner clamps --jobs to 1
  # anyway, so there the timing check is skipped.
  echo "==> sweep fan-out gate"
  cpus=$(nproc 2>/dev/null || echo 1)
  sweep_exps="e0 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e14"
  t0=$(date +%s%N)
  ./target/release/experiments $sweep_exps --jobs 1 > "$scratch/jobs1.txt"
  t1=$(date +%s%N)
  ./target/release/experiments $sweep_exps --jobs "$cpus" > "$scratch/jobsP.txt"
  t2=$(date +%s%N)
  cmp "$scratch/jobs1.txt" "$scratch/jobsP.txt" || {
    echo "sweep gate: --jobs $cpus tables differ from --jobs 1" >&2; exit 1; }
  seq_ms=$(( (t1 - t0) / 1000000 ))
  par_ms=$(( (t2 - t1) / 1000000 ))
  if (( cpus > 1 )); then
    echo "    --jobs 1 ${seq_ms} ms, --jobs ${cpus} ${par_ms} ms"
    if (( par_ms > seq_ms )); then
      echo "sweep gate: --jobs ${cpus} (${par_ms} ms) slower than --jobs 1 (${seq_ms} ms)" >&2
      exit 1
    fi
  else
    echo "==> sweep fan-out timing check skipped: cpus == 1 (fan-out cannot beat a single CPU)"
  fi

  # Throughput-sanity leg: on a multi-core machine the 8-shard million-host
  # point must not be slower than the 1-shard run by more than 2x — a sync
  # layer whose overhead swamps the parallelism would pass every
  # bit-identity leg above while silently defeating the point of sharding.
  # It times scalecheck (seconds of work), not quick E12: a 20 ms run
  # measures thread spawn and parking, not the sync layer. The 1-shard
  # time is the shard-soundness gate's run above. A 1-CPU runner
  # time-slices the workers, so there the leg is skipped.
  if (( cpus > 1 )); then
    echo "==> shard throughput-sanity gate"
    t0=$(date +%s%N)
    ./target/release/scalecheck --shards 8 > /dev/null
    eight_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
    echo "    1-shard ${one_ms} ms, 8-shard ${eight_ms} ms"
    if (( eight_ms > one_ms * 2 )); then
      echo "shard gate: 8-shard scalecheck (${eight_ms} ms) more than 2x slower than 1-shard (${one_ms} ms)" >&2
      exit 1
    fi
  else
    echo "==> shard throughput-sanity gate skipped: cpus == 1 (fan-out cannot beat a single CPU)"
  fi

  # The benchmark package is its own workspace, so nothing above builds or
  # tests it: run its gate (fmt, clippy, tests, quick suite, BENCHMARK.json
  # contract) so a crate API change cannot silently break the benchmark.
  echo "==> benchmark gate"
  ./benchmark/check.sh
fi

echo "==> OK"
