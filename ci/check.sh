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
# Every experiment the bench crate defines must be documented: a row in
# README.md's experiment table and a section in EXPERIMENTS.md. Ids are
# recovered from the `fn eN_*` entry points in crates/bench/src/exp_*.rs
# (plus e0, whose entry point is exp_model::run).
exp_ids="e0 $(grep -rho 'fn e[0-9]\+_' crates/bench/src/exp_*.rs | grep -o '[0-9]\+' | sort -un | sed 's/^/e/')"
for id in $exp_ids; do
  grep -q "| \`$id\` |" README.md || {
    echo "doc gate: $id has no row in README.md's experiment table" >&2; exit 1; }
  grep -qi "^## $id\b" EXPERIMENTS.md || {
    echo "doc gate: $id has no section in EXPERIMENTS.md" >&2; exit 1; }
done
# (The trace schema's doc gate is a test, not a grep: mobidist-net's
# `observability_md_documents_exactly_the_tables` compares OBSERVABILITY.md
# with the schema tables in crates/net/src/obs.rs under `cargo test` below.)
# Every mobility pattern and fault kind must be documented in SCENARIOS.md.
for variant in $(grep -o 'MovePattern::[A-Za-z]*' crates/net/src/mobility.rs | sort -u | cut -d: -f3) \
               $(grep -o 'FaultKind::[A-Za-z]*' crates/net/src/fault.rs | sort -u | cut -d: -f3); do
  grep -q "$variant" SCENARIOS.md || {
    echo "doc gate: $variant is not documented in SCENARIOS.md" >&2; exit 1; }
done
# Every MOBIDIST_* knob the docs, Makefile, CI or skills name must be read
# somewhere in the source (CHANGES.md and ROADMAP.md are history, ISSUE.md
# and REVIEW.md are per-PR task files, benchmark/ has its own gate).
knob_docs=$(ls ./*.md | grep -v -e '/CHANGES\.md$' -e '/ROADMAP\.md$' -e '/ISSUE\.md$' -e '/REVIEW\.md$')
for knob in $(grep -rhoE 'MOBIDIST_[A-Z_]+' $knob_docs Makefile ci .claude/skills | sort -u); do
  grep -rqw "$knob" crates src || {
    echo "doc gate: $knob is documented but nothing in crates/ or src/ reads it" >&2; exit 1; }
done
# Every `make` target and `--bin` that README.md, DESIGN.md or the verify
# skill tells the reader to run must exist.
cmd_docs="README.md DESIGN.md .claude/skills/verify/SKILL.md"
for target in $(grep -hoE '(^|`)make [a-z]+' $cmd_docs | sed 's/.*make //' | sort -u); do
  grep -q "^$target:" Makefile || {
    echo "doc gate: docs name \`make $target\`, which the Makefile does not define" >&2; exit 1; }
done
for bin in $(grep -hoE -e '--bin [a-z_]+' $cmd_docs | sed 's/--bin //' | sort -u); do
  [[ -f "src/bin/$bin.rs" ]] || {
    echo "doc gate: docs name \`--bin $bin\`, but src/bin/$bin.rs does not exist" >&2; exit 1; }
done
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

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test"
cargo test --workspace -q

if [[ $fast -eq 0 ]]; then
  # Every suite again with optimizations on, since that is how experiment
  # tables are produced: wheel vs reference heap, batched delivery vs its
  # per-event reference (and its zero-allocation steady state), the shard
  # equivalence pins, and the bench crate's differential table over jobs,
  # shards, cache and trace. The whole workspace rather than a hand-kept
  # list, so a new suite cannot be forgotten in release mode.
  echo "==> cargo test --release"
  cargo test --workspace --release -q

  # Cache-soundness gate: run the cacheable sweep set (e0..e11, e13, e14) twice
  # against one cache directory. The second pass must replay from disk —
  # byte-identical tables, a nonzero hit count, and at least a 5x
  # wall-time win. E12 is excluded on purpose: it bypasses the run cache
  # by design (see exp_scale), so it would recompute in both passes and
  # dilute the timing check; the shard gate below covers it instead.
  echo "==> run-cache soundness gate"
  cached_exps="e0 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e13 e14"
  cachedir="$(mktemp -d)"
  trap 'rm -rf "$cachedir"' EXIT
  t0=$(date +%s%N)
  ./target/release/experiments $cached_exps --cache "$cachedir/store" \
    > "$cachedir/cold.txt" 2> "$cachedir/cold.err"
  t1=$(date +%s%N)
  ./target/release/experiments $cached_exps --cache "$cachedir/store" \
    > "$cachedir/warm.txt" 2> "$cachedir/warm.err"
  t2=$(date +%s%N)
  cmp "$cachedir/cold.txt" "$cachedir/warm.txt" || {
    echo "cache gate: warm tables differ from cold tables" >&2; exit 1; }
  grep -q 'hits=0 ' "$cachedir/cold.err" || {
    echo "cache gate: cold pass unexpectedly hit the cache" >&2
    cat "$cachedir/cold.err" >&2; exit 1; }
  grep -q 'cache: hits=' "$cachedir/warm.err" && \
    ! grep -q 'hits=0 ' "$cachedir/warm.err" || {
    echo "cache gate: warm pass reported zero cache hits" >&2
    cat "$cachedir/warm.err" >&2; exit 1; }
  cold_ms=$(( (t1 - t0) / 1000000 ))
  warm_ms=$(( (t2 - t1) / 1000000 ))
  echo "    cold ${cold_ms} ms, warm ${warm_ms} ms"
  if (( warm_ms * 5 > cold_ms )); then
    echo "cache gate: warm pass (${warm_ms} ms) not 5x faster than cold (${cold_ms} ms)" >&2
    exit 1
  fi

  # Shard-soundness gate: the space-sharded kernel must produce
  # byte-identical results at every worker count (the release-mode test
  # run above covers ledgers, digests and the pinned per-shard trace
  # order). Two legs here:
  #   1. E12's quick table, 1 shard vs 2 (what the benchmark's churn_1m
  #      runs), 3 (uneven cell division) and 4 shards, cmp'd byte-for-byte
  #      (E12 bypasses the run cache, so every leg genuinely recomputes);
  #   2. the million-host smoke under its 256 MiB peak-RSS ceiling, at 4
  #      workers and at 1 — one worker holds the whole million-host wheel
  #      arena in a single Vec, the worst case for its growth. The 1-worker
  #      run is timed: it is also the throughput-sanity leg's baseline.
  echo "==> shard-soundness gate"
  ./target/release/experiments e12 --quick --shards 1 > "$cachedir/shard1.txt"
  for s in 2 3 4; do
    ./target/release/experiments e12 --quick --shards $s > "$cachedir/shard$s.txt"
    cmp "$cachedir/shard1.txt" "$cachedir/shard$s.txt" || {
      echo "shard gate: $s-shard table differs from the 1-shard run" >&2; exit 1; }
  done
  # E14 runs on the classic kernel, so the shard knob must be inert for it
  # even with the fault plane and the mobility zoo in play (its runs are
  # cache-bypassing here: no --cache directory is passed).
  ./target/release/experiments e14 --quick --shards 1 > "$cachedir/e14shard1.txt"
  ./target/release/experiments e14 --quick --shards 4 > "$cachedir/e14shard4.txt"
  cmp "$cachedir/e14shard1.txt" "$cachedir/e14shard4.txt" || {
    echo "shard gate: E14 table changed under --shards 4" >&2; exit 1; }
  ./target/release/scalecheck --shards 4
  t0=$(date +%s%N)
  ./target/release/scalecheck --shards 1
  one_ms=$(( ($(date +%s%N) - t0) / 1000000 ))

  # Trace-soundness gate: tracereport --check on a traced run, so the
  # trace/ledger reconciliation identities hold with coalescing on. E12 and
  # E14 ride along so every line kind the JSONL encoder writes — sharded
  # part files, shard_sync/shard_recv, fault events, run_end fault counters
  # — goes through parse_line end to end.
  echo "==> trace-soundness gate"
  ./target/release/experiments e2 e12 e13 e14 --quick --trace "$cachedir/del_trace.jsonl" \
    > /dev/null
  ./target/release/tracereport --check "$cachedir/del_trace.jsonl"

  # Throughput-sanity leg: on a multi-core machine the 8-shard million-host
  # point must not be slower than the 1-shard run by more than 2x — a sync
  # layer whose overhead swamps the parallelism would pass every
  # bit-identity leg above while silently defeating the point of sharding.
  # It times scalecheck (seconds of work), not quick E12: a 20 ms run
  # measures thread spawn and parking, not the sync layer. The 1-shard
  # time is the shard-soundness gate's run above. A 1-CPU runner
  # time-slices the workers, so there the leg is skipped.
  cpus=$(nproc 2>/dev/null || echo 1)
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
