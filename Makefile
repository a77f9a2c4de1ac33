# Convenience targets; see ci/check.sh for the full gate.

.PHONY: build test check bench benchcheck quick tracecheck cachecheck scalecheck

build:
	cargo build --workspace --release

test:
	cargo test --workspace -q

check:
	./ci/check.sh

# All experiment tables at full size (timings live in benchmark/, see
# benchcheck).
bench:
	cargo run --release --bin experiments -- all

# The benchmark package's own gate (fmt, clippy, tests, quick suite,
# BENCHMARK.json contract); see benchmark/README.md.
benchcheck:
	./benchmark/check.sh

# Fast small-scale experiment tables.
quick:
	cargo run --release --bin experiments -- all --quick

# Capture quick E2 + E12 + E13 + E14 traces, validate the schema, and diff
# the trace-derived message counts against the cost ledger — including the
# combining identity on E13's L2C cells and the sharded-kernel sync/recv
# identities on E12's part files (see OBSERVABILITY.md).
tracecheck:
	cargo build --release --bin experiments --bin tracereport
	./target/release/experiments e2 e12 e13 e14 --quick --trace target/tracecheck.jsonl > /dev/null
	./target/release/tracereport --check target/tracecheck.jsonl

# Run the full sweep set twice against one cache directory and diff the
# tables byte-for-byte: the warm pass must replay from the run cache
# (see DESIGN.md). The CI gate in ci/check.sh also enforces the speedup.
cachecheck:
	cargo build --release --bin experiments
	rm -rf target/cachecheck && mkdir -p target/cachecheck
	./target/release/experiments all --cache target/cachecheck/store > target/cachecheck/cold.txt
	./target/release/experiments all --cache target/cachecheck/store > target/cachecheck/warm.txt
	cmp target/cachecheck/cold.txt target/cachecheck/warm.txt

# Million-host smoke on the space-sharded kernel: the E12 top-of-ladder
# point must complete under the 256 MiB peak-RSS ceiling with real churn
# (see DESIGN.md section 6). MOBIDIST_SHARDS / --shards picks the worker
# count; the result is bit-identical at every choice.
scalecheck:
	cargo run --release --bin scalecheck
