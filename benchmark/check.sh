#!/usr/bin/env bash
# The benchmark package's own gate: format, lints, tests, a quick suite and a
# parse of BENCHMARK.json and the emitted result. Offline, scoped to
# benchmark/ (the repo's ci/check.sh does not call this yet).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$here"

step() { printf '\n== %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

step "cargo test --release"
cargo test --offline --release

step "run.sh --quick"
mkdir -p "$here/out"
"$here/run.sh" --quick > "$here/out/check-quick.txt" || { cat "$here/out/check-quick.txt"; exit 1; }
tail -n 1 "$here/out/check-quick.txt" > "$here/out/check-quick.json"

step "parse BENCHMARK.json and the emitted result"
python3 - "$root/BENCHMARK.json" "$here/out/check-quick.json" <<'PY'
import json, sys
spec = json.load(open(sys.argv[1]))
assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, sorted(spec)
assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
suite = json.load(open(sys.argv[2]))
assert suite["correct"] is True, "quick suite reported a failed check"
want = {m["name"] for m in spec["end_to_end"]}
for w in spec["workloads"]:
    got = suite["workloads"][w["name"]]
    assert got["failed"] == 0 and got["attempted"] >= 1, w["name"]
    assert set(got["metrics"]) == want, (w["name"], sorted(set(got["metrics"]) ^ want))
    assert all(m["value"] != 0 for m in got["metrics"].values()), w["name"]
print("ok:", len(spec["workloads"]), "workloads,", len(want), "end-to-end metrics,",
      len(spec["per_layer"]), "per-layer metrics")
PY

printf '\nbenchmark/check.sh: all green\n'
