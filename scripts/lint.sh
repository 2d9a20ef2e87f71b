#!/usr/bin/env bash
# Workspace lint gate: clippy (warnings are errors) + rustfmt check.
# Run from anywhere; operates on the repository the script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace covers every crate, including crates/runner (the parallel
# job engine); the explicit -p guards against the crate ever being
# dropped from the workspace members list unnoticed.
cargo clippy --workspace -p warped-runner --all-targets -- -D warnings
cargo fmt --check

# Trace invariant suite: Algorithm-1 invariants I1-I5 plus the
# trace-then-replay report check, over every benchmark at Tiny scale.
cargo run -q -p warped-cli -- invariants --check

# Campaign resilience smoke: forced-panic retry and checkpoint resume
# must reproduce an undisturbed campaign byte-for-byte.
./scripts/campaign_smoke.sh

# Certification gate: model-check the Replay Checker against Algorithm 1
# (invariants I1-I5) and verify the static coverage bound against a
# measured run, for one uniform and one divergent suite kernel. The
# command exits non-zero on any violation or unsound bound.
cargo run -q -p warped-cli -- certify SHA --depth 6 > /dev/null
cargo run -q -p warped-cli -- certify BitonicSort --depth 6 > /dev/null

# Paper transcript: `warped all --paper` reproduces experiments_paper.txt.
./scripts/paper_check.sh

# The benchmark's own tests (statistics, span self time, and the
# BENCHMARK.json <-> emitted metric names check).
cargo test -q --manifest-path perfbench/Cargo.toml
echo "lint: clean"
