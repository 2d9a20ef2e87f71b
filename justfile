# Development task runner. `just --list` shows the recipes.

# Clippy (deny warnings) + rustfmt check.
lint:
    ./scripts/lint.sh

# Full test suite across the workspace.
test:
    cargo test --workspace

# Release build of the library and the `warped` CLI.
build:
    cargo build --release

# Static analysis report for one benchmark kernel, e.g. `just analyze SHA`.
analyze bench:
    cargo run -q -p warped-cli -- analyze {{bench}}

# Certification: bounded model check of the Replay Checker (Algorithm 1,
# invariants I1-I5) plus the static DMR coverage certificate for one
# benchmark kernel, e.g. `just certify MatrixMul` or
# `just certify SHA depth=5`.
certify bench depth="7":
    cargo run -q --release -p warped-cli -- certify {{bench}} --depth {{depth}}

# Record a full cycle-level event trace of one benchmark (JSONL), check
# the Algorithm-1 invariants over it, e.g. `just trace SCAN`.
trace bench out="trace.jsonl":
    cargo run -q -p warped-cli -- trace {{bench}} --format jsonl --out {{out}} --invariants

# Trace invariant suite over every benchmark at Tiny scale:
# I1-I5 plus the trace-then-replay report check. Fails on any violation.
invariants:
    cargo run -q -p warped-cli -- invariants --check

# Resilience smoke: a forced-panic chunk and a checkpoint resume must
# both reproduce an undisturbed campaign byte-for-byte (docs/resilience.md).
campaign-smoke:
    ./scripts/campaign_smoke.sh

# Paper transcript check: `warped all --paper` must reproduce
# experiments_paper.txt byte for byte (`./scripts/paper_check.sh --update`
# regenerates it after an intended change).
paper-check:
    ./scripts/paper_check.sh

# Throughput harness: writes BENCH_simulator.json at the repo root.
bench:
    ./scripts/bench.sh

# Cheap smoke run of the throughput harness (tiny scale, no JSON file).
bench-check:
    ./scripts/bench.sh --check
