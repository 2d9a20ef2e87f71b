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

# Host-time benchmark (perfbench/, declared in BENCHMARK.json): one
# workload per process, e.g. `just bench` or `just bench certify`.
# Workloads: paper-suite, fault-campaign, certify.
bench workload="paper-suite":
    cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- --workload {{workload}} --seed 1 --seconds 40 --trace 0

# The benchmark harness's own tests (statistics, span accounting, and
# the BENCHMARK.json <-> emitted metric names contract).
bench-check:
    cargo test --manifest-path perfbench/Cargo.toml

# A/B host-time comparison against a git revision: builds <rev> in a
# temporary directory and alternates the BENCHMARK.json command between
# it and the working tree, ten pairs unless given, e.g.
# `just bench-ab HEAD fault-campaign`.
bench-ab rev workload *pairs:
    ./scripts/bench_ab.sh {{rev}} {{workload}} {{pairs}}
