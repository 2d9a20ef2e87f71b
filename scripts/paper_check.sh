#!/usr/bin/env bash
# Paper transcript check: regenerate every table and figure at paper
# scale (`warped all --paper`) and diff the output against the committed
# transcript, experiments_paper.txt. The transcript is deterministic at
# any thread count, so any difference is a behaviour change: either a
# regression, or an intended change that must come with a regenerated
# transcript.
#
#   ./scripts/paper_check.sh            # check (exit 1 on any difference)
#   ./scripts/paper_check.sh --update   # rewrite experiments_paper.txt
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p warped-cli
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
./target/release/warped all --paper > "$out"

if [[ "${1:-}" == "--update" ]]; then
    cp "$out" experiments_paper.txt
    echo "paper-check: experiments_paper.txt updated"
elif diff -u experiments_paper.txt "$out"; then
    echo "paper-check: transcript matches"
else
    echo "paper-check: warped all --paper differs from experiments_paper.txt" >&2
    exit 1
fi
