#!/usr/bin/env bash
# A/B host-time comparison: scripts/bench_ab.sh <rev> <workload> [pairs]
#
# Exports the committed files of <rev> into a temporary directory
# (`git archive`) and builds them there with their own target directory,
# builds the working tree, then runs the BENCHMARK.json command for
# <workload> alternately on both, `pairs` times (default 10), each run
# lasting BENCHMARK.json's run_seconds. Pair i uses seed BENCH_SEED+i
# (BENCH_SEED defaults to 1) on both sides and swaps which side runs
# first, so slow drift on a shared host hits both sides alike. Prints
# every end-to-end metric's per-pair values, the medians, the
# working-tree/<rev> ratio of the medians and the distance between the
# quartiles of the <rev> runs. Neither perfbench/ nor
# BENCHMARK.json is modified.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 <rev> <workload> [pairs]" >&2
  exit 1
fi
rev="$1"
workload="$2"
pairs="${3:-10}"
case "$pairs" in
  '' | *[!0-9]* | 0)
    echo "pairs must be a positive integer, got '$pairs'" >&2
    exit 1
    ;;
esac

root="$(git rev-parse --show-toplevel)"
cd "$root"
commit="$(git rev-parse --verify "$rev^{commit}")"

read -r -a cmd < <(python3 -c 'import json,sys; print(" ".join(json.load(open(sys.argv[1]))["command"]))' BENCHMARK.json)
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)"
seed="${BENCH_SEED:-1}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "building $rev ($commit) in a temporary directory..." >&2
mkdir "$tmp/rev"
git archive "$commit" | tar -x -C "$tmp/rev"
(cd "$tmp/rev" && CARGO_TARGET_DIR="$tmp/target" cargo build --release --quiet \
  --manifest-path perfbench/Cargo.toml)
echo "building the working tree..." >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml

run() { # <side> <pair> <out>
  local dir target
  if [ "$1" = rev ]; then
    dir="$tmp/rev"
    target="$tmp/target"
  else
    dir="$root"
    target="${CARGO_TARGET_DIR:-}"
  fi
  echo "pair $2: $1 (seed $((seed + $2)))" >&2
  (cd "$dir" && env ${target:+"CARGO_TARGET_DIR=$target"} "${cmd[@]}" --workload "$workload" \
    --seed "$((seed + $2))" --seconds "$seconds" --trace 0) > "$3"
  tail -n 1 "$3" >> "$tmp/$1.jsonl"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run rev "$i" "$tmp/out"
    run work "$i" "$tmp/out"
  else
    run work "$i" "$tmp/out"
    run rev "$i" "$tmp/out"
  fi
done

python3 - "$tmp/rev.jsonl" "$tmp/work.jsonl" "$rev" "$workload" << 'EOF'
import json, statistics, sys

def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]

rev, work = load(sys.argv[1]), load(sys.argv[2])
print(f"workload {sys.argv[4]}: {len(rev)} pairs, {sys.argv[3]} (A) vs working tree (B)")
for side, runs in (("A", rev), ("B", work)):
    bad = [i + 1 for i, r in enumerate(runs) if not r.get("correct") or r.get("failed")]
    if bad:
        print(f"  {side}: incorrect or failed operations in pair(s) {bad}")
print(f"{'metric':<18} {'unit':<6} {'median A':>12} {'median B':>12} {'B/A':>7} {'IQR A':>12}  per pair (A -> B)")
for name, m in rev[0]["metrics"].items():
    if any(name not in r["metrics"] for r in rev + work):
        continue
    a = [r["metrics"][name]["value"] for r in rev]
    b = [r["metrics"][name]["value"] for r in work]
    ma, mb = statistics.median(a), statistics.median(b)
    ratio = f"{mb / ma:7.3f}" if ma else "    n/a"
    q = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
    pairs = "  ".join(f"{x:.4g}->{y:.4g}" for x, y in zip(a, b))
    print(f"{name:<18} {m['unit']:<6} {ma:12.6g} {mb:12.6g} {ratio} {q[2] - q[0]:12.6g}  {pairs}")
EOF
