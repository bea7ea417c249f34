#!/usr/bin/env bash
# Alternated A/B run of the repository benchmark (bench/run.sh): a git ref
# against the working tree, the procedure bench/README.md prescribes for
# comparing a parent and a change.
#
#   bash scripts/bench-ab.sh REF WORKLOAD [PAIRS]
#
# REF is checked out into a temporary git worktree. Pair i runs both sides
# on seed i for BENCHMARK.json's run_seconds, REF first on odd pairs and the
# working tree first on even ones; each run's output goes to ref.jsonl or
# change.jsonl in a new directory under $TMPDIR, whose path is printed, and
# the script ends with `bash bench/run.sh compare ref.jsonl change.jsonl`.
# Each side builds into its own checkout's bench/.build.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 REF WORKLOAD [PAIRS]" >&2
  exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}

root="$(git rev-parse --show-toplevel)"
cd "$root"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
if [ -z "$seconds" ]; then
  echo "$0: no run_seconds in BENCHMARK.json" >&2
  exit 1
fi
out="$(mktemp -d "${TMPDIR:-/tmp}/feasim-ab.XXXXXX")"
base="$out/ref"
git worktree add --quiet --detach "$base" "$ref"
trap 'git worktree remove --force "$base"' EXIT

run() { # run SIDE_DIR JSONL SEED
  echo "== $(basename "$2" .jsonl) seed $3" >&2
  (cd "$1" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds") >>"$2"
}

for seed in $(seq 1 "$pairs"); do
  if [ $((seed % 2)) -eq 1 ]; then
    run "$base" "$out/ref.jsonl" "$seed"
    run "$root" "$out/change.jsonl" "$seed"
  else
    run "$root" "$out/change.jsonl" "$seed"
    run "$base" "$out/ref.jsonl" "$seed"
  fi
done
echo "== results in $out" >&2
bash bench/run.sh compare "$out/ref.jsonl" "$out/change.jsonl"
