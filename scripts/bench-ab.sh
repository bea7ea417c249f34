#!/usr/bin/env bash
# Alternated A/B run of the repository benchmark (bench/run.sh): a git ref
# against the working tree, the procedure bench/README.md prescribes for
# comparing a parent and a change.
#
#   bash scripts/bench-ab.sh REF WORKLOADS [PAIRS]
#
# WORKLOADS is one workload name, a comma-separated list, or "all" (every
# workload in BENCHMARK.json). REF is checked out once into a temporary git
# worktree. For each workload, pair i runs both sides on seed i for
# BENCHMARK.json's run_seconds, REF first on odd pairs and the working tree
# first on even ones; each run's output goes to <workload>.ref.jsonl or
# <workload>.change.jsonl in a new directory under $TMPDIR, whose path is
# printed, and the script ends with each workload's
# `bash bench/run.sh compare` verdicts. Each side builds into its own
# checkout's bench/.build.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 REF WORKLOADS [PAIRS]" >&2
  exit 2
fi
ref=$1 workloads=$2 pairs=${3:-10}

root="$(git rev-parse --show-toplevel)"
cd "$root"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
if [ -z "$seconds" ]; then
  echo "$0: no run_seconds in BENCHMARK.json" >&2
  exit 1
fi
if [ "$workloads" = all ]; then
  # The names in BENCHMARK.json's "workloads" array, in order.
  workloads="$(awk '/"workloads"/{w=1} w&&/"name"/{sub(/.*"name": *"/,""); sub(/".*/,""); print} w&&/^[ \t]*\]/{exit}' BENCHMARK.json | paste -sd, -)"
fi
IFS=, read -r -a names <<<"$workloads"
if [ ${#names[@]} -eq 0 ]; then
  echo "$0: no workloads named" >&2
  exit 2
fi

out="$(mktemp -d "${TMPDIR:-/tmp}/feasim-ab.XXXXXX")"
base="$out/ref"
git worktree add --quiet --detach "$base" "$ref"
trap 'git worktree remove --force "$base"' EXIT

run() { # run SIDE_DIR WORKLOAD JSONL SEED
  echo "== $2 $(basename "$3" .jsonl | sed 's/.*\.//') seed $4" >&2
  (cd "$1" && bash bench/run.sh --workload "$2" --seed "$4" --seconds "$seconds") >>"$3"
}

for w in "${names[@]}"; do
  for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then
      run "$base" "$w" "$out/$w.ref.jsonl" "$seed"
      run "$root" "$w" "$out/$w.change.jsonl" "$seed"
    else
      run "$root" "$w" "$out/$w.change.jsonl" "$seed"
      run "$base" "$w" "$out/$w.ref.jsonl" "$seed"
    fi
  done
done
echo "== results in $out" >&2
status=0
for w in "${names[@]}"; do
  echo "== $w"
  bash bench/run.sh compare "$out/$w.ref.jsonl" "$out/$w.change.jsonl" || status=1
done
exit $status
