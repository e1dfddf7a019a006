#!/usr/bin/env bash
# Compare a parent checkout with this tree on one benchmark workload, in
# alternating pairs of runs.
#
#   tools/bench-pairs.sh PARENT_DIR WORKLOAD N
#
# Each side runs `bash benchmark/run.sh --workload WORKLOAD --seed 1
# --seconds 10` from its own checkout root, N times.  Pair i runs the
# parent first when i is odd and this tree first when i is even: run
# order alone biased a no-change comparison by about 4%.  The script
# prints every run's end-to-end metrics (the `end_to_end` names of this
# tree's BENCHMARK.json), then per metric the parent's median and
# quartiles and this tree's median.  It changes no file of either
# checkout; run.sh builds into each checkout's _build/.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 PARENT_DIR WORKLOAD N" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
workload=$2
n=$3
here=$(cd "$(dirname "$0")/.." && pwd)
case $n in '' | *[!0-9]* | 0) echo "$0: N must be a positive integer" >&2; exit 2 ;; esac
for d in "$parent" "$here"; do
  [ -f "$d/benchmark/run.sh" ] || { echo "$0: $d has no benchmark/run.sh" >&2; exit 2; }
done

results=$(mktemp)
log=$(mktemp)
trap 'rm -f "$results" "$log"' EXIT

# One run: the result line (run.sh's last line of stdout), tagged.
run() {
  local side=$1 dir=$2 pair=$3
  if ! (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 10) >"$log" 2>&1; then
    echo "$0: $side run of pair $pair failed:" >&2
    tail -20 "$log" >&2
    exit 1
  fi
  printf '%s\t%s\t%s\n' "$side" "$pair" "$(tail -1 "$log")" >>"$results"
}

for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"
    run change "$here" "$i"
  else
    run change "$here" "$i"
    run parent "$parent" "$i"
  fi
done

python3 - "$results" "$here/BENCHMARK.json" "$workload" <<'PY'
import json, statistics, sys

results, bench, workload = sys.argv[1:]
names = [m["name"] for m in json.load(open(bench))["end_to_end"]]
runs = {"parent": [], "change": []}
print(f"{workload}: pairs in run order")
for line in open(results):
    side, pair, record = line.rstrip("\n").split("\t", 2)
    metrics = json.loads(record)["metrics"]
    values = {k: metrics[k]["value"] for k in names}
    runs[side].append(values)
    print(f"  pair {pair:>2} {side:6} " + "  ".join(f"{k} {values[k]:.4g}" for k in names))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{'metric':14} {'parent median':>14} {'[q1, q3]':>22} {'change median':>14} {'change':>8}")
for k in names:
    p = [r[k] for r in runs["parent"]]
    c = [r[k] for r in runs["change"]]
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    rel = f"{100 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
    print(f"{k:14} {pm:14.4g} {f'[{q1:.4g}, {q3:.4g}]':>22} {cm:14.4g} {rel:>8}")
PY
