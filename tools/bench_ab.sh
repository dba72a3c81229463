#!/usr/bin/env bash
# Interleaved A/B of the benchmark (perfbench/run.py) between two
# source trees: a parent and a change.
#
# Usage: tools/bench_ab.sh --parent DIR --change DIR --workload W
#                          [--seed S] [--pairs N] [--out DIR]
#   --parent DIR    checkout of the baseline tree
#   --change DIR    checkout of the tree under test
#   --workload W    paper_sweep | region_day | region_day_serial
#   --seed S        workload seed (default 42)
#   --pairs N       interleaved pairs to run (default 10)
#   --out DIR       keep the per-run JSON results here (default: a
#                   fresh temporary directory, printed at the end)
#
# Each pair runs `python3 perfbench/run.py --workload W --seed S
# --trace 0` once in each tree, alternating which tree goes first, so
# slow host phases hit both sides alike; the run length is the
# benchmark's own, the same on both sides. Every tree builds into its
# own .bench_build/; nothing is written under perfbench/.
#
# For every end-to-end metric of the parent's BENCHMARK.json the
# report gives each side's median and quartiles, and the share of
# pairs the change won. A difference is called only under the
# choosing-metrics rule: the change wins at least 90 % of the pairs
# (9 of 10) AND the medians lie further apart than the parent's
# interquartile range. Otherwise the verdict is "no call". Fewer
# than 10 complete pairs cannot meet that rule, so they always get
# "no call (n < 10)".
#
# Exits 0 when every run completed with no failed operations, 1 if
# any run failed or reported failed operations, 2 on bad usage.

set -u -o pipefail

PARENT=""
CHANGE=""
WORKLOAD=""
SEED=42
PAIRS=10
OUT=""
while [ "$#" -gt 0 ]; do
    case "$1" in
      --parent) PARENT=$2; shift 2 ;;
      --change) CHANGE=$2; shift 2 ;;
      --workload) WORKLOAD=$2; shift 2 ;;
      --seed) SEED=$2; shift 2 ;;
      --pairs) PAIRS=$2; shift 2 ;;
      --out) OUT=$2; shift 2 ;;
      -h|--help) sed -n '2,31p' "$0"; exit 0 ;;
      *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done
if [ -z "$PARENT" ] || [ -z "$CHANGE" ] || [ -z "$WORKLOAD" ]; then
    echo "need --parent, --change and --workload (see --help)" >&2
    exit 2
fi
for tree in "$PARENT" "$CHANGE"; do
    if [ ! -f "$tree/perfbench/run.py" ]; then
        echo "no perfbench/run.py under $tree" >&2
        exit 2
    fi
done
PARENT=$(cd "$PARENT" && pwd)
CHANGE=$(cd "$CHANGE" && pwd)
if [ -z "$OUT" ]; then
    OUT=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
fi
mkdir -p "$OUT"

FAILED=0
run_side() {  # side pair tree
    local side=$1 pair=$2 tree=$3
    local json="$OUT/$side.$pair.json"
    echo "pair $pair: $side ($tree)" >&2
    if ! (cd "$tree" && python3 perfbench/run.py --workload "$WORKLOAD" \
            --seed "$SEED" --trace 0) \
            > "$OUT/$side.$pair.out" 2> "$OUT/$side.$pair.err"; then
        echo "  run failed; see $OUT/$side.$pair.err" >&2
        FAILED=1
        return
    fi
    tail -n 1 "$OUT/$side.$pair.out" > "$json"
}

for ((pair = 0; pair < PAIRS; ++pair)); do
    if (( pair % 2 == 0 )); then
        run_side parent "$pair" "$PARENT"
        run_side change "$pair" "$CHANGE"
    else
        run_side change "$pair" "$CHANGE"
        run_side parent "$pair" "$PARENT"
    fi
done

python3 - "$OUT" "$PAIRS" "$PARENT/BENCHMARK.json" \
    "$WORKLOAD" "$SEED" <<'EOF' || FAILED=1
import json
import statistics
import sys
from pathlib import Path

out, pairs, spec_path, workload, seed = sys.argv[1:6]
pairs = int(pairs)
# The choosing-metrics rule: a gain needs at least 9 wins in 10 pairs.
MIN_PAIRS = 10
spec = json.loads(Path(spec_path).read_text())


def load(side, pair):
    path = Path(out) / f"{side}.{pair}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


runs = [(load("parent", p), load("change", p)) for p in range(pairs)]
complete = [(a, b) for a, b in runs if a is not None and b is not None]
bad = 0
for a, b in complete:
    for r in (a, b):
        if not r.get("correct", False) or r.get("failed", 0):
            bad += 1
print(f"workload {workload}, seed {seed}: {len(complete)} of {pairs} "
      f"pairs complete, {bad} run(s) incorrect or with failed ops")
if not complete:
    sys.exit(1)


def cell(med, q1, q3):
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


header = (f"{'metric':<18} {'unit':<9} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'change':>8} {'wins':>6}  "
          "verdict")
print(header)
print("-" * len(header))
for metric in spec["end_to_end"]:
    name = metric["name"]
    higher = metric["better"] == "higher"
    pv = [a["metrics"][name]["value"] for a, _ in complete]
    cv = [b["metrics"][name]["value"] for _, b in complete]
    pq1, pmed, pq3 = quartiles(pv)
    cq1, cmed, cq3 = quartiles(cv)
    wins = sum(1 for p, c in zip(pv, cv) if (c > p if higher else c < p))
    losses = sum(1 for p, c in zip(pv, cv) if (c < p if higher else c > p))
    iqr = pq3 - pq1
    apart = abs(cmed - pmed) > iqr
    n = len(complete)
    if n < MIN_PAIRS:
        verdict = f"no call (n < {MIN_PAIRS})"
    elif wins >= 0.9 * n and apart:
        verdict = "GAIN"
    elif losses >= 0.9 * n and apart:
        verdict = "LOSS"
    else:
        verdict = "no call"
    rel = (cmed / pmed - 1.0) * 100.0 if pmed else float("nan")
    print(f"{name:<18} {metric['unit']:<9} {cell(pmed, pq1, pq3):<30} "
          f"{cell(cmed, cq1, cq3):<30} {rel:>+7.1f}% {wins:>3}/{n:<2}  "
          f"{verdict}")
sys.exit(1 if bad or len(complete) < pairs else 0)
EOF

echo "per-run results: $OUT" >&2
exit "$FAILED"
