#!/usr/bin/env bash
# Alternating parent/change runs of the repo benchmark, then `compare`:
# the procedure every performance claim in CHANGES.md rests on (ROADMAP
# "State of play"; choosing-metrics: >= 10 pairs, alternate which side
# runs first, report every row).
#
#   scripts/bench_pairs.sh <parent-ref> [pairs=10] [workload ...]
#
# 1. exports <parent-ref> (`git archive`, committed files only) into
#    target/bench_pairs/parent and builds its benchmark/ offline, the way
#    the benchmark's own command would; builds this checkout's benchmark/
#    the same way;
# 2. for seed 1..pairs and every workload runs both binaries back to
#    back, the parent first on odd seeds and the change first on even
#    ones, at the benchmark's run length (`run_seconds` of
#    BENCHMARK.json; for a quick look run one pair). Workload names after
#    the pair count limit the run to those workloads, so a claim on one
#    workload can be sized in minutes; the default is all of them, which
#    is what a claim's final evidence uses;
# 3. writes the two run sets to target/bench_pairs/{parent,change}.json,
#    prints per workload x metric how many pairs the change won, both
#    medians and their ratio, the parent's quartile spread (IQR) and a
#    `gain` verdict: at least 9/10 pairs won and the medians apart by
#    more than that IQR, the rule a claimed gain must pass. Then it runs
#    the benchmark's own `compare` (exit 1 if any row is worse than its
#    bound).
#
# Nothing under benchmark/ is edited; ten pairs take about an hour.
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 <parent-ref> [pairs=10] [workload ...]" >&2; exit 2; }
cd "$(dirname "$0")/.."
parent_ref=$1
pairs=${2:-10}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
work=target/bench_pairs
rm -rf "$work/parent"
mkdir -p "$work/parent" "$work/runs"
rm -f "$work"/runs/*.json
git archive "$parent_ref" | tar -x -C "$work/parent"

build() { (cd "$1/benchmark" && CARGO_TARGET_DIR=target cargo build --release --offline --quiet); }
build "$work/parent"
build .
parent_bin=$work/parent/benchmark/target/release/scrack_benchmark
change_bin=benchmark/target/release/scrack_benchmark
workloads=$("$change_bin" list | awk '$1 == "workload" { print $2 }')
if [ $# -gt 2 ]; then
    for w in "${@:3}"; do
        grep -qx "$w" <<< "$workloads" || { echo "unknown workload: $w" >&2; exit 2; }
    done
    workloads="${*:3}"
fi

run() { # side binary workload seed
    "$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1 \
        > "$work/runs/$1-$3-$4.json"
}
for seed in $(seq 1 "$pairs"); do
    for w in $workloads; do
        echo "pair $seed/$pairs: $w" >&2
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$parent_bin" "$w" "$seed"; run change "$change_bin" "$w" "$seed"
        else
            run change "$change_bin" "$w" "$seed"; run parent "$parent_bin" "$w" "$seed"
        fi
    done
done

python3 - "$work" "$pairs" $workloads <<'EOF'
import json, os, sys
work, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
manifest = json.load(open("BENCHMARK.json"))
sets = {"parent": [], "change": []}
for side, runs in sets.items():
    for seed in range(1, pairs + 1):
        for w in workloads:
            r = json.load(open(f"{work}/runs/{side}-{w}-{seed}.json"))
            runs.append({"workload": w, "seed": seed, "failed": r["failed"],
                         "metrics": {n: m["value"] for n, m in r["metrics"].items()}})
    json.dump({"host_cpus": os.cpu_count(), "runs": runs}, open(f"{work}/{side}.json", "w"))
def quartiles(xs):  # (q1, median, q3), linear interpolation
    xs = sorted(xs)
    at = lambda f: xs[int(f)] + (xs[min(int(f) + 1, len(xs) - 1)] - xs[int(f)]) * (f - int(f))
    return tuple(at(q * (len(xs) - 1)) for q in (0.25, 0.5, 0.75))
print(f"{'workload':<14} {'metric':<12} {'wins/ties/pairs':>15} {'parent':>11} "
      f"{'change':>11} {'ratio':>6} {'parent IQR':>11}  verdict")
for w in workloads:
    for m in manifest["end_to_end"]:
        better = (lambda a, b: b > a) if m["better"] == "higher" else (lambda a, b: b < a)
        pick = lambda side: [r["metrics"][m["name"]] for r in sets[side] if r["workload"] == w]
        both = list(zip(pick("parent"), pick("change")))
        wins, ties = sum(better(a, b) for a, b in both), sum(a == b for a, b in both)
        (q1, parent_med, q3), change_med = quartiles(pick("parent")), quartiles(pick("change"))[1]
        ratio = change_med / parent_med if parent_med else float("nan")
        # A claimed gain: >= 9/10 of the pairs won, and the medians apart by
        # more than the parent's own quartile spread.
        gain = 10 * wins >= 9 * len(both) and abs(change_med - parent_med) > q3 - q1
        print(f"{w:<14} {m['name']:<12} {f'{wins} / {ties} / {len(both)}':>15} "
              f"{parent_med:>11.4g} {change_med:>11.4g} {ratio:>6.3f} {q3 - q1:>11.4g}  "
              f"{'gain' if gain else '-'}")
print("failed runs:", {s: sum(r["failed"] for r in runs) for s, runs in sets.items()})
EOF
"$change_bin" compare "$work/parent.json" "$work/change.json"
