#!/usr/bin/env bash
# Alternating parent/change runs of the repo benchmark, then `compare`:
# the procedure every performance claim in CHANGES.md rests on (ROADMAP
# "State of play"; choosing-metrics: >= 10 pairs, alternate which side
# runs first, report every row).
#
#   scripts/bench_pairs.sh [--pinned-rss] <parent-ref> [pairs=10] [workload ...]
#
# 1. exports <parent-ref> (`git archive`, committed files only) into
#    target/bench_pairs/parent and this checkout's tracked files, with
#    their uncommitted edits, into target/bench_pairs/change. It builds
#    each side's benchmark/ offline the way the benchmark's own command
#    would, one after the other at the same path (the side's tree is
#    moved to target/bench_pairs/build for its build), so identical
#    sources give identical binaries; the script says whether the two
#    are `cmp`-identical. Built at two paths, the path alone moved
#    functions to other 64-byte offsets, and that layout difference
#    rode in every pair. The path enters the binary three ways: panic
#    locations, the benchmark's `env!("CARGO_MANIFEST_DIR")` and, through
#    a `--remap-path-prefix` naming it, cargo's symbol hashes; only one
#    shared path removes all three;
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
# 4. with --pinned-rss, reruns every pair once more with glibc's mmap
#    threshold pinned (MALLOC_MMAP_THRESHOLD_=131072, set on the
#    benchmark process only) and prints both sides' `peak_rss_mb`
#    medians, default and pinned, side by side. A peak that moves only at
#    the default threshold is allocator placement (glibc reusing or not
#    reusing freed blocks across episodes), not footprint. The pinned
#    runs feed no verdict and no `compare`.
#
# Nothing under benchmark/ is edited; ten pairs take about an hour, twice
# that with --pinned-rss.
set -euo pipefail
pinned_rss=0
if [ "${1:-}" = --pinned-rss ]; then pinned_rss=1; shift; fi
[ $# -ge 1 ] || { echo "usage: $0 [--pinned-rss] <parent-ref> [pairs=10] [workload ...]" >&2; exit 2; }
cd "$(dirname "$0")/.."
parent_ref=$1
pairs=${2:-10}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
work=target/bench_pairs
rm -rf "$work/parent" "$work/change" "$work/build"
mkdir -p "$work/parent" "$work/change" "$work/runs"
rm -f "$work"/runs/*.json
git archive "$parent_ref" | tar -x -C "$work/parent"
# `git stash create` snapshots the tracked files with their edits without
# touching the checkout; it prints nothing on a clean tree.
change_tree=$(git stash create)
git archive "${change_tree:-HEAD}" | tar -x -C "$work/change"

build() { # side, built at the one shared path target/bench_pairs/build
    mv "$work/$1" "$work/build"
    (cd "$work/build/benchmark" && CARGO_TARGET_DIR=target cargo build --release --offline --quiet)
    mv "$work/build" "$work/$1"
}
build parent
build change
parent_bin=$work/parent/benchmark/target/release/scrack_benchmark
change_bin=$work/change/benchmark/target/release/scrack_benchmark
if cmp -s "$parent_bin" "$change_bin"; then
    echo "binaries: cmp-identical" >&2
else
    echo "binaries: differ" >&2
fi
workloads=$("$change_bin" list | awk '$1 == "workload" { print $2 }')
if [ $# -gt 2 ]; then
    for w in "${@:3}"; do
        grep -qx "$w" <<< "$workloads" || { echo "unknown workload: $w" >&2; exit 2; }
    done
    workloads="${*:3}"
fi

run() { # side binary workload seed [env assignment ...]
    env "${@:5}" "$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1 \
        > "$work/runs/$1-$3-$4.json"
}
pairs_of() { # side prefix, then env assignments for both binaries
    local prefix=$1; shift
    for seed in $(seq 1 "$pairs"); do
        for w in $workloads; do
            echo "${prefix}pair $seed/$pairs: $w" >&2
            if [ $((seed % 2)) -eq 1 ]; then
                run "${prefix}parent" "$parent_bin" "$w" "$seed" "$@"
                run "${prefix}change" "$change_bin" "$w" "$seed" "$@"
            else
                run "${prefix}change" "$change_bin" "$w" "$seed" "$@"
                run "${prefix}parent" "$parent_bin" "$w" "$seed" "$@"
            fi
        done
    done
}
pairs_of ""
if [ "$pinned_rss" -eq 1 ]; then
    pairs_of pinned- MALLOC_MMAP_THRESHOLD_=131072
fi

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
pinned = lambda side, w: [json.load(open(f"{work}/runs/pinned-{side}-{w}-{s}.json"))["metrics"]
                          ["peak_rss_mb"]["value"] for s in range(1, pairs + 1)]
if os.path.exists(f"{work}/runs/pinned-parent-{workloads[0]}-1.json"):
    print(f"\npeak_rss_mb medians, default vs pinned (MALLOC_MMAP_THRESHOLD_=131072)")
    print(f"{'workload':<14} {'parent':>9} {'change':>9} {'ratio':>6}   {'pinned parent':>13} "
          f"{'pinned change':>13} {'ratio':>6}")
    for w in workloads:
        d = [quartiles([r["metrics"]["peak_rss_mb"] for r in sets[s] if r["workload"] == w])[1]
             for s in ("parent", "change")]
        p = [quartiles(pinned(s, w))[1] for s in ("parent", "change")]
        print(f"{w:<14} {d[0]:>9.1f} {d[1]:>9.1f} {d[1] / d[0]:>6.3f}   {p[0]:>13.1f} "
              f"{p[1]:>13.1f} {p[1] / p[0]:>6.3f}")
EOF
"$change_bin" compare "$work/parent.json" "$work/change.json"
