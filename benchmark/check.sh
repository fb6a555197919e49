#!/usr/bin/env bash
# Smoke gate for the benchmark package (CI-callable; no workflow wires it
# in yet). From any directory:
#
#   benchmark/check.sh
#
# 1. offline release build of this package (its own workspace and lock);
# 2. its unit tests, which include the BENCHMARK.json <-> code name check;
# 3. a `--seconds 2` run of every workload in both trace modes: the last
#    stdout line must be the result object, with failed = 0 and exactly
#    the metrics the manifest lists for that mode.
#
# A run never reports from fewer than 5 episodes, so "--seconds 2" still
# takes 5 episodes per workload; the whole script needs about 3 minutes.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline --quiet

bin="${CARGO_TARGET_DIR:-target}/release/scrack_benchmark"
workloads=$("$bin" list | awk '$1 == "workload" { print $2 }')
[ "$(echo "$workloads" | wc -l)" -eq 5 ] || { echo "expected 5 workloads"; exit 1; }

for w in $workloads; do
    for trace in 0 1; do
        line=$("$bin" --workload "$w" --seed 1 --seconds 2 --trace "$trace" | tail -n 1)
        python3 - "$w" "$trace" "$line" ../BENCHMARK.json <<'EOF'
import json, sys
workload, trace, line, manifest = sys.argv[1:5]
result = json.loads(line)
manifest = json.load(open(manifest))
assert list(result) == ["correct", "attempted", "failed", "metrics"], list(result)
assert result["correct"] is True and result["failed"] == 0, result
assert result["attempted"] >= 1
want = manifest["end_to_end" if trace == "0" else "per_layer"]
assert list(result["metrics"]) == [m["name"] for m in want], (workload, trace)
for m in want:
    got = result["metrics"][m["name"]]
    assert got["unit"] == m["unit"], m["name"]
    assert isinstance(got["value"], (int, float)), m["name"]
    if trace == "0":
        assert got["value"] > 0, m["name"]
print(f"ok {workload} trace {trace}: {result['attempted']} checked, 0 failed")
EOF
    done
done
echo "benchmark smoke passed"
