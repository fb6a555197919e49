#!/usr/bin/env bash
# Code lines per crate: the lines under each crate's `src/` that are not
# blank, not comments (`//`, `///`, `//!`, `/* .. */` blocks) and not
# test code (everything from a file's first top-level `#[cfg(test)]` on —
# the workspace keeps its unit-test modules at the bottom of the file).
# This is the figure ROADMAP gates and CHANGES.md entries quote.
#
#   scripts/loc.sh [REPO_ROOT]     # default: the checkout this script is in
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_tests = 0; in_block = 0 }
        in_tests { next }
        /^#\[cfg\(test\)\]/ { in_tests = 1; next }
        in_block { if (/\*\//) in_block = 0; next }
        /^[[:space:]]*\/\*/ { if (!/\*\//) in_block = 1; next }
        /^[[:space:]]*(\/\/|$)/ { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for src in crates/*/src src; do
    [ -d "$src" ] || continue
    name=$(basename "$(dirname "$src")")
    [ "$src" = src ] && name="(facade)"
    n=$(count "$src")
    printf '%-20s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
