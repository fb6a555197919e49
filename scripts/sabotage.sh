#!/usr/bin/env bash
# Seeded-defect audit: proves that each gate bites (ROADMAP item 6(a)).
#
# Every tests/sabotage/<name>.patch is one small defect written as a
# patch, so production code carries no flag and no cfg for it. Its header
# names what the defect does and the test that must catch it:
#
#   Sabotage: <what the defect does>
#   Test: <cargo test arguments that select the gate>
#
# The script checks HEAD out into a scratch `git worktree` and runs every
# named test there unpatched; each must pass. Then, for each patch, it
# applies the patch, builds the test (a patch that does not compile
# proves nothing), asserts that the test fails, and reverts the patch.
# All builds share one target directory, so a patch rebuilds only the
# crates it touches and their dependents. The audit covers committed
# files only: the worktree is HEAD.
#
#   scripts/sabotage.sh [name ...]     # default: every patch
#
# Worktree, target directory and per-run logs live under target/sabotage/.
# Exits 0 when every patch turns its test red, 1 otherwise. Kept out of
# CI because every patch costs a debug rebuild.
set -euo pipefail
cd "$(dirname "$0")/.."
work=$PWD/target/sabotage
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
mkdir -p "$work/logs"

if [ $# -gt 0 ]; then
    patches=()
    for name in "$@"; do
        [ -f "tests/sabotage/$name.patch" ] || { echo "no patch tests/sabotage/$name.patch" >&2; exit 2; }
        patches+=("$PWD/tests/sabotage/$name.patch")
    done
else
    patches=("$PWD"/tests/sabotage/*.patch)
fi

field() { sed -n "s/^$1: //p" "$2" | head -1; }

git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
git worktree prune
git worktree add --quiet --detach "$tree" HEAD
trap 'git worktree remove --force "$tree"' EXIT
cd "$tree"

# Unpatched, every gate passes.
fail=0
while IFS= read -r args; do
    # shellcheck disable=SC2086
    if cargo test -q $args > "$work/logs/clean.log" 2>&1 < /dev/null; then
        printf '%-16s %s\n' "passes clean" "$args"
    else
        printf '%-16s %s (log: %s)\n' "FAILS CLEAN" "$args" "$work/logs/clean.log"
        fail=1
    fi
done < <(for p in "${patches[@]}"; do field Test "$p"; done | sort -u)
[ "$fail" -eq 0 ] || exit 1

for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    args=$(field Test "$patch")
    log=$work/logs/$name.log
    git apply "$patch"
    # shellcheck disable=SC2086
    if ! cargo test -q --no-run $args > "$log" 2>&1; then
        verdict="DOES NOT BUILD"
        fail=1
    elif cargo test -q $args >> "$log" 2>&1; then
        verdict="MISSED"
        fail=1
    else
        verdict="caught"
    fi
    git checkout --quiet -- .
    printf '%-16s %-28s %s\n' "$verdict" "$name" "$args"
done
exit "$fail"
