#!/usr/bin/env bash
# Who uses the public surface: for every `pub fn|struct|enum|trait|type|
# const` declared in the non-test part of a file under `crates/*/src`
# (same cut as loc.sh: everything before the file's first top-level
# `#[cfg(test)]`), the number of *other* files that mention its name,
# split into
#
#   own    the declaring crate's `src/`
#   other  other crates' `src/` and the facade's `src/`
#   tests  `tests/`, `examples/`, `crates/*/tests`
#   bench  `benchmark/src`
#
# Items mentioned nowhere outside their own file come last: candidates
# for `pub(crate)` or deletion (ROADMAP item 9). A mention is the bare
# identifier in code or in a doctest (prose comments do not count), so a
# name declared in several places (`new`, `stats`) shares one count and
# never shows up as unused — the listing is a lower bound. Informational:
# always exits 0.
#
#   scripts/pubsurface.sh [REPO_ROOT]     # default: the checkout this script is in
set -uo pipefail
cd "${1:-$(dirname "$0")/..}"

{
    find crates/*/src -name '*.rs' | sort | sed 's/^/D /'
    find crates/*/src crates/*/tests src tests examples benchmark/src \
        -name '*.rs' 2>/dev/null | sort | sed 's/^/R /'
} | awk '
    function crate_of(path,    parts) { split(path, parts, "/"); return parts[2] }
    function class_of(path, own) {
        if (path ~ /^benchmark\//) return "bench"
        if (path ~ /^crates\/[^\/]+\/src\//) return crate_of(path) == own ? "own" : "other"
        if (path ~ /^src\//) return "other"
        return "tests"
    }
    # Pass D: declarations. Pass R: identifier mentions per file.
    $1 == "D" {
        file = $2
        while ((getline line < file) > 0) {
            if (line ~ /^#\[cfg\(test\)\]/) break
            if (match(line, /^[[:space:]]*pub (const )?(fn|struct|enum|trait|type|const) +[A-Za-z_][A-Za-z0-9_]*/)) {
                decl = substr(line, RSTART, RLENGTH)
                n = split(decl, w, " ")
                name = w[n]; kind = w[n - 1]
                if (!((file, name) in declared)) {
                    declared[file, name] = 1
                    items[++count] = name SUBSEP kind SUBSEP file
                    wanted[name] = 1
                }
            }
        }
        close(file)
        next
    }
    $1 == "R" {
        file = $2; fence = 0
        while ((getline line < file) > 0) {
            if (line ~ /^[[:space:]]*\/\/[\/!]/) {          # doc comment: doctests only
                if (line ~ /```/) { fence = !fence; continue }
                if (!fence) continue
            } else if (line ~ /^[[:space:]]*\/\//) continue  # plain comment
            sub(/ \/\/ .*$/, "", line)
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            n = split(line, tok, " ")
            for (i = 1; i <= n; i++) if (tok[i] in wanted) seen[tok[i], file] = 1
        }
        close(file)
        files[++nfiles] = file
        next
    }
    END {
        printf "%-14s %-7s %-36s %4s %5s %5s %5s  %s\n", "crate", "kind", "name", "own", "other", "tests", "bench", "declared in"
        for (k = 1; k <= count; k++) {
            split(items[k], it, SUBSEP); name = it[1]; kind = it[2]; file = it[3]
            own = crate_of(file)
            c["own"] = c["other"] = c["tests"] = c["bench"] = 0
            for (f = 1; f <= nfiles; f++)
                if (files[f] != file && ((name, files[f]) in seen)) c[class_of(files[f], own)]++
            row = sprintf("%-14s %-7s %-36s %4d %5d %5d %5d  %s", own, kind, name, c["own"], c["other"], c["tests"], c["bench"], file)
            if (c["own"] + c["other"] + c["tests"] + c["bench"] == 0) unused[++nunused] = row
            else print row
        }
        printf "\n%d of %d pub items are mentioned nowhere outside their own file:\n", nunused, count
        for (k = 1; k <= nunused; k++) print unused[k]
    }'
exit 0
