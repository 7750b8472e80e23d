#!/bin/sh
# Prints a non-test line count. Test code is left out: every module
# declared under `#[cfg(test)]` (an inline `mod NAME { ... }` block up
# to its closing brace, such as `mod tests` and `mod reference`) and
# every file such a declaration names (`#[cfg(test)] mod NAME;`). With
# no arguments it counts the whole library, every tracked
# crates/*/src/**/*.rs outside crates/bench/examples/; with file paths
# it counts just those files.
#
# Usage: scripts/lib_lines.sh [FILE...]   (from anywhere inside the repository)
#   scripts/lib_lines.sh                              the library total
#   scripts/lib_lines.sh crates/core/src/engine.rs    one file
set -eu
root=$(git rev-parse --show-toplevel)
prefix=$(git rev-parse --show-prefix)
cd "$root"
# The files named by `#[cfg(test)] mod NAME;`: NAME.rs beside a
# lib.rs/main.rs/mod.rs, else in the directory named after the file.
test_files() {
    xargs awk '
        FNR == 1 {
            dir = FILENAME; sub(/[^\/]*$/, "", dir)
            stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "main" && stem != "mod") dir = dir stem "/"
            pend = 0
        }
        pend && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
            name = $0; sub(/;.*$/, "", name); sub(/^.* /, "", name)
            print dir name ".rs"
            print dir name "/mod.rs"
        }
        pend && /^[ \t]*#\[/ { next }
        { pend = 0 }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pend = 1 }
    '
}
count() {
    xargs awk '
        FNR == 1 { skip = 0; pend = 0 }
        skip { if ($0 == close_brace) skip = 0; next }
        pend && /^[ \t]*#\[/ { pend++; next }
        pend && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ { pend = 0; next }
        pend && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/ {
            match($0, /^[ \t]*/)
            close_brace = substr($0, 1, RLENGTH) "}"
            skip = 1; pend = 0; next
        }
        pend { n += pend; pend = 0 }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pend = 1; next }
        { n++ }
        END { print n + 0 }
    '
}
files=$(mktemp)
trap 'rm -f "$files"' EXIT
if [ "$#" -eq 0 ]; then
    git ls-files ':(glob)crates/*/src/**/*.rs' \
        | grep -v '^crates/bench/examples/' >"$files"
else
    for f in "$@"; do
        case "$f" in
            /*) printf '%s\n' "$f" ;;
            *) printf '%s\n' "$prefix$f" ;;
        esac
    done >"$files"
fi
test_files <"$files" | grep -v -x -F -f - "$files" | count
