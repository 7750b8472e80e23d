#!/bin/sh
# Prints a non-test line count: each file is cut at its first line
# starting with `mod tests`. With no arguments it counts the whole
# library, every tracked crates/*/src/**/*.rs outside
# crates/bench/examples/; with file paths it counts just those files.
#
# Usage: scripts/lib_lines.sh [FILE...]   (from anywhere inside the repository)
#   scripts/lib_lines.sh                              the library total
#   scripts/lib_lines.sh crates/core/src/engine.rs    one file
set -eu
root=$(git rev-parse --show-toplevel)
prefix=$(git rev-parse --show-prefix)
cd "$root"
count() {
    xargs awk 'FNR == 1 { cut = 0 } /^mod tests/ { cut = 1 } !cut { n++ } END { print n + 0 }'
}
if [ "$#" -eq 0 ]; then
    git ls-files ':(glob)crates/*/src/**/*.rs' \
        | grep -v '^crates/bench/examples/' \
        | count
else
    for f in "$@"; do
        case "$f" in
            /*) printf '%s\n' "$f" ;;
            *) printf '%s\n' "$prefix$f" ;;
        esac
    done | count
fi
