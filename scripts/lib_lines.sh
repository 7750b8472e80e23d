#!/bin/sh
# Prints the non-test library line count: every tracked
# crates/*/src/**/*.rs outside crates/bench/examples/, each file cut at
# its first line starting with `mod tests`.
#
# Usage: scripts/lib_lines.sh   (from anywhere inside the repository)
set -eu
root=$(git rev-parse --show-toplevel)
cd "$root"
git ls-files ':(glob)crates/*/src/**/*.rs' \
    | grep -v '^crates/bench/examples/' \
    | xargs awk 'FNR == 1 { cut = 0 } /^mod tests/ { cut = 1 } !cut { n++ } END { print n + 0 }'
