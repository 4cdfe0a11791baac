#!/usr/bin/env bash
# Non-test Rust lines per crate: for every .rs file under crates/*/src,
# crates/compat/*/src and src/, the lines above its first column-0
# `#[cfg(test)]` (the whole file when it has none), summed per crate, plus
# a total. The "less code" yardstick of simplicity PRs.
#
#   scripts/loc.sh [REPO_ROOT]    # default: this checkout
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root"

# Prints the non-test line count of the .rs files under directory $1.
count() {
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }'
}

total=0
for src in crates/*/src crates/compat/*/src src; do
    [ -d "$src" ] || continue
    n=$(count "$src")
    total=$((total + n))
    printf '%-22s %6d\n' "${src%/src}" "$n"
done
printf '%-22s %6d\n' total "$total"
