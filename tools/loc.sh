#!/usr/bin/env bash
# Prints the non-vendored Rust line count: every line of every `*.rs` file
# under crates/, src/, tests/, examples/ and scanbench/src/. vendor/ and
# build output are not counted. One line per directory, then the total on
# the last line.
#
#   bash tools/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
count() {
    find "$@" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l
}
dirs=()
for d in crates src tests examples scanbench/src; do
    if [[ -d "$d" ]]; then
        dirs+=("$d")
        printf '%-16s %s\n' "$d" "$(count "$d")"
    fi
done
count "${dirs[@]}"
