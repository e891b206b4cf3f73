#!/usr/bin/env bash
# Non-test library lines: for every Rust file under crates/*/src, the lines
# before its first `#[cfg(test)]` (the whole file when it has none), with
# crates/core/src/tests.rs (a test module in its own file) left out.
#
#   scripts/loc.sh            # the total
#   scripts/loc.sh --files    # one `lines path` row per file, then the total
#   scripts/loc.sh --crates   # one `lines crate` row per crate, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -path '*/src/*.rs' ! -path 'crates/core/src/tests.rs' | sort |
    while read -r f; do
        printf '%s %s\n' "$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")" "$f"
    done |
    awk -v mode="${1:-}" '
        { total += $1; if (mode == "--files") print }
        mode == "--crates" {
            split($2, path, "/")
            if (!(path[2] in lines)) crates[++n] = path[2]
            lines[path[2]] += $1
        }
        END { for (i = 1; i <= n; i++) print lines[crates[i]], crates[i]; print total }'
