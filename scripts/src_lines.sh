#!/usr/bin/env bash
# Net source lines a change adds: added minus deleted lines under src/,
# src/repro/core/, tests/ and benchmarks/, from `git diff --numstat`
# against REF.
#
#   scripts/src_lines.sh            # working tree vs HEAD~1
#   scripts/src_lines.sh main       # working tree vs main
#
# Only tracked files count: `git add` new files first. Binary files
# (numstat "-") count as 0.
set -euo pipefail
cd "$(dirname "$0")/.."

REF="${1:-HEAD~1}"
for path in src src/repro/core tests benchmarks; do
    git diff --numstat "$REF" -- "$path" | awk -v path="$path" '
        { if ($1 != "-") { added += $1; deleted += $2 } }
        END { printf "%-16s +%d -%d net %+d\n", path, added, deleted, added - deleted }'
done
