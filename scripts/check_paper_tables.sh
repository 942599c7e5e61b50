#!/usr/bin/env bash
# Paper-table gate: the paper_tables binary must print exactly the
# checked-in golden, byte for byte: Tables 1-11, Figures 1-4, the
# free-memory-cycle study and the dispatch study.
#
# Usage: scripts/check_paper_tables.sh <paper_tables> [golden]
#
# There is no update mode. After an intended change to a table,
# regenerate the golden and review the diff:
#
#   build/src/core/paper_tables > tests/golden/paper_tables.txt
#
# The `check_paper_tables` ctest gate runs this after every build.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <paper_tables> [golden]" >&2
    exit 2
fi
binary=$1
golden=${2:-"$(cd "$(dirname "$0")/.." && pwd)/tests/golden/paper_tables.txt"}

if ! "$binary" | diff -u "$golden" - >&2; then
    echo "check_paper_tables: output differs from $golden" \
        "(diff above)" >&2
    exit 1
fi
echo "check_paper_tables: $(wc -l < "$golden") lines byte-identical"
