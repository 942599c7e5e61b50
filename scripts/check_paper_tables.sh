#!/usr/bin/env bash
# Paper-table gate: every table and figure binary must print exactly
# its checked-in golden, byte for byte. Each tests/golden/NAME.txt is
# the stdout of bench/NAME run with --benchmark_list_tests=true: the
# tables print during static initialization, and the flag skips the
# timing runs, whose output varies.
#
# Usage: scripts/check_paper_tables.sh <bench-build-dir> [golden-dir]
#
# There is no update mode. After an intended change to a table,
# regenerate its golden with the same command and review the diff:
#
#   build/bench/NAME --benchmark_list_tests=true \
#       > tests/golden/NAME.txt 2>/dev/null
#
# The `check_paper_tables` ctest gate runs this after every build.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <bench-build-dir> [golden-dir]" >&2
    exit 2
fi
bench_dir=$1
golden_dir=${2:-"$(cd "$(dirname "$0")/.." && pwd)/tests/golden"}

n=0
failed=0
for golden in "$golden_dir"/*.txt; do
    name=$(basename "$golden" .txt)
    if ! "$bench_dir/$name" --benchmark_list_tests=true 2> /dev/null |
        diff -u "$golden" - >&2; then
        echo "check_paper_tables: $name differs from $golden" \
            "(diff above)" >&2
        failed=$((failed + 1))
    fi
    n=$((n + 1))
done
if [ "$n" -eq 0 ]; then
    echo "check_paper_tables: no goldens in $golden_dir" >&2
    exit 2
fi
if [ "$failed" -ne 0 ]; then
    echo "check_paper_tables: $failed of $n tables differ" >&2
    exit 1
fi
echo "check_paper_tables: $n tables byte-identical"
