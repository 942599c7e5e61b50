#!/usr/bin/env bash
# Single-file CLI gate: `mipsverify FILE`, in every single-file mode,
# must print exactly its checked-in golden, byte for byte: stdout,
# stderr and exit status. The same holds for the corpus analysis
# reports (`--corpus` as text and JSON, with `--cost`, and with
# `--range=json`), which share one golden named `corpus`. Each
# tests/golden/mipsverify/NAME.txt holds the cases of one input, in the
# order `cases` lists them below, and one case renders as
#
#   $ mipsverify --no-time ARGS
#   <stdout>
#   --- stderr
#   <stderr>
#   --- exit STATUS
#
# Every case runs from the repo root on relative paths, with --no-time
# so that summary lines and JSON carry no wall-clock fields.
#
# Usage: scripts/check_cli_single_file.sh <mipsverify-binary> [golden-dir]
#        scripts/check_cli_single_file.sh --print <mipsverify-binary> NAME
#
# --print writes the rendering of golden NAME to stdout; nothing here
# writes a golden. After an intended change to single-file output,
# regenerate every golden from the repo root and review the diff:
#
#   for g in tests/golden/mipsverify/*.txt; do
#       scripts/check_cli_single_file.sh --print \
#           build/src/verify/mipsverify "$(basename "$g" .txt)" > "$g"
#   done
#
# The `check_cli_single_file` ctest gate runs this after every build.
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)

usage() {
    echo "usage: $0 <mipsverify-binary> [golden-dir]" >&2
    echo "       $0 --print <mipsverify-binary> NAME" >&2
    exit 2
}

# One case per line: golden name, the file on stdin, then the
# arguments.
cases() {
    local f flags
    for f in tests/data/range/*.s; do
        for flags in "" "--range" "--range=json --stack-budget 4" \
            "--range-oracle" "--cost" "--cost=json" "--callgraph"; do
            echo "$(basename "$f" .s) /dev/null $flags $f"
        done
    done
    f=tests/data/fuzz-regressions/fuzz-repro-fuzz-000-a.s
    for flags in "--reorg" "--tv --strict" "--json" \
        "--reorg --range --cost --no-lint" "--tv --no-reorder --no-pack"; do
        echo "$(basename "$f" .s) /dev/null $flags $f"
    done
    for f in tests/data/cli/*.s; do
        for flags in "" "--reorg --range" "--reorg --range-oracle" \
            "--callgraph"; do
            echo "$(basename "$f" .s) /dev/null $flags $f"
        done
    done
    echo "label_collision /dev/null --tv --strict" \
        "tests/data/cli/label_collision.s"
    echo "stdin tests/data/cli/table_entry_data.s -"
    echo "missing /dev/null tests/data/cli/missing.s"
    for flags in "--corpus" "--corpus --json" "--corpus --cost --quiet" \
        "--corpus --range=json --quiet"; do
        echo "corpus /dev/null $flags"
    done
}

# Render every case of golden $2 with binary $1.
render() {
    local mv=$1 want=$2 name stdin args status
    local out err
    out=$(mktemp)
    err=$(mktemp)
    while read -r name stdin args; do
        [ "$name" = "$want" ] || continue
        status=0
        # shellcheck disable=SC2086  # word-splitting is intended
        "$mv" --no-time $args < "$stdin" > "$out" 2> "$err" || status=$?
        if [ "$stdin" = /dev/null ]; then
            echo "\$ mipsverify --no-time $args"
        else
            echo "\$ mipsverify --no-time $args < $stdin"
        fi
        cat "$out"
        echo "--- stderr"
        cat "$err"
        echo "--- exit $status"
    done < <(cases)
    rm -f "$out" "$err"
}

absolute() {
    echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
}

if [ "${1:-}" = "--print" ]; then
    [ $# -eq 3 ] || usage
    mv=$(absolute "$2")
    cd "$repo_root"
    render "$mv" "$3"
    exit 0
fi

[ $# -ge 1 ] || usage
mv=$(absolute "$1")
golden_dir=$(absolute "${2:-$repo_root/tests/golden/mipsverify}")
if [ ! -x "$mv" ]; then
    echo "check_cli_single_file: $mv is not executable" >&2
    exit 2
fi
cd "$repo_root"

names=$(cases | cut -d' ' -f1 | uniq)
n=0
failed=0
for name in $names; do
    golden=$golden_dir/$name.txt
    if [ ! -f "$golden" ]; then
        echo "check_cli_single_file: no golden $golden" >&2
        failed=$((failed + 1))
    elif ! render "$mv" "$name" | diff -u "$golden" - >&2; then
        echo "check_cli_single_file: $name differs from $golden" \
            "(diff above)" >&2
        failed=$((failed + 1))
    fi
    n=$((n + 1))
done
for golden in "$golden_dir"/*.txt; do
    if ! grep -qx "$(basename "$golden" .txt)" <<< "$names"; then
        echo "check_cli_single_file: $golden has no cases" >&2
        failed=$((failed + 1))
    fi
done
if [ "$failed" -ne 0 ]; then
    echo "check_cli_single_file: $failed of $n goldens differ" >&2
    exit 1
fi
echo "check_cli_single_file: $n goldens byte-identical" \
    "($(cases | wc -l) cases)"
