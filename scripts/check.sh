#!/usr/bin/env bash
# Tier-1 verification: build, run the full test suite, statically
# verify the whole workload corpus with mipsverify (including the
# value-range/memory-safety pass and its simulator-as-oracle fault
# corpus under tests/data/range/), and check the observability
# surface (--stats=json self-consistency and a loadable --trace-out
# file). No step is timed: perfbench (perfbench/README.md) is the
# repository's one performance measurement.
#
# Usage:
#   scripts/check.sh [build-dir]               full check (default ./build)
#   scripts/check.sh sanitize [build-dir]      ASan+UBSan build + ctest
#                                              (default ./build-sanitize)
#   scripts/check.sh tsan [build-dir]          ThreadSanitizer build; runs
#                                              the pipeline-session and
#                                              simulator tests, a parallel
#                                              mipsverify corpus pass and
#                                              a 40-program --jobs 4 fuzz
#                                              pass (default ./build-tsan)
#   scripts/check.sh tv [build-dir]            translation-validation gate
#                                              only (corpus must prove
#                                              equivalent under the full
#                                              reorganizer and under each
#                                              single-stage toggle)
#   scripts/check.sh lint [build-dir]          clang-tidy (.clang-tidy
#                                              config) over the verify and
#                                              pipeline layers + ctest;
#                                              skips the tidy step with a
#                                              notice when clang-tidy is
#                                              not installed
#   scripts/check.sh nightly [build-dir]       the full default check, then
#                                              a Release build + ctest in
#                                              ./build-release, a
#                                              500-program differential
#                                              fuzz sweep on all cores and
#                                              a ThreadSanitizer fuzz pass
#                                              (--jobs 0) in ./build-tsan
#                                              (see docs/FUZZING.md)
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)

# Translation-validation gate: every corpus program must *prove*
# equivalent (--strict turns any TV090 "not proven" note into a
# failure), with every reorganizer stage enabled and with each stage
# disabled one at a time.
run_tv_gate() {
    local build_dir=$1
    local config
    for config in "" "--no-reorder" "--no-pack" "--no-fill-delay" \
        "--no-jump-tables"; do
        # shellcheck disable=SC2086  # word-splitting is intended
        "$build_dir/src/verify/mipsverify" --tv --strict --quiet \
            $config --corpus
        echo "check.sh: tv gate clean (${config:-full reorganizer})"
    done
}

# Differential-fuzz smoke gate (docs/FUZZING.md): a pinned-seed batch
# must come back with zero mismatches and zero front-end errors, two
# same-seed runs must be byte-identical (the seed-reproducibility
# contract), and every checked-in counterexample under
# tests/data/fuzz-regressions/ must still replay clean — a replay
# failure means a real bug with the shape of a previously-found one.
run_fuzz_gate() {
    local build_dir=$1
    local mv=$build_dir/src/verify/mipsverify
    "$mv" --fuzz 25 --seed 1982 --quiet
    "$mv" --fuzz 25 --seed 1982 > "$build_dir/fuzz-a.out"
    "$mv" --fuzz 25 --seed 1982 > "$build_dir/fuzz-b.out"
    cmp "$build_dir/fuzz-a.out" "$build_dir/fuzz-b.out"
    echo "check.sh: fuzz smoke clean (25 programs, byte-identical)"
    local repro repro_n=0
    for repro in "$repo_root"/tests/data/fuzz-regressions/fuzz-repro-*; do
        if ! "$mv" --fuzz-file "$repro" --quiet; then
            echo "check.sh: FUZZ REGRESSION: $repro no longer replays" \
                "clean — a previously-found counterexample shape has" \
                "resurfaced (docs/FUZZING.md)" >&2
            exit 1
        fi
        repro_n=$((repro_n + 1))
    done
    echo "check.sh: fuzz regressions replay clean ($repro_n reproducers)"
}

# Run a Python check over FILE, a stream of concatenated JSON
# documents (mipsverify --json, --cost=json and --range=json print one
# per unit). The check, read from stdin, sees them as the list `docs`,
# which must not be empty; WHAT names the stream in failures.
#
# Usage: check_json_stream FILE WHAT <<'EOF' ... EOF
check_json_stream() {
    local check
    check=$(cat)
    python3 - "$1" "$2" <<EOF
import json, sys
raw = open(sys.argv[1]).read()
dec, i, docs = json.JSONDecoder(), 0, []
while i < len(raw):
    while i < len(raw) and raw[i].isspace():
        i += 1
    if i >= len(raw):
        break
    doc, i = dec.raw_decode(raw, i)
    docs.append(doc)
if not docs:
    sys.exit(f"{sys.argv[2]}: no documents emitted")
$check
EOF
}

if [ "${1:-}" = "nightly" ]; then
    shift
    build_dir=${1:-"$repo_root/build"}
    # The nightly sweep is the default check first — no point fuzzing
    # at scale on a build that fails tier 1.
    "$repo_root/scripts/check.sh" "$build_dir"
    # Performance is measured on Release (-O3) builds, and -Werror
    # holds there too: GCC raises some warnings (-Wrestrict, for one)
    # only at -O3, which the default -O2 tree never sees.
    release_dir=$repo_root/build-release
    cmake -S "$repo_root" -B "$release_dir" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$release_dir" -j "$(nproc)"
    ctest --test-dir "$release_dir" -j "$(nproc)" --output-on-failure
    echo "check.sh: nightly release build and ctest clean"
    "$build_dir/src/verify/mipsverify" --fuzz 500 --seed 1982 \
        --jobs 0 --quiet --stats=json > "$build_dir/fuzz-nightly.json"
    echo "check.sh: nightly fuzz sweep clean (500 programs)"
    tsan_dir=$repo_root/build-tsan
    cmake -S "$repo_root" -B "$tsan_dir" -DMIPS82_TSAN=ON
    cmake --build "$tsan_dir" -j "$(nproc)" --target mipsverify
    "$tsan_dir/src/verify/mipsverify" --fuzz 100 --seed 1982 \
        --jobs 0 --quiet
    echo "check.sh: nightly tsan fuzz pass clean (100 programs)"
    echo "check.sh: nightly green"
    exit 0
fi

if [ "${1:-}" = "tv" ]; then
    shift
    build_dir=${1:-"$repo_root/build"}
    if [ ! -f "$build_dir/CMakeCache.txt" ]; then
        cmake -S "$repo_root" -B "$build_dir"
    fi
    cmake --build "$build_dir" -j "$(nproc)" --target mipsverify
    run_tv_gate "$build_dir"
    echo "check.sh: tv green"
    exit 0
fi

if [ "${1:-}" = "lint" ]; then
    shift
    build_dir=${1:-"$repo_root/build"}
    if [ ! -f "$build_dir/CMakeCache.txt" ]; then
        cmake -S "$repo_root" -B "$build_dir"
    fi
    cmake --build "$build_dir" -j "$(nproc)"
    if command -v clang-tidy > /dev/null 2>&1; then
        if [ ! -f "$build_dir/compile_commands.json" ]; then
            echo "check.sh: lint: no compile_commands.json in" \
                "$build_dir (re-run cmake)" >&2
            exit 1
        fi
        # The static-analysis layers own the strictest bar; the tidy
        # config (.clang-tidy) promotes every enabled check to error.
        clang-tidy -p "$build_dir" --quiet \
            "$repo_root"/src/verify/*.cc "$repo_root"/src/pipeline/*.cc
        echo "check.sh: lint: clang-tidy clean"
    else
        echo "check.sh: lint: clang-tidy not installed; skipping the" \
            "tidy step (build + tests still gate)"
    fi
    ctest --test-dir "$build_dir" -j "$(nproc)" --output-on-failure
    echo "check.sh: lint green"
    exit 0
fi

if [ "${1:-}" = "tsan" ]; then
    shift
    build_dir=${1:-"$repo_root/build-tsan"}
    cmake -S "$repo_root" -B "$build_dir" -DMIPS82_TSAN=ON
    cmake --build "$build_dir" -j "$(nproc)" \
        --target pipeline_test obs_test sim_test mipsverify
    "$build_dir/tests/pipeline_test"
    "$build_dir/tests/obs_test"
    "$build_dir/tests/sim_test"
    "$build_dir/src/verify/mipsverify" --jobs 8 --corpus --quiet \
        --stats=json > /dev/null
    # --jobs 0 = auto-detect worker count (docs/CLI.md): same corpus
    # pass (including the dispatch-heavy jump-table programs) on one
    # worker per usable core.
    "$build_dir/src/verify/mipsverify" --jobs 0 --corpus --quiet \
        --stats=json > /dev/null
    # Concurrent Machines and functional runs: every worker's
    # PhysMemory shares the one static zero page.
    "$build_dir/src/verify/mipsverify" --fuzz 40 --seed 7 --jobs 4 \
        --quiet
    echo "check.sh: tsan green"
    exit 0
fi

if [ "${1:-}" = "sanitize" ]; then
    shift
    build_dir=${1:-"$repo_root/build-sanitize"}
    cmake -S "$repo_root" -B "$build_dir" -DMIPS82_SANITIZE=ON
    cmake --build "$build_dir" -j "$(nproc)"
    # ASan's shadow memory inflates peak RSS past the fuzz memory gate.
    ctest --test-dir "$build_dir" -j "$(nproc)" --output-on-failure \
        -E '^check_fuzz_memory$'
    echo "check.sh: sanitize green"
    exit 0
fi

build_dir=${1:-"$repo_root/build"}

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    cmake -S "$repo_root" -B "$build_dir"
fi
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" -j "$(nproc)" --output-on-failure

# Static-analysis hygiene: the default check runs the same tidy
# pass as `check.sh lint` whenever clang-tidy is on PATH (the
# .clang-tidy config promotes every enabled check to error).
if command -v clang-tidy > /dev/null 2>&1; then
    clang-tidy -p "$build_dir" --quiet \
        "$repo_root"/src/verify/*.cc "$repo_root"/src/pipeline/*.cc
    echo "check.sh: clang-tidy clean"
else
    echo "check.sh: clang-tidy not installed; skipping the tidy step"
fi

# Static verification gate: every reorganized corpus program must
# satisfy the software-interlock contract (exit 1 on any error-
# severity diagnostic).
"$build_dir/src/verify/mipsverify" --corpus

# Determinism gate: parallel verification must emit byte-identical
# output to a serial run, in text and JSON mode and with every
# analysis report (--no-time drops the wall-clock fields, which
# legitimately vary).
mv=$build_dir/src/verify/mipsverify
for mode in "" "--json" "--tv --strict --cost=json --range=json"; do
    # shellcheck disable=SC2086  # word-splitting is intended
    "$mv" --corpus --no-time --jobs 1 $mode \
        > "$build_dir/verify-serial.out"
    # shellcheck disable=SC2086
    "$mv" --corpus --no-time --jobs 8 $mode \
        > "$build_dir/verify-parallel.out"
    cmp "$build_dir/verify-serial.out" \
        "$build_dir/verify-parallel.out"
    echo "check.sh: --jobs 8 output identical (${mode:-text})"
done

# Translation-validation gate: the corpus must also *prove*
# equivalent, under the full reorganizer and each stage toggle.
run_tv_gate "$build_dir"

# Diagnostics-JSON gate: machine output must parse as a stream of
# schema-1 documents whose summary blocks agree with the
# severity counters.
"$mv" --corpus --json --no-time --quiet \
    > "$build_dir/verify-corpus.json"
check_json_stream "$build_dir/verify-corpus.json" "mipsverify --json" \
    <<'EOF'
for doc in docs:
    if doc.get("schema") != 1:
        sys.exit(f"{doc.get('unit')}: diagnostics schema is not 1")
    if sum(doc["summary"].values()) != len(doc["diagnostics"]):
        sys.exit(f"{doc['unit']}: summary counts disagree with the "
                 "diagnostics array")
    by_code = {}
    for d in doc["diagnostics"]:
        by_code[d["code"]] = by_code.get(d["code"], 0) + 1
    if by_code != doc["summary"]:
        sys.exit(f"{doc['unit']}: per-code summary mismatch")
print(f"diagnostics-json gate: {len(docs)} schema-1 documents, "
      f"summaries consistent")
EOF

# Cost-model parity gate: the static cycle-cost model must agree
# exactly with the simulator's dynamic per-word issue counts for
# every straight-line block of every reorganized corpus program.
"$mv" --corpus --cost=json --quiet --no-time \
    > "$build_dir/cost-corpus.json"
check_json_stream "$build_dir/cost-corpus.json" \
    "mipsverify --cost=json" <<'EOF'
checked = exact = 0
for doc in docs:
    parity = doc.get("parity")
    if parity is None:
        sys.exit(f"{doc.get('unit')}: cost report carries no parity "
                 "sweep")
    if parity["violations"] != 0:
        sys.exit(f"{doc['unit']}: {parity['violations']} cost parity "
                 f"violation(s): {parity.get('notes')}")
    checked += parity["checked"]
    exact += parity["exact"]
print(f"cost parity gate: {len(docs)} programs, {checked} blocks "
      f"checked, {exact} exact")
EOF

# Value-range gate (1): the clean corpus must carry zero MUST
# memory-safety findings (the --range exit status already enforces
# this; the JSON pass below re-checks it structurally).
"$mv" --corpus --range=json --quiet --no-time \
    > "$build_dir/range-corpus.json"
check_json_stream "$build_dir/range-corpus.json" \
    "mipsverify --range=json" <<'EOF'
may = 0
for doc in docs:
    if doc.get("schema") != 1:
        sys.exit(f"{doc.get('unit')}: range schema is not 1")
    if doc["must_findings"] != 0:
        sys.exit(f"{doc['unit']}: clean corpus has "
                 f"{doc['must_findings']} MUST memory-safety "
                 "finding(s)")
    if doc["reachable_items"] <= 0:
        sys.exit(f"{doc['unit']}: range analysis reached no items")
    may += doc["may_findings"]
print(f"value-range gate: {len(docs)} programs, 0 must findings, "
      f"{may} may finding(s)")
EOF

# Value-range gate (2): simulator as oracle over the fault corpus.
# Every dynamically observed fault/overflow event must be covered
# by a MUST or MAY finding at (or reachable from) its pc; mapped
# instruction-fetch page faults are exempt (no resident pages).
oracle_n=0
for prog in "$repo_root"/tests/data/range/*.s; do
    "$mv" --range-oracle --quiet --no-time "$prog" > /dev/null
    oracle_n=$((oracle_n + 1))
done
echo "check.sh: range-oracle gate clean ($oracle_n programs)"

# Differential-fuzz smoke gate + regression replay (docs/FUZZING.md).
run_fuzz_gate "$build_dir"

# Observability gate: a parallel corpus run with --stats=json must
# emit a parseable, self-consistent registry snapshot (per stage,
# lookups == hits + misses), and --trace-out must produce a
# Chrome-trace document with span events.
"$mv" --corpus --jobs 8 --quiet --stats=json \
    --trace-out "$build_dir/trace.json" > "$build_dir/stats.json"
python3 - "$build_dir/stats.json" "$build_dir/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
if stats["schema"] != 1:
    sys.exit("mipsverify --stats=json: unexpected schema")
metrics = {m["name"]: m for m in stats["metrics"]}
stages = ("parse", "compile", "assemble", "reorganize", "hazard-verify",
          "translation-validate", "simulate", "cost", "range")
for stage in stages:
    lookups = metrics[f"pipeline.{stage}.lookups"]["value"]
    hits = metrics[f"pipeline.{stage}.hits"]["value"]
    misses = metrics[f"pipeline.{stage}.misses"]["value"]
    if lookups != hits + misses:
        sys.exit(f"pipeline.{stage}: lookups {lookups} != "
                 f"hits {hits} + misses {misses}")
if metrics["verify.units"]["value"] <= 0:
    sys.exit("mipsverify --stats=json: no verify.units recorded")
if metrics["verify.unit_ms"]["count"] <= 0:
    sys.exit("mipsverify --stats=json: verify.unit_ms histogram is "
             "dead (no per-unit verify timings observed)")
if metrics["batch.queue_depth"]["value"] != 0:
    sys.exit("mipsverify --stats=json: batch.queue_depth did not "
             "return to 0 after the run")
with open(sys.argv[2]) as f:
    trace = json.load(f)
if not trace["traceEvents"]:
    sys.exit("mipsverify --trace-out: no span events recorded")
print(f"stats/trace gate: {len(metrics)} metrics consistent, "
      f"{len(trace['traceEvents'])} span events")
EOF

echo "check.sh: all green"
