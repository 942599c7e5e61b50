#!/usr/bin/env python3
"""Deterministic-counter gate: every `--stats=json` metric that is not
a time must equal its value in tests/golden/stats_counters.txt.

Two runs are pinned, a 50-program fuzz batch and the corpus trust run
(TV, cost and range). At `--jobs 1` their counts, cycles, pages and
instructions depend only on the code, never on the host, so a change
that claims identical output must leave every one of them unchanged.
Metrics in `us` or `ms` are wall or CPU time and are skipped.

The golden holds one block per run: a `$ mipsverify ARGS` line, then
one `NAME VALUE` line per metric, sorted by name.

Usage: scripts/check_stats_counters.py <mipsverify-binary> [golden]
       scripts/check_stats_counters.py --print <mipsverify-binary>

--print writes the rendering to stdout; nothing here writes the
golden. After an intended change to a counter, regenerate it from the
repo root and review the diff:

    scripts/check_stats_counters.py --print build/src/verify/mipsverify \\
        > tests/golden/stats_counters.txt

The `check_stats_counters` ctest gate runs this after every build.
"""
import difflib
import json
import os
import subprocess
import sys

RUNS = [
    ["--fuzz", "50", "--seed", "7", "--jobs", "1", "--quiet",
     "--stats=json"],
    ["--corpus", "--tv", "--cost", "--range", "--jobs", "1", "--quiet",
     "--no-time", "--stats=json"],
]
TIME_UNITS = {"us", "ms"}
# --stats=json is the last thing a run prints, after any report text.
STATS_START = '{\n  "schema": 1'
GOLDEN = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "tests", "golden",
    "stats_counters.txt"))


def render(binary):
    lines = []
    for args in RUNS:
        proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            sys.exit(f"check_stats_counters: mipsverify {' '.join(args)} "
                     f"exited {proc.returncode}")
        start = proc.stdout.rfind(STATS_START)
        if start < 0:
            sys.exit(f"check_stats_counters: mipsverify {' '.join(args)} "
                     "printed no --stats=json block")
        metrics = json.loads(proc.stdout[start:])["metrics"]
        lines.append(f"$ mipsverify {' '.join(args)}\n")
        for m in sorted(metrics, key=lambda m: m["name"]):
            if m["unit"] not in TIME_UNITS:
                lines.append(f"{m['name']} {m['value']}\n")
    return lines


def main(argv):
    if len(argv) == 3 and argv[1] == "--print":
        sys.stdout.writelines(render(argv[2]))
        return 0
    if len(argv) not in (2, 3) or argv[1].startswith("--"):
        sys.exit(f"usage: {argv[0]} <mipsverify-binary> [golden]\n"
                 f"       {argv[0]} --print <mipsverify-binary>")
    golden_path = argv[2] if len(argv) == 3 else GOLDEN
    with open(golden_path) as f:
        golden = f.readlines()
    actual = render(argv[1])
    if actual != golden:
        sys.stdout.writelines(difflib.unified_diff(
            golden, actual, golden_path, "actual"))
        print("check_stats_counters: a deterministic counter moved; "
              "after an intended change, regenerate the golden with "
              "--print and review the diff", file=sys.stderr)
        return 1
    count = sum(1 for line in actual if not line.startswith("$ "))
    print(f"check_stats_counters: {count} counters match {golden_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
