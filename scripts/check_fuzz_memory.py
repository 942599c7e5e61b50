#!/usr/bin/env python3
"""Fuzz memory gate: a 100-program fuzz run must peak under 48 MB RSS.

mipsverify gives each fuzzed program its own pipeline Session, so
peak RSS stays flat as the program count grows. A cache that outlives
its program adds about 1 MB per program and fails this gate. The bound
is on memory, not wall time, so it holds on any host. Sanitizer builds
inflate RSS and must exclude this test.

Usage: scripts/check_fuzz_memory.py <mipsverify-binary>

The `check_fuzz_memory` ctest gate runs this after every build.
"""
import resource
import subprocess
import sys

ARGS = ["--fuzz", "100", "--seed", "7", "--jobs", "1", "--quiet"]
LIMIT_MB = 48

if len(sys.argv) != 2:
    sys.exit(f"usage: {sys.argv[0]} <mipsverify-binary>")
status = subprocess.run([sys.argv[1], *ARGS]).returncode
if status != 0:
    sys.exit(f"check_fuzz_memory: mipsverify {' '.join(ARGS)} "
             f"exited {status}")
# ru_maxrss is in KB on Linux; the only child is the fuzz run.
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if peak_mb > LIMIT_MB:
    sys.exit(f"check_fuzz_memory: peak RSS {peak_mb:.1f} MB exceeds "
             f"{LIMIT_MB} MB (does a Session outlive its program?)")
print(f"check_fuzz_memory: peak RSS {peak_mb:.1f} MB "
      f"(limit {LIMIT_MB} MB)")
