#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds the
toolchain and the perfbench driver from source with CMake (into
.bench_build/perfbench), runs the workload in a fresh process, and
prints, in order:

  - a human-readable summary: the host, then the end-to-end metrics
    (--trace 0) or the per-layer metrics the workload exercised and the
    tracing overhead (--trace 1);
  - one `perfbench-record {...}` line holding everything measured, which
    compare.py reads;
  - as the last line, the result object with the keys correct,
    attempted, failed and metrics, where metrics holds every end-to-end
    (--trace 0) or per-layer (--trace 1) metric that BENCHMARK.json
    names. A per-layer metric of a layer the workload does not exercise
    reads 0 there and is left out of the summary and the record.

The exit status is 0 only when every output check passed. Without the
toolchain sources next to this directory it exits 2 and prints no
result.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def read_int(path):
    try:
        return int(Path(path).read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def host():
    """CPU facts the numbers depend on: the core count the OS reports,
    the affinity mask, the cgroup v1 and v2 CPU quotas and the effective
    core count they leave (the smallest of the three)."""
    affinity = len(os.sched_getaffinity(0))
    facts = {"nproc": os.cpu_count(), "affinity_cpus": affinity,
             "cgroup_v2_cpu_max": None, "cgroup_v1_cfs": None}
    effective = float(affinity)
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        facts["cgroup_v2_cpu_max"] = f"{quota} {period}"
        if quota != "max":
            effective = min(effective, int(quota) / int(period))
    except (OSError, ValueError):
        pass
    for base in ("/sys/fs/cgroup/cpu", "/sys/fs/cgroup/cpu,cpuacct"):
        quota = read_int(f"{base}/cpu.cfs_quota_us")
        period = read_int(f"{base}/cpu.cfs_period_us")
        if quota is not None and period:
            facts["cgroup_v1_cfs"] = f"{quota} {period}"
            if quota > 0:
                effective = min(effective, quota / period)
            break
    facts["effective_cores"] = effective
    return facts


def build():
    """Configure once, then bring the driver up to date (a no-op when
    nothing changed). Build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no toolchain sources under {ROOT / 'src'}", 2)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return BUILD / "perfbench"


def fmt(value):
    if value == int(value):
        return str(int(value))
    digits = max(0, 4 - int(math.floor(math.log10(abs(value)))))
    return f"{value:.{min(digits, 6)}f}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--expect", str(HERE / "sim_expected.txt")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{args.workload} exited {proc.returncode} without a record")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = record["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and not args.trace:
            fail(f"{args.workload} did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"] if got else 0,
                              "unit": m["unit"]}
    extra = sorted(set(measured) - {m["name"] for m in wanted})
    if extra:
        fail(f"{args.workload} reported metrics BENCHMARK.json does not "
             f"name: {', '.join(extra)}")

    facts = host()
    notes = record["notes"]
    if "fuzz.workers" in notes:
        facts["fuzz_threads"] = int(notes["fuzz.workers"])
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, m in measured.items():
        line = f"  {name:40s} {fmt(m['value']):>16s} {m['unit']}"
        if name == "verdict_ms_tail":
            line += (f"  (p{notes['tail_percentile']:g} of "
                     f"{int(notes['tail_samples'])} samples)")
        print(line)
    print(f"  {'fail_ratio':40s} {record['failed']}/{record['attempted']}")
    for message in record["failures"]:
        print(f"  FAILED: {message}")

    print("perfbench-record " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": facts,
        **record}))
    print(json.dumps({"correct": record["correct"] and proc.returncode == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if record["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
