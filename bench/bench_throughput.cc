/**
 * @file
 * Simulated-instruction throughput suite for the pipeline simulator's
 * host fast path (predecoded instruction cache + mapping micro-TLB).
 *
 * Two things happen here:
 *
 *  1. main() runs every workload once with the fast path enabled and
 *     once with it disabled (the reference decode/translate-every-cycle
 *     path), times both with a steady clock, and writes the results —
 *     per program and aggregated, with the speedup ratio — to a
 *     machine-readable JSON file (default `BENCH_throughput.json` in
 *     the working directory, override with `--json=PATH`).
 *
 *  2. The same workloads are registered as google-benchmark cases
 *     (`BM_SimThroughput/<name>/{fast,slow}`) so the usual benchmark
 *     flags (`--benchmark_filter`, `--benchmark_min_time`, ...) work
 *     for interactive measurement.
 *
 * The workloads are the corpus loops the rest of the repo measures —
 * the raw busy loop, recursive Fibonacci, and both Puzzle variants
 * (Table 11's benchmark programs), compiled through the full PLC
 * pipeline — plus a dense block-copy kernel covering the memory
 * path. Every program runs both directly on physical addresses and as
 * a `*_mapped` variant under address translation, so the micro-TLB is
 * on the measured path, not just the predecode cache. A Machine is
 * constructed once per case and re-loaded per run (reloading the same
 * image keeps the predecode cache warm), so the numbers measure
 * stepping, not machine construction and cold decodes.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.h"
#include "obs/catalog.h"
#include "plc/driver.h"
#include "sim/machine.h"
#include "sim/obspub.h"
#include "support/logging.h"
#include "workload/corpus.h"

namespace {

using mips::assembler::Program;

/** One measured workload: a linked program ready to load. `mapped`
 *  runs it under address translation (identity page map over all of
 *  physical memory), exercising the micro-TLB on every fetch and data
 *  reference; unmapped runs exercise only the predecode cache. */
struct Workload
{
    std::string name;
    Program program;
    bool mapped = false;
};

/** The raw-simulator busy loop used by BM_PipelineSimulator. */
Program
busyLoop()
{
    return mips::assembler::assembleOrDie(
        "  ldi #100000, r1\n"
        "loop: sub r1, #1, r1\n"
        "  st r1, @500\n"
        "  bgt r1, #0, loop\n"
        "  nop\n"
        "  halt\n");
}

/** Dense load/store kernel: copy a 100K-word block (the corpus's
 *  compiled programs are call/branch heavy; this covers the
 *  memory-reference path, 2 data references per 5 instructions). The
 *  `sub` fills the load's delay slot, so the store reads the loaded
 *  value one instruction later at the already-decremented index. */
Program
copyLoop()
{
    return mips::assembler::assembleOrDie(
        "  ldi #100000, r1\n"
        "  ldi #200000, r2\n"
        "  ldi #400000, r3\n"
        "loop: ld (r2+r1), r4\n"
        "  sub r1, #1, r1\n"
        "  st r4, (r3+r1)\n"
        "  bgt r1, #0, loop\n"
        "  nop\n"
        "  halt\n");
}

Program
compiled(const char *source)
{
    auto exe = mips::plc::buildExecutable(source);
    if (!exe.ok())
        mips::support::panic("bench_throughput: compile failed: %s",
                             exe.error().str().c_str());
    return exe.value().program;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> kWorkloads = [] {
        std::vector<std::pair<std::string, Program>> base;
        base.emplace_back("busy_loop", busyLoop());
        base.emplace_back("copy_loop", copyLoop());
        base.emplace_back(
            "fibonacci",
            compiled(mips::workload::fibonacciProgram().source));
        base.emplace_back(
            "puzzle0", compiled(mips::workload::puzzle0Program().source));
        base.emplace_back(
            "puzzle1", compiled(mips::workload::puzzle1Program().source));
        // Every program runs twice: directly on physical addresses, and
        // under address translation (`_mapped`), so both halves of the
        // fast path — predecode cache and micro-TLB — are measured over
        // the whole corpus.
        std::vector<Workload> w;
        for (const auto &[name, program] : base)
            w.push_back({name, program, false});
        for (const auto &[name, program] : base)
            w.push_back({name + "_mapped", program, true});
        return w;
    }();
    return kWorkloads;
}

/** Configure + load one workload, ready to run. Setup sits outside
 *  the timed window: the metric is stepping throughput, not program
 *  load time. */
void
prepare(mips::sim::Machine &machine, const Workload &w, bool fast_path)
{
    machine.cpu().enableFastPath(fast_path);
    machine.load(w.program);
    if (w.mapped) {
        // Identity-map all of physical memory (seg_bits 0: the fold is
        // the identity for low addresses) and turn translation on, so
        // every fetch and data reference goes through the mapping unit
        // — micro-TLB hits on the fast path, a hash-map probe per
        // reference on the baseline.
        mips::sim::MappingUnit &mu = machine.mapping();
        if (mu.pageCount() == 0) {
            mu.configure(0, 0);
            uint32_t frames =
                machine.memory().size() >> mips::sim::kPageBits;
            for (uint32_t frame = 0; frame < frames; ++frame)
                mu.installPage(frame << mips::sim::kPageBits, frame);
        }
        machine.cpu().surprise().map_enable = true;
    }
    machine.cpu().clearStats(); // reset() preserves stats; count one run
}

/** Run a prepared workload; returns instructions issued (== cycles). */
uint64_t
runPrepared(mips::sim::Machine &machine, const Workload &w)
{
    mips::sim::StopReason reason = machine.cpu().run(100'000'000);
    if (reason != mips::sim::StopReason::HALT)
        mips::support::panic("bench_throughput: %s did not halt",
                             w.name.c_str());
    return machine.cpu().stats().cycles;
}

uint64_t
runOnce(mips::sim::Machine &machine, const Workload &w, bool fast_path)
{
    prepare(machine, w, fast_path);
    return runPrepared(machine, w);
}

// --- google-benchmark cases ------------------------------------------

void
BM_SimThroughput(benchmark::State &state, const Workload &w,
                 bool fast_path)
{
    mips::sim::Machine machine;
    uint64_t instructions = 0;
    for (auto _ : state)
        instructions += runOnce(machine, w, fast_path);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void
registerBenchmarks()
{
    for (const Workload &w : workloads()) {
        benchmark::RegisterBenchmark(
            ("BM_SimThroughput/" + w.name + "/fast").c_str(),
            [&w](benchmark::State &s) { BM_SimThroughput(s, w, true); })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_SimThroughput/" + w.name + "/slow").c_str(),
            [&w](benchmark::State &s) { BM_SimThroughput(s, w, false); })
            ->Unit(benchmark::kMillisecond);
    }
}

// --- JSON report ------------------------------------------------------

/** One timed configuration of one workload. */
struct Timing
{
    int runs = 0;
    uint64_t instructions = 0; ///< total over all runs
    double seconds = 0.0;

    double
    ips() const
    {
        return seconds > 0.0
                   ? static_cast<double>(instructions) / seconds : 0.0;
    }
};

struct Row
{
    std::string name;
    Timing fast;
    Timing slow;
};

/** One timed run of one configuration, accumulated into `t`. Only the
 *  stepping is inside the clock; load/reset/map setup is not. */
void
timeOnce(mips::sim::Machine &machine, const Workload &w, bool fast_path,
         Timing &t)
{
    using clock = std::chrono::steady_clock;
    prepare(machine, w, fast_path);
    auto start = clock::now();
    t.instructions += runPrepared(machine, w);
    t.seconds +=
        std::chrono::duration<double>(clock::now() - start).count();
    ++t.runs;
}

/**
 * Measure `w` in both configurations. Fast and slow runs alternate
 * pairwise — rather than timing one whole configuration and then the
 * other — so host load changes hit both sides of the ratio equally;
 * the measurement keeps going until both sides have at least
 * `min_runs` runs and `min_seconds` of accumulated wall time.
 */
Row
measureRow(mips::sim::Machine &machine, const Workload &w, int min_runs,
           double min_seconds)
{
    Row row;
    row.name = w.name;
    runOnce(machine, w, true);  // warm up (page in, fill caches)
    runOnce(machine, w, false);
    while (row.fast.runs < min_runs || row.fast.seconds < min_seconds ||
           row.slow.seconds < min_seconds) {
        timeOnce(machine, w, true, row.fast);
        timeOnce(machine, w, false, row.slow);
    }
    return row;
}

void
writeJson(const std::string &path, const std::vector<Row> &rows)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        mips::support::panic("bench_throughput: cannot write %s",
                             path.c_str());
    uint64_t fast_instr = 0, slow_instr = 0;
    double fast_sec = 0.0, slow_sec = 0.0;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": 1,\n");
    std::fprintf(f, "  \"benchmark\": \"bench_throughput\",\n");
    std::fprintf(f, "  \"metric\": \"simulated instructions per second "
                    "(pipeline simulator)\",\n");
    std::fprintf(f, "  \"programs\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        fast_instr += r.fast.instructions;
        fast_sec += r.fast.seconds;
        slow_instr += r.slow.instructions;
        slow_sec += r.slow.seconds;
        std::fprintf(
            f,
            "    {\"name\": \"%s\",\n"
            "     \"fastpath\": {\"runs\": %d, \"instructions\": %llu, "
            "\"seconds\": %.6f, \"instructions_per_second\": %.0f},\n"
            "     \"baseline\": {\"runs\": %d, \"instructions\": %llu, "
            "\"seconds\": %.6f, \"instructions_per_second\": %.0f},\n"
            "     \"speedup\": %.3f}%s\n",
            r.name.c_str(), r.fast.runs,
            static_cast<unsigned long long>(r.fast.instructions),
            r.fast.seconds, r.fast.ips(), r.slow.runs,
            static_cast<unsigned long long>(r.slow.instructions),
            r.slow.seconds, r.slow.ips(),
            r.slow.ips() > 0.0 ? r.fast.ips() / r.slow.ips() : 0.0,
            i + 1 < rows.size() ? "," : "");
    }
    double fast_ips =
        fast_sec > 0.0 ? static_cast<double>(fast_instr) / fast_sec : 0.0;
    double slow_ips =
        slow_sec > 0.0 ? static_cast<double>(slow_instr) / slow_sec : 0.0;
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"aggregate\": {\"fastpath_instructions_per_second\": %.0f,\n"
        "                \"baseline_instructions_per_second\": %.0f,\n"
        "                \"speedup\": %.3f},\n",
        fast_ips, slow_ips, slow_ips > 0.0 ? fast_ips / slow_ips : 0.0);
    // Embed the process-wide metrics snapshot (docs/METRICS.md) — the
    // sim.* counters for the measured machine are published by main()
    // before this runs. Register the whole catalog first so the metric
    // set is identical from run to run.
    mips::obs::registerBuiltinMetrics();
    std::string metrics =
        mips::obs::Registry::instance().snapshot().jsonMetricsArray(2);
    std::fprintf(f, "  \"metrics\": %s\n", metrics.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("aggregate: fastpath %.1fM instr/s, baseline %.1fM "
                "instr/s, speedup %.2fx -> %s\n",
                fast_ips / 1e6, slow_ips / 1e6,
                slow_ips > 0.0 ? fast_ips / slow_ips : 0.0, path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip our own --json=PATH flag before google-benchmark parses.
    std::string json_path = "BENCH_throughput.json";
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else
            argv[out++] = argv[i];
    }
    argc = out;

    std::vector<Row> rows;
    {
        mips::sim::Machine machine;
        for (const Workload &w : workloads()) {
            Row row = measureRow(machine, w, 3, 0.3);
            std::printf("%-16s fast %8.1fM instr/s   slow %8.1fM "
                        "instr/s   speedup %.2fx\n",
                        w.name.c_str(), row.fast.ips() / 1e6,
                        row.slow.ips() / 1e6,
                        row.slow.ips() > 0.0
                            ? row.fast.ips() / row.slow.ips() : 0.0);
            rows.push_back(row);
        }
        // Fold the measured machine's counters into the sim.* metrics
        // once, after all timed runs. prepare() clears CpuStats per
        // run, so the published cycle counters describe the final run;
        // the decode-cache/TLB totals span the whole measurement.
        mips::sim::publishMetrics(machine);
    }
    writeJson(json_path, rows);

    registerBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
