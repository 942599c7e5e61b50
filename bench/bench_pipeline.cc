/**
 * @file
 * Pipeline-session throughput suite: times the full corpus tool chain
 * (compile → reorganize → hazard-verify → translation-validate →
 * simulate → cost-model → value-range) through `pipeline::runAll` and
 * writes the results to a
 * machine-readable JSON file (default `BENCH_pipeline.json` in the
 * working directory, override with `--json=PATH`):
 *
 *   - serial cold:  fresh Session, 1 job — every stage computes
 *   - cached:       same Session again — every stage hits the cache
 *   - scaling:      fresh Session per point, jobs ∈ {1, 2, 4, 8} —
 *                   BatchRunner fans the corpus across worker threads;
 *                   each point is the best of three runs so one
 *                   scheduler hiccup does not poison the curve
 *
 * The report (schema 4) records the cores the process may use
 * (`host_cores`, `support::effectiveCores()`), the full scaling curve,
 * and the headline `parallel_speedup` (the jobs = 8 point).
 * scripts/check.sh validates the structure only: wall-clock speedups
 * depend on the host, so no threshold applies to them. The perfbench
 * `fuzz_parallel` workload judges parallel throughput.
 *
 * The serial/cached/parallel configurations are registered as
 * google-benchmark cases (`BM_CorpusChain/{serial_cold,cached,
 * parallel8}`) for interactive measurement, and the per-stage
 * hit/miss/wall-time counters from the cold run are printed as a
 * `PipelineStats` table.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/catalog.h"
#include "pipeline/session.h"
#include "support/cores.h"
#include "support/logging.h"
#include "workload/corpus.h"

namespace {

namespace pl = mips::pipeline;

const std::vector<mips::workload::CorpusProgram> &
benchCorpus()
{
    static const std::vector<mips::workload::CorpusProgram> kCorpus =
        [] {
            std::vector<mips::workload::CorpusProgram> programs =
                mips::workload::corpus();
            programs.push_back(mips::workload::fibonacciProgram());
            programs.push_back(mips::workload::puzzle0Program());
            programs.push_back(mips::workload::puzzle1Program());
            return programs;
        }();
    return kCorpus;
}

pl::ChainSpec
fullChain()
{
    pl::ChainSpec spec;
    spec.hazard_verify = true;
    spec.translation_validate = true;
    spec.simulate = true;
    spec.cost_model = true;
    spec.value_range = true;
    return spec;
}

/** Run the whole corpus through the full chain; panic on any failure
 *  (the corpus is expected to verify clean — this is a benchmark, not
 *  a test). Returns wall time in milliseconds. */
double
runChain(pl::Session &session, unsigned jobs)
{
    using clock = std::chrono::steady_clock;
    auto start = clock::now();
    std::vector<pl::ChainResult> results = pl::runAll(
        session, benchCorpus(), fullChain(), pl::StageOptions{}, jobs);
    double ms =
        std::chrono::duration<double, std::milli>(clock::now() - start)
            .count();
    for (const pl::ChainResult &r : results) {
        if (!r.ok())
            mips::support::panic("bench_pipeline: %s: %s",
                                 r.name.c_str(), r.error.c_str());
        if (!r.verify->report.clean())
            mips::support::panic(
                "bench_pipeline: %s: verification not clean",
                r.name.c_str());
    }
    return ms;
}

/** Best of `reps` cold runs (fresh Session each) at `jobs` workers. */
double
bestColdMs(int reps, unsigned jobs)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        pl::Session session;
        double ms = runChain(session, jobs);
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

/** One point of the jobs-scaling sweep. */
struct SweepPoint
{
    unsigned jobs;
    double ms;
};

// --- google-benchmark cases ------------------------------------------

void
BM_CorpusChainSerialCold(benchmark::State &state)
{
    for (auto _ : state) {
        pl::Session session;
        benchmark::DoNotOptimize(runChain(session, 1));
    }
}
BENCHMARK(BM_CorpusChainSerialCold)
    ->Name("BM_CorpusChain/serial_cold")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void
BM_CorpusChainCached(benchmark::State &state)
{
    pl::Session session;
    runChain(session, 1); // warm the cache outside the timed loop
    for (auto _ : state)
        benchmark::DoNotOptimize(runChain(session, 1));
}
BENCHMARK(BM_CorpusChainCached)
    ->Name("BM_CorpusChain/cached")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void
BM_CorpusChainParallel8(benchmark::State &state)
{
    for (auto _ : state) {
        pl::Session session;
        benchmark::DoNotOptimize(runChain(session, 8));
    }
}
BENCHMARK(BM_CorpusChainParallel8)
    ->Name("BM_CorpusChain/parallel8")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

// --- JSON report ------------------------------------------------------

void
writeJson(const std::string &path, double serial_ms, double cached_ms,
          const std::vector<SweepPoint> &scaling,
          const pl::PipelineStats &st)
{
    const SweepPoint &top = scaling.back();
    double parallel_ms = top.ms;
    unsigned jobs = top.jobs;
    unsigned host_cores = mips::support::effectiveCores();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        mips::support::panic("bench_pipeline: cannot write %s",
                             path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": 4,\n");
    std::fprintf(f, "  \"benchmark\": \"bench_pipeline\",\n");
    std::fprintf(f, "  \"metric\": \"full corpus tool-chain wall time "
                    "(compile+reorg+verify+tv+simulate+cost+range)\",\n");
    std::fprintf(f, "  \"programs\": %zu,\n", benchCorpus().size());
    std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
    std::fprintf(f, "  \"jobs\": %u,\n", jobs);
    std::fprintf(f, "  \"serial_ms\": %.3f,\n", serial_ms);
    std::fprintf(f, "  \"cached_ms\": %.3f,\n", cached_ms);
    std::fprintf(f, "  \"parallel_ms\": %.3f,\n", parallel_ms);
    std::fprintf(f, "  \"cache_speedup\": %.3f,\n",
                 cached_ms > 0.0 ? serial_ms / cached_ms : 0.0);
    std::fprintf(f, "  \"parallel_speedup\": %.3f,\n",
                 parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
    std::fprintf(f, "  \"scaling\": [\n");
    for (size_t i = 0; i < scaling.size(); ++i) {
        const SweepPoint &p = scaling[i];
        std::fprintf(f,
                     "    {\"jobs\": %u, \"ms\": %.3f, "
                     "\"speedup\": %.3f}%s\n",
                     p.jobs, p.ms,
                     p.ms > 0.0 ? serial_ms / p.ms : 0.0,
                     i + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"stages\": [\n");
    for (size_t s = 0; s < pl::kStageCount; ++s) {
        const pl::StageCounters &c = st.stage[s];
        std::fprintf(f,
                     "    {\"stage\": \"%s\", \"hits\": %llu, "
                     "\"misses\": %llu, \"waits\": %llu, "
                     "\"miss_ms\": %.3f}%s\n",
                     pl::stageName(static_cast<pl::Stage>(s)),
                     static_cast<unsigned long long>(c.hits),
                     static_cast<unsigned long long>(c.misses),
                     static_cast<unsigned long long>(c.wait_blocks),
                     c.miss_ms, s + 1 < pl::kStageCount ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    // The cost-model stage is new in schema 3; surface its counters
    // at top level so report consumers need not scan the stage array.
    const pl::StageCounters &cost =
        st.stage[static_cast<size_t>(pl::Stage::COST_MODEL)];
    std::fprintf(f,
                 "  \"cost_stage\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"miss_ms\": %.3f},\n",
                 static_cast<unsigned long long>(cost.hits),
                 static_cast<unsigned long long>(cost.misses),
                 cost.miss_ms);
    // Embed the process-wide metrics snapshot (docs/METRICS.md), so a
    // stored BENCH_pipeline.json carries the full counter state of the
    // run it measured. Register the whole catalog first so the metric
    // set is identical from run to run.
    mips::obs::registerBuiltinMetrics();
    std::string metrics =
        mips::obs::Registry::instance().snapshot().jsonMetricsArray(2);
    std::fprintf(f, "  \"metrics\": %s\n", metrics.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("corpus chain (%u cores): serial %.1f ms, cached "
                "%.1f ms (%.1fx), parallel(%u) %.1f ms (%.2fx)\n",
                host_cores, serial_ms, cached_ms,
                cached_ms > 0.0 ? serial_ms / cached_ms : 0.0, jobs,
                parallel_ms,
                parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
    for (const SweepPoint &p : scaling)
        std::printf("  jobs=%u: %.1f ms (%.2fx)\n", p.jobs, p.ms,
                    p.ms > 0.0 ? serial_ms / p.ms : 0.0);
    std::printf("-> %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip our own --json=PATH flag before google-benchmark parses.
    std::string json_path = "BENCH_pipeline.json";
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else
            argv[out++] = argv[i];
    }
    argc = out;

    // Serial cold run, with per-stage counters from a fresh session.
    // Also warms the process (code pages, allocator arenas) so the
    // sweep below compares steady-state runs.
    pl::Session cold;
    runChain(cold, 1);
    std::fputs(cold.stats().table().c_str(), stdout);
    std::fputs("\n", stdout);

    // Same session again: every stage should hit the cache.
    double cached_ms = runChain(cold, 1);
    for (int r = 0; r < 2; ++r)
        cached_ms = std::min(cached_ms, runChain(cold, 1));

    // Jobs-scaling sweep: fresh session per run, best of three per
    // point. jobs = 1 doubles as the serial baseline.
    const unsigned kSweepJobs[] = {1, 2, 4, 8};
    std::vector<SweepPoint> scaling;
    for (unsigned jobs : kSweepJobs)
        scaling.push_back({jobs, bestColdMs(3, jobs)});
    double serial_ms = scaling.front().ms;

    writeJson(json_path, serial_ms, cached_ms, scaling, cold.stats());

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
