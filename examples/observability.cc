/**
 * @file
 * The observability layer, interactively: runs the corpus tool chain
 * through a pipeline Session twice with tracing enabled, then walks
 * the metrics snapshot (cache hits vs misses, simulator counters,
 * verifier outcomes) and exports the spans as a Chrome-trace JSON
 * file (load it in chrome://tracing or ui.perfetto.dev).
 *
 * Self-verifying: exits non-zero if the registry invariants don't
 * hold — per stage lookups == hits + misses, the second (warm) pass
 * all hits, every verification clean, and the trace non-empty.
 */
#include <cstdio>
#include <cstdlib>

#include "obs/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/session.h"
#include "workload/corpus.h"

namespace {

namespace obs = mips::obs;
namespace pl = mips::pipeline;

void
require(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "observability: FAILED: %s\n", what);
        std::exit(1);
    }
}

size_t
runCorpusOnce(pl::Session &session)
{
    std::vector<mips::workload::CorpusProgram> programs =
        mips::workload::corpus();
    programs.push_back(mips::workload::fibonacciProgram());
    for (const mips::workload::CorpusProgram &program : programs) {
        // The stage spans computed inside a chain span nest under it.
        obs::Span span("chain", program.name);
        auto verified = session.hazardVerify(program.source);
        require(verified.ok() && session.simulate(program.source).ok(),
                "corpus chain failed");
        require(verified.value()->report.clean(), "corpus unit not clean");
    }
    return programs.size();
}

} // namespace

int
main()
{
    // 1. Switch the span tracer on. Instrumentation is always present
    //    on the pipeline paths; enabling just arms the clock + ring.
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable(true);

    // 2. Cold pass: every stage computes. Warm pass: every stage hits
    //    the session cache.
    pl::Session session;
    size_t programs = runCorpusOnce(session);
    std::printf("cold pass: %zu corpus chains verified and "
                "simulated\n", programs);
    runCorpusOnce(session);
    std::printf("warm pass: same session, all artifacts cached\n\n");

    // 3. Read the registry. A Snapshot is a point-in-time merged view
    //    of every metric, sorted by name.
    obs::registerBuiltinMetrics();
    obs::Snapshot snap = obs::Registry::instance().snapshot();

    std::printf("%-34s %10s %10s %10s\n", "stage", "lookups", "hits",
                "misses");
    for (size_t s = 0; s < obs::kPipelineStageCount; ++s) {
        const char *stage = obs::pipelineStageName(s);
        char name[64];
        std::snprintf(name, sizeof name, "pipeline.%s.lookups", stage);
        uint64_t lookups = snap.counter(name);
        std::snprintf(name, sizeof name, "pipeline.%s.hits", stage);
        uint64_t hits = snap.counter(name);
        std::snprintf(name, sizeof name, "pipeline.%s.misses", stage);
        uint64_t misses = snap.counter(name);
        if (lookups == 0)
            continue; // stage not on this chain (parse/assemble/tv)
        std::printf("%-34s %10llu %10llu %10llu\n", stage,
                    static_cast<unsigned long long>(lookups),
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(misses));
        require(lookups == hits + misses,
                "lookups == hits + misses per stage");
        require(hits >= misses,
                "warm pass should have made every stage hit");
    }

    std::printf("\nsimulator:  %llu instructions over %llu runs, "
                "%llu free data cycles\n",
                static_cast<unsigned long long>(
                    snap.counter("sim.instructions")),
                static_cast<unsigned long long>(
                    snap.counter("sim.runs")),
                static_cast<unsigned long long>(
                    snap.counter("sim.free_data_cycles")));
    std::printf("verifier:   %llu units, %llu clean\n",
                static_cast<unsigned long long>(
                    snap.counter("verify.units")),
                static_cast<unsigned long long>(
                    snap.counter("verify.clean_units")));
    require(snap.counter("sim.instructions") > 0,
            "simulate stage published instructions");
    require(snap.counter("verify.units") ==
                snap.counter("verify.clean_units"),
            "every corpus verification clean");

    // The histogram of stage-computation latency: bucket counts are
    // cumulative-free (per bucket), last entry is the overflow.
    const obs::Sample *hist = snap.find("pipeline.stage_miss_ms");
    require(hist != nullptr, "pipeline.stage_miss_ms registered");
    require(hist->hist_count > 0, "stage latencies observed");
    std::printf("stage-miss latency: %llu observations, "
                "%.1f ms total\n\n",
                static_cast<unsigned long long>(hist->hist_count),
                hist->hist_sum);

    // 4. Export the spans. Each computed stage recorded one span with
    //    its chain span as parent; the warm pass recorded chains with
    //    no children (nothing computed).
    std::vector<obs::SpanRecord> spans = tracer.spans();
    require(!spans.empty(), "tracer collected spans");
    size_t roots = 0;
    for (const obs::SpanRecord &span : spans)
        roots += span.parent == 0;
    std::printf("tracer: %zu spans (%zu roots), dropped %llu\n",
                spans.size(), roots,
                static_cast<unsigned long long>(tracer.dropped()));
    require(roots > 0 && roots < spans.size(),
            "both root and nested spans present");

    const char *trace_path = "observability_trace.json";
    require(tracer.writeChromeTrace(trace_path), "trace written");
    std::printf("wrote %s — load it in chrome://tracing\n", trace_path);

    std::printf("\nobservability: all registry invariants hold\n");
    return 0;
}
