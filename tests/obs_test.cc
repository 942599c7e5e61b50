/**
 * @file
 * Tests for the observability layer (src/obs): metrics registry
 * exactness under concurrency, histogram bucket-edge semantics,
 * snapshot determinism, span parentage and ring bounding, and the
 * catalog↔enum lockstep guards that keep docs/METRICS.md honest.
 *
 * The registry is process-wide, so every test registers names under
 * its own unique prefix; the lockstep tests read only the catalog.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/session.h"
#include "verify/diagnostics.h"

namespace obs = mips::obs;

// One relaxed atomic per counter: no per-thread cells.
static_assert(sizeof(obs::Counter) == sizeof(uint64_t));

TEST(Counter, ConcurrentIncrementsSumExactly)
{
    obs::Counter &c = obs::Registry::instance().counter(
        "test.counter.concurrent", "count", "test");
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 100'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&c] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.add();
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Counter, AddNAndReset)
{
    obs::Counter &c = obs::Registry::instance().counter(
        "test.counter.addn", "count", "test");
    c.add(41);
    c.add();
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddGoDown)
{
    obs::Gauge &g = obs::Registry::instance().gauge(
        "test.gauge.level", "items", "test");
    g.set(10);
    g.add(-3);
    EXPECT_EQ(g.value(), 7);
    g.add(-9);
    EXPECT_EQ(g.value(), -2); // gauges may go negative
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds)
{
    obs::Histogram &h = obs::Registry::instance().histogram(
        "test.hist.edges", "ms", "test", {1.0, 10.0, 100.0});
    // v <= bound lands in that bucket: the edge value itself is in.
    h.observe(0.5);   // bucket 0 (<= 1)
    h.observe(1.0);   // bucket 0, exactly on the edge
    h.observe(1.001); // bucket 1 (<= 10)
    h.observe(10.0);  // bucket 1, exactly on the edge
    h.observe(100.0); // bucket 2, exactly on the last edge
    h.observe(100.5); // overflow
    std::vector<uint64_t> counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u); // 3 bounds + overflow
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 10.0 + 100.0 + 100.5);
}

TEST(Histogram, ConcurrentObservationsCountExactly)
{
    obs::Histogram &h = obs::Registry::instance().histogram(
        "test.hist.concurrent", "ms", "test", {1.0, 2.0});
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 50'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&h, t] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                h.observe(t % 2 == 0 ? 0.5 : 1.5);
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    std::vector<uint64_t> counts = h.bucketCounts();
    EXPECT_EQ(counts[0], kThreads / 2 * kPerThread);
    EXPECT_EQ(counts[1], kThreads / 2 * kPerThread);
    EXPECT_EQ(counts[2], 0u);
}

TEST(Registry, RegistrationIsIdempotentByName)
{
    obs::Counter &a = obs::Registry::instance().counter(
        "test.registry.same", "count", "test");
    obs::Counter &b = obs::Registry::instance().counter(
        "test.registry.same", "count", "redefinition help is ignored");
    EXPECT_EQ(&a, &b);
    a.add();
    EXPECT_EQ(b.value(), 1u);
}

TEST(Registry, SnapshotIsSortedAndDeterministic)
{
    obs::Registry &r = obs::Registry::instance();
    r.counter("test.snapshot.b", "count", "test").add(2);
    r.counter("test.snapshot.a", "count", "test").add(1);
    obs::Snapshot first = r.snapshot();
    obs::Snapshot second = r.snapshot();
    ASSERT_EQ(first.samples.size(), second.samples.size());
    for (size_t i = 0; i + 1 < first.samples.size(); ++i)
        EXPECT_LT(first.samples[i].name, first.samples[i + 1].name);
    for (size_t i = 0; i < first.samples.size(); ++i)
        EXPECT_EQ(first.samples[i].name, second.samples[i].name);
    EXPECT_EQ(first.counter("test.snapshot.a"), 1u);
    EXPECT_EQ(first.counter("test.snapshot.b"), 2u);
    EXPECT_EQ(first.counter("test.snapshot.absent"), 0u);
    ASSERT_NE(first.find("test.snapshot.a"), nullptr);
    EXPECT_EQ(first.find("test.snapshot.absent"), nullptr);
}

TEST(Registry, RenderersCarryRegisteredNames)
{
    obs::Registry &r = obs::Registry::instance();
    r.counter("test.render.hits", "count", "test").add(7);
    obs::Snapshot snap = r.snapshot();
    std::string json = snap.json();
    EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"test.render.hits\""), std::string::npos);
    std::string table = snap.table();
    EXPECT_NE(table.find("test.render.hits"), std::string::npos);
    EXPECT_NE(table.find("7"), std::string::npos);
}

TEST(Registry, ResetZeroesValuesButKeepsDefinitions)
{
    obs::Registry &r = obs::Registry::instance();
    obs::Counter &c = r.counter("test.reset.c", "count", "test");
    obs::Histogram &h =
        r.histogram("test.reset.h", "ms", "test", {1.0});
    c.add(5);
    h.observe(0.5);
    r.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    obs::Snapshot snap = r.snapshot();
    EXPECT_NE(snap.find("test.reset.c"), nullptr);
    EXPECT_NE(snap.find("test.reset.h"), nullptr);
}

// ------------------------------------------------------------- tracing

TEST(Trace, DisabledSpansAreInert)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable(false);
    {
        obs::Span span("inert");
        EXPECT_EQ(span.id(), 0u);
    }
    EXPECT_TRUE(tracer.spans().empty());
}

TEST(Trace, SpansRecordParentageAndFinishOrder)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable(true);
    uint64_t outer_id = 0;
    uint64_t inner_id = 0;
    {
        obs::Span outer("outer", "unit-a");
        outer_id = outer.id();
        {
            obs::Span inner("inner");
            inner_id = inner.id();
        }
    }
    std::vector<obs::SpanRecord> spans = tracer.spans();
    tracer.enable(false);
    ASSERT_EQ(spans.size(), 2u);
    // Destruction order: the inner span finishes (and records) first.
    EXPECT_EQ(spans[0].id, inner_id);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].parent, outer_id);
    EXPECT_EQ(spans[1].id, outer_id);
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].parent, 0u) << "outer span must be a root";
    EXPECT_EQ(spans[1].detail, "unit-a");
    EXPECT_GE(spans[0].dur_us, 0);
    EXPECT_LE(spans[1].start_us, spans[0].start_us)
        << "outer span starts before the nested span";
}

TEST(Trace, RingBoundsMemoryAndCountsDrops)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable(true);
    tracer.setCapacity(4);
    for (int i = 0; i < 10; ++i)
        obs::Span span("span-" + std::to_string(i));
    std::vector<obs::SpanRecord> spans = tracer.spans();
    EXPECT_EQ(tracer.dropped(), 6u);
    tracer.enable(false);
    tracer.setCapacity(65536); // restore the default for later tests
    ASSERT_EQ(spans.size(), 4u);
    // Oldest-first: the survivors are the last four spans recorded.
    EXPECT_EQ(spans[0].name, "span-6");
    EXPECT_EQ(spans[3].name, "span-9");
}

TEST(Trace, ChromeTraceExportContainsCompleteEvents)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable(true);
    { obs::Span span("exported", "detail"); }
    std::string doc = tracer.chromeTrace();
    tracer.enable(false);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"exported\""), std::string::npos);
}

// ------------------------------------- catalog ↔ enum lockstep guards

TEST(Catalog, PipelineStageNamesMatchSessionEnum)
{
    namespace pl = mips::pipeline;
    ASSERT_EQ(obs::kPipelineStageCount, pl::kStageCount);
    for (size_t s = 0; s < pl::kStageCount; ++s) {
        EXPECT_STREQ(obs::pipelineStageName(s),
                     pl::stageName(static_cast<pl::Stage>(s)))
            << "stage " << s
            << ": obs/catalog.cc mirror drifted from pipeline/session";
    }
}

TEST(Catalog, VerifyDiagCodeNamesMatchDiagnosticsEnum)
{
    namespace vf = mips::verify;
    ASSERT_EQ(obs::kVerifyDiagCodes,
              static_cast<size_t>(vf::kNumCodes));
    for (size_t c = 0; c < obs::kVerifyDiagCodes; ++c) {
        // TV090 renders as "TV-UNKNOWN" in diagnostics output, but the
        // metric name keeps the stable enumerator so verify.diag.*
        // names never change even if display names do.
        const char *expected =
            static_cast<vf::Code>(c) == vf::Code::TV090
                ? "TV090"
                : vf::codeName(static_cast<vf::Code>(c));
        EXPECT_STREQ(obs::verifyDiagCodeName(c), expected)
            << "code " << c
            << ": obs/catalog.cc mirror drifted from verify/diagnostics";
    }
}

TEST(Catalog, RegisterBuiltinMetricsIsIdempotentAndComplete)
{
    obs::registerBuiltinMetrics();
    size_t count = obs::Registry::instance().names().size();
    obs::registerBuiltinMetrics();
    EXPECT_EQ(obs::Registry::instance().names().size(), count);

    obs::Snapshot snap = obs::Registry::instance().snapshot();
    // Spot-check one name per subsystem; check_metrics_docs.sh covers
    // the full list against docs/METRICS.md.
    for (const char *name :
         {"pipeline.compile.lookups", "pipeline.stage_miss_ms",
          "pipeline.cache.shard_conflicts", "batch.queue_depth",
          "sim.instructions", "sim.decode_cache.hits", "sim.tlb.hits",
          "verify.units",
          "verify.diag.HZ001", "verify.unit_ms", "tv.proved"}) {
        EXPECT_NE(snap.find(name), nullptr)
            << name << " missing from registerBuiltinMetrics()";
    }
}

TEST(Catalog, StageMetricHandlesAreStable)
{
    obs::StageMetrics &a = obs::pipelineStageMetrics(1);
    obs::StageMetrics &b = obs::pipelineStageMetrics(1);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.lookups, b.lookups);
}
