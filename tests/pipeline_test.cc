/**
 * @file
 * Pipeline-session tests: cache identity and keying (Pascal, assembly
 * and scheduled sources), link failures carried as artifact data, the
 * range stage's MS-only diagnostics, the simulate stage's fault
 * events, counter consistency, error caching, one artifact for a
 * same-key herd, and the BatchRunner's ordering, no-stranding,
 * queue-depth, concurrent-runner and exception contracts.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asm/unit.h"
#include "obs/catalog.h"
#include "pipeline/batch.h"
#include "pipeline/session.h"
#include "sim/machine.h"
#include "workload/corpus.h"

namespace {

using namespace mips;

std::vector<workload::CorpusProgram>
testCorpus()
{
    std::vector<workload::CorpusProgram> programs = workload::corpus();
    programs.push_back(workload::fibonacciProgram());
    return programs;
}

/** Run `source` through every stage from compile to value-range, in
 *  the order `mipsverify --corpus --tv --cost --range` calls them.
 *  Returns the first failing stage's message, empty when none fails. */
std::string
runChain(pipeline::Session &session, const char *source,
         const pipeline::StageOptions &options)
{
    std::string error;
    auto ok = [&error](const auto &result) {
        if (!result.ok())
            error = result.error().str();
        return result.ok();
    };
    ok(session.compile(source, options)) &&
        ok(session.reorganize(source, options)) &&
        ok(session.hazardVerify(source, options)) &&
        ok(session.translationValidate(source, options)) &&
        ok(session.simulate(source, options)) &&
        ok(session.costModel(source, options)) &&
        ok(session.valueRange(source, options));
    return error;
}

// A cache hit hands back the very artifact the cold run produced —
// pointer identity, not just equality — and counts as a hit.
TEST(PipelineSession, CacheHitReturnsSameArtifact)
{
    pipeline::Session session;
    const char *source = workload::fibonacciProgram().source;

    auto first = session.compile(source);
    ASSERT_TRUE(first.ok());
    auto second = session.compile(source);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value().get(), second.value().get());

    auto reorg1 = session.reorganize(source);
    ASSERT_TRUE(reorg1.ok());
    auto reorg2 = session.reorganize(source);
    ASSERT_TRUE(reorg2.ok());
    EXPECT_EQ(reorg1.value().get(), reorg2.value().get());
    // The reorganize artifact's input is the cached compile artifact's
    // legal unit.
    EXPECT_EQ(reorg1.value()->legal.get(), &first.value()->legal_unit);

    pipeline::PipelineStats stats = session.stats();
    size_t compile_idx =
        static_cast<size_t>(pipeline::Stage::COMPILE);
    size_t reorg_idx =
        static_cast<size_t>(pipeline::Stage::REORGANIZE);
    EXPECT_EQ(stats.stage[compile_idx].misses, 1u);
    EXPECT_GE(stats.stage[compile_idx].hits, 2u); // 2nd compile + reorgs
    EXPECT_EQ(stats.stage[reorg_idx].misses, 1u);
    EXPECT_EQ(stats.stage[reorg_idx].hits, 1u);
}

// Changing any stage option must miss that stage's cache (while the
// stages it depends on still hit).
TEST(PipelineSession, OptionChangeMissesCache)
{
    pipeline::Session session;
    const char *source = workload::fibonacciProgram().source;

    pipeline::StageOptions defaults;
    auto base = session.reorganize(source, defaults);
    ASSERT_TRUE(base.ok());

    pipeline::StageOptions no_pack = defaults;
    no_pack.reorg.pack = false;
    auto unpacked = session.reorganize(source, no_pack);
    ASSERT_TRUE(unpacked.ok());
    EXPECT_NE(base.value().get(), unpacked.value().get());

    pipeline::StageOptions volatile_base = defaults;
    volatile_base.reorg.alias.volatile_base = true;
    auto strict = session.reorganize(source, volatile_base);
    ASSERT_TRUE(strict.ok());
    EXPECT_NE(base.value().get(), strict.value().get());

    pipeline::PipelineStats stats = session.stats();
    size_t compile_idx =
        static_cast<size_t>(pipeline::Stage::COMPILE);
    size_t reorg_idx =
        static_cast<size_t>(pipeline::Stage::REORGANIZE);
    // Three distinct reorganize keys, one shared compile key.
    EXPECT_EQ(stats.stage[reorg_idx].misses, 3u);
    EXPECT_EQ(stats.stage[compile_idx].misses, 1u);
    EXPECT_EQ(stats.stage[compile_idx].hits, 2u);
}

// An assembly Source runs the same cached stages as Pascal. Hits are
// pointer-identical, its legal unit is the assemble artifact's unit,
// its keys ignore the compile options, and reading the same text as
// Pascal never reaches the assembly entries.
TEST(PipelineSession, AssemblySourceSharesStages)
{
    pipeline::Session session;
    const std::string text = "    movi #3, r1\n"
                             "loop:\n"
                             "    sub r1, #1, r1\n"
                             "    bne r1, #0, loop\n"
                             "    halt\n";
    const pipeline::Source source(text, pipeline::Language::ASSEMBLY);

    auto reorg = session.reorganize(source);
    auto verify = session.hazardVerify(source);
    auto tv = session.translationValidate(source);
    auto sim = session.simulate(source);
    ASSERT_TRUE(reorg.ok()) << reorg.error().str();
    ASSERT_TRUE(verify.ok());
    ASSERT_TRUE(tv.ok());
    ASSERT_TRUE(sim.ok());
    EXPECT_TRUE(verify.value()->report.clean());
    EXPECT_EQ(tv.value()->report.errors, 0u);
    EXPECT_EQ(sim.value()->stop, sim::StopReason::HALT);

    EXPECT_EQ(session.reorganize(source).value().get(),
              reorg.value().get());
    EXPECT_EQ(session.hazardVerify(source).value().get(),
              verify.value().get());
    EXPECT_EQ(session.translationValidate(source).value().get(),
              tv.value().get());
    EXPECT_EQ(session.simulate(source).value().get(), sim.value().get());

    auto assembled = session.assemble(text);
    ASSERT_TRUE(assembled.ok());
    auto legal = session.legal(source);
    ASSERT_TRUE(legal.ok());
    EXPECT_EQ(legal.value().get(), &assembled.value()->unit);
    EXPECT_EQ(reorg.value()->legal.get(), &assembled.value()->unit);

    // Compile options are not part of an assembly key.
    pipeline::StageOptions byte_layout;
    byte_layout.compile.layout = plc::Layout::BYTE_ALLOCATED;
    byte_layout.compile.jump_tables = false;
    EXPECT_EQ(session.reorganize(source, byte_layout).value().get(),
              reorg.value().get());
    EXPECT_EQ(session.simulate(source, byte_layout).value().get(),
              sim.value().get());

    // Read as Pascal, the same text is a compile miss and an error,
    // never the cached assembly artifact.
    size_t compile_idx = static_cast<size_t>(pipeline::Stage::COMPILE);
    size_t reorg_idx = static_cast<size_t>(pipeline::Stage::REORGANIZE);
    pipeline::PipelineStats before = session.stats();
    auto as_pascal = session.reorganize(text);
    EXPECT_FALSE(as_pascal.ok());
    pipeline::PipelineStats after = session.stats();
    EXPECT_EQ(after.stage[compile_idx].misses,
              before.stage[compile_idx].misses + 1);
    EXPECT_EQ(after.stage[reorg_idx].hits, before.stage[reorg_idx].hits);
    EXPECT_EQ(after.stage[compile_idx].misses, 1u);
}

// A SCHEDULED source is analysed as written: Reorganize hands its
// legal unit through with no stats or hints, the hazard report equals
// verifyUnit's, and its entries never alias the ASSEMBLY reading of
// the same text.
TEST(PipelineSession, ScheduledSourcePassesThrough)
{
    pipeline::Session session;
    const std::string text = "    movi #3, r1\n"
                             "loop:\n"
                             "    sub r1, #1, r1\n"
                             "    bne r1, #0, loop\n"
                             "    halt\n";
    const pipeline::Source scheduled(text, pipeline::Language::SCHEDULED);
    const pipeline::Source assembly(text, pipeline::Language::ASSEMBLY);

    auto reorg = session.reorganize(scheduled);
    ASSERT_TRUE(reorg.ok()) << reorg.error().str();
    const pipeline::ReorgArtifact &artifact = *reorg.value();
    EXPECT_EQ(assembler::listUnit(artifact.final_unit),
              assembler::listUnit(*artifact.legal));
    EXPECT_EQ(artifact.stats.output_words, 0u);
    EXPECT_TRUE(artifact.hints.empty());
    EXPECT_FALSE(artifact.link_error);
    EXPECT_EQ(artifact.program.image.size(),
              artifact.final_unit.items.size());

    auto verify = session.hazardVerify(scheduled);
    ASSERT_TRUE(verify.ok());
    verify::VerifyReport as_written = verify::verifyUnit(*artifact.legal);
    EXPECT_EQ(verify::reportJson(verify.value()->report, "u", -1),
              verify::reportJson(as_written, "u", -1));

    // Both readings share the one assemble artifact, not the rest.
    auto reorganized = session.reorganize(assembly);
    ASSERT_TRUE(reorganized.ok());
    EXPECT_EQ(reorganized.value()->legal.get(), artifact.legal.get());
    EXPECT_NE(reorganized.value().get(), reorg.value().get());
}

// A unit that does not link is data, not a stage error: the analyses
// run and report it, and the stages that load the program return the
// link error.
TEST(PipelineSession, LinkFailureIsArtifactData)
{
    pipeline::Session session;
    const std::string text = "    bra nowhere\n"
                             "    halt\n";
    for (pipeline::Language language :
         {pipeline::Language::ASSEMBLY, pipeline::Language::SCHEDULED}) {
        const pipeline::Source source(text, language);
        auto reorg = session.reorganize(source);
        ASSERT_TRUE(reorg.ok()) << reorg.error().str();
        ASSERT_TRUE(reorg.value()->link_error);
        EXPECT_NE(reorg.value()->link_error->message.find("nowhere"),
                  std::string::npos);
        EXPECT_TRUE(reorg.value()->program.image.empty());

        auto verify = session.hazardVerify(source);
        ASSERT_TRUE(verify.ok());
        EXPECT_EQ(verify.value()->report.countOf(verify::Code::VF002), 1u);
        EXPECT_TRUE(session.translationValidate(source).ok());
        EXPECT_TRUE(session.costModel(source).ok());
        EXPECT_TRUE(session.valueRange(source).ok());

        auto sim = session.simulate(source);
        ASSERT_FALSE(sim.ok());
        EXPECT_EQ(sim.error().str(), reorg.value()->link_error->str());
    }
}

// The simulate stage carries its run's fault events: the same ones the
// unit's linked program records on a machine of its own, and none for
// a clean unit.
TEST(PipelineSession, SimulateCarriesFaultEvents)
{
    pipeline::Session session;
    pipeline::StageOptions options;
    options.sim.max_cycles = 10'000;
    // A load past physical memory faults, re-enters at address 0 (the
    // load itself) and faults again, until the cycle budget runs out.
    const pipeline::Source faulting("    ld @0x1FFFFF, r1\n"
                                    "    nop\n"
                                    "    halt\n",
                                    pipeline::Language::SCHEDULED);
    auto run = session.simulate(faulting, options);
    ASSERT_TRUE(run.ok()) << run.error().str();
    const std::vector<sim::Cpu::FaultEvent> &faults = run.value()->faults;
    EXPECT_FALSE(faults.empty());

    sim::Machine machine;
    machine.load(run.value()->reorg->program);
    machine.cpu().run(options.sim.max_cycles);
    const std::vector<sim::Cpu::FaultEvent> &want =
        machine.cpu().faultEvents();
    ASSERT_EQ(faults.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(faults[i].cause, want[i].cause);
        EXPECT_EQ(faults[i].pc, want[i].pc);
        EXPECT_EQ(faults[i].addr, want[i].addr);
    }

    const pipeline::Source clean("    ld @0xFFFFF, r1\n"
                                 "    nop\n"
                                 "    halt\n",
                                 pipeline::Language::SCHEDULED);
    auto clean_run = session.simulate(clean, options);
    ASSERT_TRUE(clean_run.ok()) << clean_run.error().str();
    EXPECT_EQ(clean_run.value()->stop, sim::StopReason::HALT);
    EXPECT_TRUE(clean_run.value()->faults.empty());
}

// The range stage's diagnostics are its MS findings alone: a malformed
// jump table is HazardVerify's VF004, never a "memory-safety" finding
// too.
TEST(PipelineSession, RangeDiagnosticsHoldMsFindingsOnly)
{
    pipeline::Session session;
    const std::string text = "la tab, r2\n"
                             "nop\n"
                             "movi #0, r3\n"
                             "jtab (r2+r3), tab\n"
                             "nop\n"
                             "nop\n"
                             "tab: .word d\n"
                             "d: .word 5\n";
    const pipeline::Source source(text, pipeline::Language::ASSEMBLY);

    auto verify = session.hazardVerify(source);
    ASSERT_TRUE(verify.ok());
    EXPECT_EQ(verify.value()->report.countOf(verify::Code::VF004), 1u);

    auto range = session.valueRange(source);
    ASSERT_TRUE(range.ok());
    for (const verify::Diagnostic &d : range.value()->diags)
        EXPECT_EQ(std::string(verify::codeName(d.code)).substr(0, 2), "MS")
            << verify::codeName(d.code) << ": " << d.message;
}

// hits + misses must equal the number of stage requests, and a second
// identical pass must be all hits (no new misses).
TEST(PipelineSession, StatsCountersConsistent)
{
    std::vector<workload::CorpusProgram> programs = testCorpus();
    pipeline::Session session;
    pipeline::StageOptions options;

    for (const workload::CorpusProgram &program : programs)
        runChain(session, program.source, options);
    pipeline::PipelineStats cold = session.stats();
    // Each program touches compile, reorganize, verify, tv, simulate,
    // cost and range exactly once, cold.
    size_t n = programs.size();
    for (pipeline::Stage s :
         {pipeline::Stage::COMPILE, pipeline::Stage::REORGANIZE,
          pipeline::Stage::HAZARD_VERIFY,
          pipeline::Stage::TRANSLATION_VALIDATE,
          pipeline::Stage::SIMULATE, pipeline::Stage::COST_MODEL,
          pipeline::Stage::VALUE_RANGE}) {
        const pipeline::StageCounters &c =
            cold.stage[static_cast<size_t>(s)];
        SCOPED_TRACE(pipeline::stageName(s));
        EXPECT_EQ(c.misses, n);
        EXPECT_GE(c.miss_ms, 0.0);
    }
    // Downstream stages resolve their dependencies through the cache,
    // so compile gets one hit per dependent stage request.
    uint64_t cold_hits = cold.hits();
    uint64_t cold_misses = cold.misses();
    EXPECT_EQ(cold_misses, 7 * n);

    for (const workload::CorpusProgram &program : programs)
        runChain(session, program.source, options);
    pipeline::PipelineStats warm = session.stats();
    EXPECT_EQ(warm.misses(), cold_misses); // nothing recomputed
    EXPECT_GT(warm.hits(), cold_hits);
}

// Recoverable input failures are cached like artifacts: the second
// request replays the error without recomputing.
TEST(PipelineSession, ErrorsAreCached)
{
    pipeline::Session session;
    const char *bad = "program p; begin x := ; end.";

    auto first = session.compile(bad);
    ASSERT_FALSE(first.ok());
    auto second = session.compile(bad);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(first.error().str(), second.error().str());

    pipeline::PipelineStats stats = session.stats();
    size_t compile_idx =
        static_cast<size_t>(pipeline::Stage::COMPILE);
    EXPECT_EQ(stats.stage[compile_idx].misses, 1u);
    EXPECT_EQ(stats.stage[compile_idx].hits, 1u);

    // A chain over a bad program reports the failure, not a crash.
    EXPECT_FALSE(runChain(session, bad, pipeline::StageOptions{}).empty());
}

// A thundering herd on one key: a thread that finds the key still
// being computed computes it too, but the first result to land fills
// the slot and every thread gets that one artifact (pointer
// identity). Every request is counted once, as a hit or a miss.
TEST(PipelineSession, SameKeyHerdComputesOnce)
{
    pipeline::Session session;
    const char *source = workload::fibonacciProgram().source;
    constexpr int kThreads = 32;

    std::atomic<int> arrived{0};
    std::vector<const void *> seen(kThreads, nullptr);
    std::vector<std::thread> herd;
    herd.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        herd.emplace_back([&, t] {
            // Rendezvous so the requests overlap as much as the
            // scheduler allows before anyone looks up the key.
            arrived.fetch_add(1);
            while (arrived.load() < kThreads)
                std::this_thread::yield();
            auto result = session.compile(source);
            ASSERT_TRUE(result.ok());
            seen[t] = result.value().get();
        });
    for (std::thread &t : herd)
        t.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]);

    const pipeline::StageCounters &c = session.stats().stage[
        static_cast<size_t>(pipeline::Stage::COMPILE)];
    EXPECT_EQ(c.hits + c.misses, static_cast<uint64_t>(kThreads));
    EXPECT_GE(c.misses, 1u);
}

// ----------------------------------------------------- BatchRunner

// Results land at their input index regardless of completion order.
TEST(BatchRunner, CollectsResultsInInputOrder)
{
    std::vector<int> items;
    for (int i = 0; i < 64; ++i)
        items.push_back(i);

    pipeline::BatchRunner runner(8);
    std::atomic<int> active{0};
    std::vector<int> out =
        runner.runAll(items, [&active](int item, size_t index) {
            ++active;
            EXPECT_EQ(static_cast<size_t>(item), index);
            --active;
            return item * 3;
        });
    EXPECT_EQ(active.load(), 0);
    ASSERT_EQ(out.size(), items.size());
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

// jobs == 1 runs inline (no threads), same contract: every item runs
// even after one throws, and the lowest index's exception comes out.
TEST(BatchRunner, SerialFallback)
{
    std::vector<int> items = {5, 6, 7};
    pipeline::BatchRunner runner(1);
    std::vector<int> out = runner.runAll(
        items, [](int item, size_t) { return item + 1; });
    EXPECT_EQ(out, (std::vector<int>{6, 7, 8}));

    std::vector<int> ran;
    try {
        runner.runAll(items, [&ran](int item, size_t) -> int {
            ran.push_back(item);
            if (item >= 6)
                throw std::runtime_error("boom " +
                                         std::to_string(item));
            return item;
        });
        FAIL() << "expected runAll to throw";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 6");
    }
    EXPECT_EQ(ran, items);
}

// jobs == 0 means auto: one worker per core the process may use.
TEST(BatchRunner, ZeroJobsMeansAuto)
{
    pipeline::BatchRunner runner(0);
    EXPECT_EQ(runner.jobs(), pipeline::BatchRunner::defaultJobs());
    EXPECT_GE(runner.jobs(), 1u);
    // The auto-sized runner still honours the runAll contract.
    std::vector<int> items = {1, 2, 3, 4};
    std::vector<int> out = runner.runAll(
        items, [](int item, size_t) { return item * 2; });
    EXPECT_EQ(out, (std::vector<int>{2, 4, 6, 8}));
}

// A worker blocked on one item must not strand the items behind it:
// item 0 waits until the other 15 have finished, which happens only
// if the other worker claims and runs every one of them.
TEST(BatchRunner, BlockedWorkerDoesNotStrandItems)
{
    constexpr int kItems = 16;
    std::vector<int> items(kItems);
    for (int i = 0; i < kItems; ++i)
        items[i] = i;
    std::mutex mu;
    std::condition_variable cv;
    int finished = 0;
    pipeline::BatchRunner runner(2);
    std::vector<int> out = runner.runAll(items, [&](int item, size_t) {
        std::unique_lock<std::mutex> lock(mu);
        if (item == 0) {
            EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] {
                return finished == kItems - 1;
            })) << "items stranded behind the blocked worker";
        } else {
            ++finished;
            cv.notify_all();
        }
        return item + 100;
    });

    ASSERT_EQ(out.size(), items.size());
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) + 100);
}

// Runners in flight at once share the process-wide queue-depth gauge;
// neither may mistake the other's items for its own.
TEST(BatchRunner, ConcurrentRunnersDoNotAbort)
{
    std::vector<int> items(64);
    for (int i = 0; i < 64; ++i)
        items[i] = i;
    auto rounds = [&items] {
        pipeline::BatchRunner runner(2);
        for (int round = 0; round < 200; ++round) {
            std::vector<int> out = runner.runAll(
                items, [](int item, size_t) { return item * 2; });
            EXPECT_EQ(out.back(), 126);
        }
    };
    std::thread a(rounds);
    std::thread b(rounds);
    a.join();
    b.join();
    EXPECT_EQ(obs::batchMetrics().queue_depth->value(), 0);
}

// The queue-depth gauge tracks completions, not claims: it must read
// 0 after every run, serial and parallel alike.
TEST(BatchRunner, QueueDepthReturnsToZero)
{
    obs::BatchMetrics &bm = obs::batchMetrics();
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
    for (unsigned jobs : {1u, 4u}) {
        pipeline::BatchRunner runner(jobs);
        runner.runAll(items, [&bm](int item, size_t) {
            // While an item runs, the gauge counts it as outstanding.
            EXPECT_GT(bm.queue_depth->value(), 0);
            return item;
        });
        EXPECT_EQ(bm.queue_depth->value(), 0);
    }
}

// A throwing work item propagates out of runAll; with several
// failures, the lowest input index wins (deterministically).
TEST(BatchRunner, PropagatesLowestIndexException)
{
    std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
    pipeline::BatchRunner runner(4);
    try {
        runner.runAll(items, [](int item, size_t) -> int {
            if (item >= 3)
                throw std::runtime_error("boom " +
                                         std::to_string(item));
            return item;
        });
        FAIL() << "expected runAll to throw";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 3");
    }
}

} // namespace
