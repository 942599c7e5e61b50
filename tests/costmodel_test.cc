/**
 * @file
 * Static cycle-cost model tests: block partition and per-function
 * rollup on a small unit, text/JSON rendering, the parity checker's
 * violation detection, and the oracle sweep — the static model must
 * agree exactly with the simulator's dynamic per-word issue counts
 * over the whole reorganized corpus.
 */
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "pipeline/session.h"
#include "verify/costmodel.h"
#include "workload/corpus.h"

namespace mips::verify {
namespace {

using assembler::Unit;

Unit
parseUnit(std::string_view src)
{
    auto unit = assembler::parse(src);
    EXPECT_TRUE(unit.ok()) << (unit.ok() ? "" : unit.error().str());
    return unit.take();
}

/** The smoke unit: a two-function program with one call. */
Unit
smokeUnit()
{
    return parseUnit(
        "movi #5, r1\n"       // 0
        "call f, r15\n"       // 1
        "nop\n"               // 2: slot
        "st r1, @100\n"       // 3: resume
        "halt\n"              // 4
        "f: add r1, #1, r1\n" // 5
        "jmp (r15)\n"         // 6
        "nop\n");             // 7
}

const FunctionCost *
funcNamed(const CostReport &report, const std::string &name)
{
    for (const FunctionCost &f : report.functions)
        if (f.name == name)
            return &f;
    return nullptr;
}

TEST(CostModel, BlocksAndRollupOnSmallUnit)
{
    Unit u = smokeUnit();
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph graph = buildCallGraph(cfg);
    CostReport report = computeCostModel(cfg, graph, "unit.s");

    EXPECT_EQ(report.totals.words, 8u);
    EXPECT_EQ(report.totals.instructions, 6u);
    EXPECT_EQ(report.totals.nops, 2u);
    ASSERT_EQ(report.functions.size(), 2u);
    const FunctionCost *entry = funcNamed(report, "<entry>");
    const FunctionCost *f = funcNamed(report, "f");
    ASSERT_NE(entry, nullptr);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(entry->words, 5u);
    EXPECT_EQ(f->words, 3u);
    // Rollup folds the callee's body into the caller once per site.
    EXPECT_EQ(entry->rollup_words, 8u);
    EXPECT_EQ(f->rollup_words, 3u);
    EXPECT_EQ(entry->unresolved_calls, 0u);
    EXPECT_FALSE(f->recursive);

    // Every non-data word belongs to exactly one block, and block
    // word counts sum to the unit total.
    uint64_t block_words = 0;
    for (const BlockCost &b : report.blocks) {
        EXPECT_TRUE(b.straight_line);
        block_words += b.count;
    }
    EXPECT_EQ(block_words, report.totals.words);
}

TEST(CostModel, TrapBlockIsToleranceBounded)
{
    Unit u = parseUnit(
        "movi #1, r1\n"
        "trap #3\n" // an exception may leave the block early
        "halt\n");
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph graph = buildCallGraph(cfg);
    CostReport report = computeCostModel(cfg, graph, "unit.s");
    bool saw_bounded = false;
    for (const BlockCost &b : report.blocks)
        if (!b.straight_line)
            saw_bounded = true;
    EXPECT_TRUE(saw_bounded);
}

TEST(CostModel, TextAndJsonRenderings)
{
    Unit u = smokeUnit();
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph graph = buildCallGraph(cfg);
    CostReport report = computeCostModel(cfg, graph, "unit.s");

    std::string text = costText(report);
    EXPECT_NE(text.find("static cycle-cost model"), std::string::npos)
        << text;
    EXPECT_NE(text.find("<entry>"), std::string::npos) << text;
    EXPECT_NE(text.find("totals:"), std::string::npos) << text;

    std::string json = costJson(report);
    EXPECT_NE(json.find("\"schema\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"functions\""), std::string::npos) << json;
    EXPECT_EQ(json.find("\"parity\""), std::string::npos) << json;

    CostParity parity;
    parity.checked = 3;
    parity.exact = 3;
    std::string with = costJson(report, &parity);
    EXPECT_NE(with.find("\"parity\""), std::string::npos) << with;

    // The unit name comes from the command line: JSON escapes it.
    report.unit = "a\"b\\c";
    json = costJson(report);
    EXPECT_NE(json.find("\"unit\": \"a\\\"b\\\\c\""), std::string::npos)
        << json;
}

TEST(CostModel, DispatchBreakoutInTextAndJson)
{
    Unit u = parseUnit(
        "la tab, r2\n"
        "nop\n"
        "movi #0, r3\n"
        "jtab (r2+r3), tab\n"
        "nop\n"
        "nop\n"
        "tab: .word t0\n"
        ".word t1\n"
        "t0: halt\n"
        "t1: halt\n");
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph graph = buildCallGraph(cfg);
    CostReport report = computeCostModel(cfg, graph, "unit.s");

    EXPECT_EQ(report.totals.dispatches, 1u);
    EXPECT_GT(report.totals.dispatch_words, 0u);

    std::string text = costText(report);
    EXPECT_NE(text.find("table dispatch:"), std::string::npos) << text;

    std::string json = costJson(report);
    EXPECT_NE(json.find("\"dispatches\": 1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"dispatch_words\""), std::string::npos)
        << json;

    // The breakout line only appears when there is something to
    // break out — dispatch-free units keep the old text byte-for-byte.
    Unit s = smokeUnit();
    Cfg scfg = buildCfg(s, nullptr);
    CallGraph sgraph = buildCallGraph(scfg);
    CostReport plain = computeCostModel(scfg, sgraph, "unit.s");
    EXPECT_EQ(plain.totals.dispatches, 0u);
    EXPECT_EQ(costText(plain).find("table dispatch:"),
              std::string::npos);
}

TEST(CostParity, ExactAgreementAndViolationDetection)
{
    Unit u = smokeUnit();
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph graph = buildCallGraph(cfg);
    CostReport report = computeCostModel(cfg, graph, "unit.s");

    // Synthesize dynamic counts for "each block entered once".
    std::vector<uint64_t> counts(u.items.size(), 1);
    CostParity ok = checkCostParity(report, counts, 0.0);
    EXPECT_EQ(ok.checked, report.blocks.size());
    EXPECT_EQ(ok.violations, 0u)
        << (ok.notes.empty() ? "" : ok.notes[0]);

    // A word issuing more often than its block was entered breaks the
    // straight-line invariant and must be flagged.
    counts[3] += 1;
    CostParity bad = checkCostParity(report, counts, 0.0);
    EXPECT_GE(bad.violations, 1u);
    EXPECT_FALSE(bad.notes.empty());
}

// ----------------------------------------------- simulator oracle

TEST(CostParity, StaticModelMatchesSimulatorOverCorpus)
{
    std::vector<workload::CorpusProgram> programs = workload::corpus();
    for (const workload::CorpusProgram &p : workload::dispatchCorpus())
        programs.push_back(p);
    programs.push_back(workload::fibonacciProgram());
    programs.push_back(workload::puzzle0Program());
    programs.push_back(workload::puzzle1Program());

    pipeline::Session session;
    pipeline::ChainSpec spec;
    spec.simulate = true;
    spec.cost_model = true;
    pipeline::StageOptions options;
    options.sim.profile = true;
    std::vector<pipeline::ChainResult> results =
        pipeline::runAll(session, programs, spec, options, 4);

    ASSERT_EQ(results.size(), programs.size());
    for (const pipeline::ChainResult &r : results) {
        ASSERT_TRUE(r.ok()) << r.name << ": " << r.error;
        ASSERT_EQ(r.sim->stop, sim::StopReason::HALT) << r.name;
        ASSERT_NE(r.cost, nullptr) << r.name;
        CostParity parity = checkCostParity(
            r.cost->report, r.sim->exec_counts, 0.02);
        EXPECT_GT(parity.checked, 0u) << r.name;
        EXPECT_EQ(parity.exact, parity.checked) << r.name;
        EXPECT_EQ(parity.violations, 0u)
            << r.name << ": "
            << (parity.notes.empty() ? "" : parity.notes[0]);
    }
}

TEST(CostModel, SessionStageIsCached)
{
    pipeline::Session session;
    pipeline::StageOptions options;
    const std::string source = workload::fibonacciProgram().source;
    auto first = session.costModel(source, options);
    ASSERT_TRUE(first.ok()) << first.error().str();
    auto second = session.costModel(source, options);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value().get(), second.value().get());
    pipeline::PipelineStats stats = session.stats();
    size_t cost = static_cast<size_t>(pipeline::Stage::COST_MODEL);
    EXPECT_EQ(stats.stage[cost].misses, 1u);
    EXPECT_GE(stats.stage[cost].hits, 1u);
}

} // namespace
} // namespace mips::verify
