/**
 * @file
 * Fuzz subsystem tests: the generator's determinism contract (same
 * seed => byte-identical source, different seeds => distinct), batch
 * shape and chunk self-containment, a small-N differential run that
 * must come back clean with every chain reaching the stage counters,
 * oracle sensitivity to every ReorgBugs fault flag, and minimizer
 * convergence — a planted reorganizer bug must still trip the oracle
 * after shrinking, and the shrunk program must replay clean once the
 * fault is removed. Compiled corpus and generated units must also
 * survive a listing round trip (listUnit, then parse), and the flat
 * CFG and call graph of every reorganized unit must keep their
 * invariants.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "fuzz/differ.h"
#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "pipeline/session.h"
#include "plc/codegen.h"
#include "reorg/reorganizer.h"
#include "verify/cfg.h"
#include "verify/interproc.h"
#include "workload/corpus.h"

namespace {

using namespace mips;

// ---- determinism ----------------------------------------------------

TEST(FuzzGenerator, SameSeedIsByteIdentical)
{
    for (uint64_t seed : {1ull, 1982ull, 0xdeadbeefull}) {
        fuzz::GeneratedProgram a = fuzz::generatePascal(seed);
        fuzz::GeneratedProgram b = fuzz::generatePascal(seed);
        EXPECT_EQ(a.render(), b.render()) << "pascal seed " << seed;
        fuzz::GeneratedProgram c = fuzz::generateAsm(seed);
        fuzz::GeneratedProgram d = fuzz::generateAsm(seed);
        EXPECT_EQ(c.render(), d.render()) << "asm seed " << seed;
    }
}

TEST(FuzzGenerator, BatchIsDeterministicAsAWhole)
{
    std::vector<fuzz::GeneratedProgram> a = fuzz::generateBatch(42, 20);
    std::vector<fuzz::GeneratedProgram> b = fuzz::generateBatch(42, 20);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].render(), b[i].render());
    }
}

TEST(FuzzGenerator, DifferentSeedsProduceDistinctPrograms)
{
    std::set<std::string> sources;
    for (uint64_t seed = 1; seed <= 16; ++seed)
        sources.insert(fuzz::generatePascal(seed).render());
    for (uint64_t seed = 1; seed <= 16; ++seed)
        sources.insert(fuzz::generateAsm(seed).render());
    // 16 Pascal + 16 asm seeds: every one distinct.
    EXPECT_EQ(sources.size(), 32u);
}

TEST(FuzzGenerator, BatchMixesBothKinds)
{
    std::vector<fuzz::GeneratedProgram> batch =
        fuzz::generateBatch(1982, 40);
    size_t pascal = 0;
    size_t assembly = 0;
    for (const fuzz::GeneratedProgram &p : batch) {
        if (p.kind == fuzz::ProgramKind::PASCAL)
            ++pascal;
        else
            ++assembly;
        EXPECT_FALSE(p.chunks.empty()) << p.name;
    }
    EXPECT_GT(pascal, 0u);
    EXPECT_GT(assembly, 0u);
}

// ---- differential runs ---------------------------------------------

TEST(FuzzDiffer, SmallBatchRunsClean)
{
    pipeline::Session session;
    std::vector<fuzz::GeneratedProgram> batch =
        fuzz::generateBatch(1982, 8);
    for (const fuzz::GeneratedProgram &p : batch) {
        fuzz::DiffResult r = fuzz::runDifferential(session, p);
        EXPECT_TRUE(r.ok) << p.name << ": " << r.failure;
        EXPECT_FALSE(r.front_end_error) << p.name;
        EXPECT_GT(r.configs, 0u) << p.name;
    }
}

// Every config chain, Pascal or assembly, runs the Session's stages:
// each one moves the pipeline-run, value-range, hazard-verify and TV
// unit counters exactly once, and each Pascal chain also builds one
// cost report.
TEST(FuzzDiffer, EveryChainReachesSimAndRangeCounters)
{
    obs::registerBuiltinMetrics();
    const obs::Snapshot before = obs::Registry::instance().snapshot();

    size_t configs = 0;
    size_t pascal_configs = 0;
    size_t assembly = 0;
    for (const fuzz::GeneratedProgram &p : fuzz::generateBatch(1982, 8)) {
        pipeline::Session session;
        fuzz::DiffResult r = fuzz::runDifferential(session, p);
        ASSERT_TRUE(r.ok) << p.name << ": " << r.failure;
        configs += r.configs;
        if (p.kind == fuzz::ProgramKind::ASM)
            ++assembly;
        else
            pascal_configs += r.configs;
    }
    ASSERT_GT(assembly, 0u);
    ASSERT_GT(pascal_configs, 0u);

    const obs::Snapshot after = obs::Registry::instance().snapshot();
    auto delta = [&](const char *name) {
        return after.counter(name) - before.counter(name);
    };
    const uint64_t chains = delta("pipeline.fuzz.chains");
    EXPECT_EQ(chains, configs);
    for (const char *name : {"sim.runs", "verify.range.reports",
                             "verify.units", "tv.units"})
        EXPECT_EQ(delta(name), chains) << name;
    EXPECT_EQ(delta("verify.cost.reports"), pascal_configs);
    EXPECT_GT(delta("sim.instructions"), 0u);
    EXPECT_GT(delta("pipeline.compile.lookups"), 0u);
}

// Chunks are self-contained by generator contract: dropping any
// single chunk must still give a program that passes the whole
// matrix. This is what makes minimizer candidates meaningful.
TEST(FuzzDiffer, ChunksAreIndependentlyDroppable)
{
    pipeline::Session session;
    std::vector<fuzz::GeneratedProgram> batch =
        fuzz::generateBatch(7, 2);
    for (const fuzz::GeneratedProgram &p : batch) {
        for (size_t drop = 0; drop < p.chunks.size(); ++drop) {
            fuzz::GeneratedProgram candidate = p;
            candidate.chunks.erase(candidate.chunks.begin() +
                                   static_cast<ptrdiff_t>(drop));
            fuzz::DiffResult r =
                fuzz::runDifferential(session, candidate);
            EXPECT_TRUE(r.ok) << p.name << " minus chunk " << drop
                              << ": " << r.failure;
        }
    }
}

// Every fault-injection flag must be observable: some program in a
// small batch has to trip at least one oracle under each bug.
TEST(FuzzDiffer, EveryInjectedBugIsCaught)
{
    pipeline::Session session;
    std::vector<fuzz::GeneratedProgram> batch =
        fuzz::generateBatch(1982, 10);

    struct Case { const char *name; reorg::ReorgBugs bugs; };
    std::vector<Case> cases;
    auto add = [&](const char *name, auto set) {
        Case c;
        c.name = name;
        set(c.bugs);
        cases.push_back(c);
    };
    add("pack_dependent",
        [](reorg::ReorgBugs &b) { b.pack_dependent = true; });
    add("hoist_blind",
        [](reorg::ReorgBugs &b) { b.hoist_blind = true; });
    add("alias_blind",
        [](reorg::ReorgBugs &b) { b.alias_blind = true; });
    add("slot_overwritten_def",
        [](reorg::ReorgBugs &b) { b.slot_overwritten_def = true; });
    add("drop_load_noop",
        [](reorg::ReorgBugs &b) { b.drop_load_noop = true; });
    add("drop_branch_noop",
        [](reorg::ReorgBugs &b) { b.drop_branch_noop = true; });
    add("retarget_same_target",
        [](reorg::ReorgBugs &b) { b.retarget_same_target = true; });
    add("dup_skip_second",
        [](reorg::ReorgBugs &b) { b.dup_skip_second = true; });

    for (const Case &c : cases) {
        fuzz::DiffOptions options;
        options.bugs = c.bugs;
        bool caught = false;
        for (const fuzz::GeneratedProgram &p : batch) {
            if (fuzz::runDifferential(session, p, options).mismatch()) {
                caught = true;
                break;
            }
        }
        EXPECT_TRUE(caught) << "bug " << c.name
                            << " escaped every oracle";
    }
}

// ---- minimizer ------------------------------------------------------

TEST(FuzzMinimizer, ConvergesOnInjectedBugAndStillTripsOracle)
{
    pipeline::Session session;
    // fuzz-001-p under drop_load_noop: hazard-verify catches it (the
    // scheduler deleted load-delay covers), and the program shrinks
    // to a single chunk.
    std::vector<fuzz::GeneratedProgram> batch =
        fuzz::generateBatch(1982, 2);
    const fuzz::GeneratedProgram &program = batch[1];
    ASSERT_EQ(program.kind, fuzz::ProgramKind::PASCAL);

    fuzz::DiffOptions buggy;
    buggy.bugs.drop_load_noop = true;
    auto still_fails = [&](const fuzz::GeneratedProgram &candidate) {
        return fuzz::runDifferential(session, candidate, buggy)
            .mismatch();
    };
    ASSERT_TRUE(still_fails(program));

    fuzz::MinimizeOutcome outcome =
        fuzz::minimizeProgram(program, still_fails);
    EXPECT_LT(outcome.program.chunks.size(), program.chunks.size());
    EXPECT_EQ(outcome.removed,
              program.chunks.size() - outcome.program.chunks.size());
    EXPECT_GE(outcome.steps, 2u);
    // The shrunk program still trips the oracle with the bug in...
    EXPECT_TRUE(still_fails(outcome.program));
    // ...and replays clean without it (the check-in contract for
    // tests/data/fuzz-regressions/).
    fuzz::DiffResult clean =
        fuzz::runDifferential(session, outcome.program);
    EXPECT_TRUE(clean.ok) << clean.failure;
}

TEST(FuzzMinimizer, NonFailingInputReturnsUnchanged)
{
    fuzz::GeneratedProgram program = fuzz::generateAsm(5);
    fuzz::MinimizeOutcome outcome = fuzz::minimizeProgram(
        program,
        [](const fuzz::GeneratedProgram &) { return false; });
    EXPECT_EQ(outcome.program.render(), program.render());
    EXPECT_EQ(outcome.removed, 0u);
    EXPECT_EQ(outcome.steps, 1u);
}

// ---- listing round trip ---------------------------------------------

/** The compiled units of the corpora, the Table 11 programs and a
 *  generated Pascal batch list as text that parses back to the same
 *  items: the code generator's builder calls expand exactly as their
 *  listed mnemonics do. */
TEST(ListUnit, CompiledUnitsRoundTripThroughText)
{
    std::vector<std::pair<std::string, std::string>> programs;
    for (const auto *set : {&workload::corpus(), &workload::dispatchCorpus()})
        for (const workload::CorpusProgram &p : *set)
            programs.emplace_back(p.name, p.source);
    for (const workload::CorpusProgram *p :
         {&workload::fibonacciProgram(), &workload::puzzle0Program(),
          &workload::puzzle1Program()})
        programs.emplace_back(p->name, p->source);
    for (const fuzz::GeneratedProgram &g : fuzz::generateBatch(1982, 100))
        if (g.kind == fuzz::ProgramKind::PASCAL)
            programs.emplace_back(g.name, g.render());

    // Label ids may differ between the two units; names may not.
    auto labelNames = [](const assembler::Unit &u,
                         const assembler::Item &item) {
        std::vector<std::string_view> names;
        for (assembler::LabelId id : u.labels.chain(item.label))
            names.push_back(u.labels.name(id));
        return names;
    };
    auto same = [&](const assembler::Unit &ua, const assembler::Item &a,
                    const assembler::Unit &ub, const assembler::Item &b) {
        return a.inst == b.inst &&
               assembler::targetName(ua, a) ==
                   assembler::targetName(ub, b) &&
               labelNames(ua, a) == labelNames(ub, b) &&
               a.is_data == b.is_data && a.data_value == b.data_value &&
               a.no_reorder == b.no_reorder;
    };
    for (const auto &[name, source] : programs) {
        auto unit = plc::compile(source);
        ASSERT_TRUE(unit.ok()) << name << ": " << unit.error().str();
        std::string text = assembler::listUnit(unit.value());
        auto back = assembler::parse(text);
        ASSERT_TRUE(back.ok()) << name << ": " << back.error().str();
        const auto &items = unit.value().items;
        ASSERT_EQ(back.value().items.size(), items.size()) << name;
        for (size_t i = 0; i < items.size(); ++i) {
            if (!same(unit.value(), items[i], back.value(),
                      back.value().items[i])) {
                assembler::Unit one;
                one.labels = unit.value().labels;
                one.items = {items[i]};
                ADD_FAILURE() << name << ": item " << i
                              << " does not round-trip; it lists as\n"
                              << assembler::listUnit(one);
                break;
            }
        }
    }
}

// ---- flat CFG invariants -------------------------------------------

/** The first violated invariant of `unit`'s CFG and call graph, or
 *  the empty string. */
std::string
flatCfgViolation(const assembler::Unit &unit)
{
    verify::Cfg cfg = verify::buildCfg(unit, nullptr);
    const auto &items = unit.items;
    size_t n = items.size();
    if (cfg.size() != n || cfg.succ_begin.size() != n + 1 ||
        cfg.pred_begin.size() != n + 1 || cfg.uses.size() != n)
        return "array sizes do not match the unit";

    // Successors sorted and unique; predecessors exactly the inverse
    // relation, ascending.
    std::vector<std::vector<size_t>> inverse(n);
    for (size_t j = 0; j < n; ++j) {
        auto succs = cfg.succs(j);
        if (!std::is_sorted(succs.begin(), succs.end()) ||
            std::adjacent_find(succs.begin(), succs.end()) != succs.end())
            return "succs(" + std::to_string(j) + ") not sorted unique";
        for (uint32_t i : succs) {
            if (i >= n)
                return "succs(" + std::to_string(j) + ") leaves the unit";
            inverse[i].push_back(j);
        }
    }
    for (size_t i = 0; i < n; ++i) {
        auto preds = cfg.preds(i);
        if (std::vector<size_t>(preds.begin(), preds.end()) != inverse[i])
            return "preds(" + std::to_string(i) + ") is not the inverse";
    }

    for (size_t i = 0; i < n; ++i) {
        if (items[i].is_data)
            continue;
        isa::RegUse want = isa::regUse(items[i].inst);
        const isa::RegUse &got = cfg.uses[i];
        if (got.gpr_reads != want.gpr_reads ||
            got.gpr_writes != want.gpr_writes ||
            got.reads_lo != want.reads_lo ||
            got.writes_lo != want.writes_lo ||
            got.touches_system_state != want.touches_system_state ||
            got.reads_memory != want.reads_memory ||
            got.writes_memory != want.writes_memory)
            return "uses[" + std::to_string(i) + "] != regUse";
    }

    // Every label resolves to its first definition.
    const assembler::LabelTable &labels = unit.labels;
    std::map<std::string, size_t> first;
    for (size_t i = 0; i < n; ++i)
        for (assembler::LabelId id : labels.chain(items[i].label))
            first.emplace(labels.name(id), i);
    for (assembler::LabelId id : labels.chain(unit.trailing))
        first.emplace(labels.name(id), verify::kNoItem);
    size_t defined = 0;
    for (assembler::LabelId id = 0; id < labels.size(); ++id)
        defined += labels.first(id) == id && labels.defined(id);
    if (defined != first.size())
        return "label table defines other names than the items";
    for (const auto &[label, at] : first) {
        assembler::LabelId id = labels.find(label);
        if (id == assembler::kNoLabel || cfg.labelItem(id) != at)
            return "label '" + label + "' misresolved";
    }

    verify::CallGraph graph = verify::buildCallGraph(cfg);
    if (graph.function_of.size() != n)
        return "function_of size differs from the unit";
    for (size_t i = 0; i < n; ++i)
        if (graph.function_of[i] >= graph.size())
            return "item " + std::to_string(i) + " has no function";
    return "";
}

/** The reorganized units of the corpora, the Table 11 programs and a
 *  generated batch, under every fuzz matrix config, keep the flat
 *  CFG's invariants, and the live-in masks the reorganizer hands TV
 *  are blockLiveIn of the legal unit. */
TEST(FlatCfg, InvariantsHoldOnEveryReorganizedUnit)
{
    struct Program
    {
        std::string name;
        std::string text;
        bool pascal;
    };
    std::vector<Program> programs;
    for (const auto *set : {&workload::corpus(), &workload::dispatchCorpus()})
        for (const workload::CorpusProgram &p : *set)
            programs.push_back({p.name, p.source, true});
    for (const workload::CorpusProgram *p :
         {&workload::fibonacciProgram(), &workload::puzzle0Program(),
          &workload::puzzle1Program()})
        programs.push_back({p->name, p->source, true});
    for (const fuzz::GeneratedProgram &g : fuzz::generateBatch(1982, 100))
        programs.push_back(
            {g.name, g.render(), g.kind == fuzz::ProgramKind::PASCAL});

    size_t units = 0;
    for (const Program &p : programs) {
        pipeline::Session session; // one program's configs share it
        const pipeline::Source source(
            p.text, p.pascal ? pipeline::Language::PASCAL
                             : pipeline::Language::ASSEMBLY);
        for (const fuzz::FuzzConfig &config :
             p.pascal ? fuzz::pascalMatrix() : fuzz::asmMatrix()) {
            pipeline::StageOptions o;
            o.compile.layout = config.layout;
            o.compile.jump_tables = config.jump_tables;
            o.reorg = config.reorg;
            auto reorg = session.reorganize(source, o);
            ASSERT_TRUE(reorg.ok())
                << p.name << " " << config.tag << ": "
                << reorg.error().str();
            EXPECT_EQ(flatCfgViolation(reorg.value()->final_unit), "")
                << p.name << " " << config.tag;
            EXPECT_TRUE(reorg.value()->live_in ==
                        reorg::blockLiveIn(*reorg.value()->legal))
                << p.name << " " << config.tag << ": live-in masks";
            ++units;
        }
    }
    EXPECT_GE(units, 500u);
}

} // namespace
