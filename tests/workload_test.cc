/**
 * @file
 * Workload tests: every corpus program compiles and runs identically
 * on the functional and pipeline machines under both layouts; the
 * Puzzle variants agree with each other; and the analyzers produce
 * distributions with the paper's qualitative shape.
 */
#include <gtest/gtest.h>

#include "pipeline/session.h"
#include "plc/driver.h"
#include "sim/machine.h"
#include "workload/analyzers.h"
#include "workload/corpus.h"

namespace mips::workload {
namespace {

/** True if `unit` dispatches through a jump table (a TABLE jump). */
bool
hasJumpTable(const assembler::Unit &unit)
{
    for (const assembler::Item &item : unit.items)
        if (item.inst.jump() && isa::jumpIsTable(item.inst.jump()->kind))
            return true;
    return false;
}

std::string
runOn(const CorpusProgram &program, plc::Layout layout)
{
    plc::CompileOptions copts;
    copts.layout = layout;
    auto exe = plc::buildExecutable(program.source, copts);
    EXPECT_TRUE(exe.ok()) << program.name << ": "
                          << (exe.ok() ? "" : exe.error().str());
    if (!exe.ok())
        return "<error>";

    sim::Machine machine;
    machine.load(exe.value().program);
    EXPECT_EQ(machine.cpu().run(200'000'000), sim::StopReason::HALT)
        << program.name << ": " << machine.cpu().errorMessage();
    std::string pipeline_out = machine.memory().consoleOutput();

    auto legal = assembler::link(exe.value().legal_unit);
    EXPECT_TRUE(legal.ok()) << program.name;
    sim::FunctionalRun f = sim::runFunctional(legal.value(),
                                              200'000'000);
    EXPECT_EQ(f.reason, sim::StopReason::HALT)
        << program.name << ": " << f.cpu->errorMessage();
    EXPECT_EQ(f.memory->consoleOutput(), pipeline_out) << program.name;
    return pipeline_out;
}

TEST(Corpus, AllProgramsRunIdenticallyUnderBothLayouts)
{
    for (const CorpusProgram &program : corpus()) {
        std::string word = runOn(program, plc::Layout::WORD_ALLOCATED);
        std::string byte = runOn(program, plc::Layout::BYTE_ALLOCATED);
        EXPECT_EQ(word, byte) << program.name;
        EXPECT_FALSE(word.empty()) << program.name;
        if (program.expected_output[0] != '\0') {
            EXPECT_EQ(word, program.expected_output) << program.name;
        }
    }
}

TEST(Corpus, DispatchProgramsRunIdenticallyUnderBothLayouts)
{
    ASSERT_GE(dispatchCorpus().size(), 3u);
    for (const CorpusProgram &program : dispatchCorpus()) {
        std::string word = runOn(program, plc::Layout::WORD_ALLOCATED);
        std::string byte = runOn(program, plc::Layout::BYTE_ALLOCATED);
        EXPECT_EQ(word, byte) << program.name;
        EXPECT_FALSE(word.empty()) << program.name;
        if (program.expected_output[0] != '\0') {
            EXPECT_EQ(word, program.expected_output) << program.name;
        }
    }
}

TEST(Corpus, DispatchProgramsUseJumpTables)
{
    // Each dispatch program must actually contain a jtab dispatch, and
    // must lower without one when tables are disabled — with the same
    // console output either way.
    for (const CorpusProgram &program : dispatchCorpus()) {
        auto with = plc::compile(program.source);
        ASSERT_TRUE(with.ok()) << program.name;
        EXPECT_TRUE(hasJumpTable(with.value()))
            << program.name << " should dispatch through a jump table";

        plc::CompileOptions copts;
        copts.jump_tables = false;
        auto without = plc::compile(program.source, copts);
        ASSERT_TRUE(without.ok()) << program.name;
        EXPECT_FALSE(hasJumpTable(without.value()))
            << program.name << " must honour jump_tables=false";
    }
}

TEST(Corpus, FibonacciIs987)
{
    EXPECT_EQ(runOn(fibonacciProgram(), plc::Layout::WORD_ALLOCATED),
              "987");
}

TEST(Corpus, PuzzleVariantsSolveAndAgree)
{
    std::string p0 = runOn(puzzle0Program(),
                           plc::Layout::WORD_ALLOCATED);
    std::string p1 = runOn(puzzle1Program(),
                           plc::Layout::WORD_ALLOCATED);
    ASSERT_FALSE(p0.empty());
    EXPECT_EQ(p0[0], 'Y') << "puzzle must find a tiling: " << p0;
    EXPECT_EQ(p0, p1) << "both variants must search identically";
}

// --------------------------------------------------------- Analyzers

/** The analyzed AST of every corpus program under word allocation. */
std::vector<pipeline::ParseRef>
parsedCorpus(pipeline::Session &session)
{
    std::vector<pipeline::ParseRef> out;
    for (const CorpusProgram &program : corpus()) {
        auto parsed =
            session.parse(program.source, plc::Layout::WORD_ALLOCATED);
        EXPECT_TRUE(parsed.ok()) << program.name;
        if (parsed.ok())
            out.push_back(parsed.value());
    }
    return out;
}

/** One profiled run of `source` under `layout` (null if it fails). */
pipeline::SimRef
profiled(pipeline::Session &session, const char *source,
         plc::Layout layout)
{
    pipeline::StageOptions options;
    options.compile.layout = layout;
    options.sim.profile = true;
    auto run = session.simulate(source, options);
    EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.error().str());
    if (!run.ok())
        return nullptr;
    EXPECT_EQ(run.value()->stop, sim::StopReason::HALT)
        << run.value()->error;
    return run.value();
}

/** The whole corpus profiled under `layout`, merged. */
ProfileResult
profiledCorpus(pipeline::Session &session, plc::Layout layout)
{
    ProfileResult merged;
    for (const CorpusProgram &program : corpus()) {
        pipeline::SimRef run = profiled(session, program.source, layout);
        if (!run)
            continue;
        merged.refs.merge(run->refs);
        merged.cycles += run->cycles;
        merged.free_data_cycles += run->free_data_cycles;
    }
    return merged;
}

TEST(Analyzers, ConstantDistributionShape)
{
    pipeline::Session session;
    ConstantDist dist;
    for (const pipeline::ParseRef &parsed : parsedCorpus(session))
        collectConstants(parsed->ast, &dist);
    ASSERT_GT(dist.dist.total(), 50u);
    // The paper's shape: 0 and 1 are the most common individual
    // values; small constants (<=15) cover the majority; character
    // constants populate 16-255; very large constants are rare.
    double f0 = dist.dist.fraction("0");
    double f1 = dist.dist.fraction("1");
    double small = f0 + f1 + dist.dist.fraction("2") +
                   dist.dist.fraction("3-15");
    EXPECT_GT(f0, 0.10);
    EXPECT_GT(f1, 0.10);
    EXPECT_GT(small, 0.5);
    EXPECT_GT(dist.dist.fraction("16-255"), 0.05);
    EXPECT_LT(dist.dist.fraction(">255"), 0.10);
}

TEST(Analyzers, BoolExprShape)
{
    pipeline::Session session;
    BoolExprShape shape;
    for (const pipeline::ParseRef &parsed : parsedCorpus(session))
        collectBoolExprs(parsed->ast, &shape);
    ASSERT_GT(shape.expressions, 20u);
    // Most boolean expressions guard control flow (paper: 80.9%) and
    // average a bit over one operator (paper: 1.66).
    EXPECT_GT(shape.fracJump(), 0.6);
    EXPECT_GT(shape.meanOperators(), 1.0);
    EXPECT_LT(shape.meanOperators(), 3.0);
}

TEST(Analyzers, CcSavingsAreSmall)
{
    CcSavings savings;
    for (const CorpusProgram &program : corpus()) {
        auto compiled = plc::compile(program.source);
        ASSERT_TRUE(compiled.ok()) << program.name;
        collectCcSavings(compiled.value(), &savings);
    }
    ASSERT_GT(savings.compares, 50u);
    // The paper's Table 3: about 1-2% of compares saved by operator-set
    // condition codes; a few percent when moves set them too. The
    // qualitative claim is that both are small.
    EXPECT_LT(savings.fracSavedByOps(), 0.15);
    EXPECT_LE(savings.saved_by_ops, savings.saved_with_moves);
    EXPECT_LT(savings.fracSavedWithMoves(), 0.30);
}

TEST(Analyzers, ReferencePatternsWordVsByte)
{
    pipeline::Session session;
    const RefPattern w =
        profiledCorpus(session, plc::Layout::WORD_ALLOCATED).refs;
    const RefPattern b =
        profiledCorpus(session, plc::Layout::BYTE_ALLOCATED).refs;
    ASSERT_GT(w.total(), 1000u);
    ASSERT_GT(b.total(), 1000u);

    auto frac = [](uint64_t part, uint64_t whole) {
        return static_cast<double>(part) / static_cast<double>(whole);
    };
    // Paper Table 7 vs 8: byte allocation raises the fraction of
    // 8-bit references; loads dominate stores in both.
    double w8 = frac(w.loads8 + w.stores8, w.total());
    double b8 = frac(b.loads8 + b.stores8, b.total());
    EXPECT_LT(w8, b8);
    EXPECT_GT(frac(w.loads8 + w.loads32, w.total()), 0.5);
    EXPECT_GT(frac(b.loads8 + b.loads32, b.total()), 0.5);
    // Word-allocated objects dominate byte-allocated ones (Table 7).
    EXPECT_GT(frac(w.loads32 + w.stores32, w.total()), 0.5);
}

TEST(Analyzers, FreeMemoryCyclesSubstantial)
{
    pipeline::Session session;
    double free_frac =
        profiledCorpus(session, plc::Layout::WORD_ALLOCATED)
            .freeBandwidth();
    // The paper: "the wasted bandwidth came close to 40%". Our
    // measured fraction runs higher because multiplication and
    // division execute as software step loops (pure ALU traffic) —
    // the direction of the claim (substantial idle data-memory
    // bandwidth, worth exposing as free cycles) is what must hold.
    EXPECT_GT(free_frac, 0.25);
    EXPECT_LT(free_frac, 0.95);
}

TEST(Analyzers, ProfileCapturesCharacterTraffic)
{
    pipeline::Session session;
    pipeline::SimRef run = profiled(session, corpus()[0].source, // tokenizer
                                    plc::Layout::WORD_ALLOCATED);
    ASSERT_NE(run, nullptr);
    EXPECT_GT(run->refs.charTotal(), 0u);
}

} // namespace
} // namespace mips::workload
