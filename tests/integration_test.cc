/**
 * @file
 * Whole-toolchain property tests: randomly generated Pascal-like
 * programs are compiled under both data layouts, reorganized under
 * randomized option sets, and executed on both machines. All four
 * executions must print identical output — exercising the compiler,
 * peephole, reorganizer, assembler, linker, and both simulators
 * against each other.
 */
#include <gtest/gtest.h>

#include "plc/driver.h"
#include "sim/machine.h"
#include "support/rng.h"
#include "verify/tv.h"
#include "verify/verify.h"

namespace mips {
namespace {

using support::Rng;
using support::strprintf;

/** Generator of random, terminating mini-Pascal programs. */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed) : rng_(seed) {}

    std::string
    run()
    {
        src_ = "program fuzz;\n";
        src_ += "var a, b, c, d, e: integer;\n";
        src_ += "    buf: array [0..15] of integer;\n";
        src_ += "    txt: array [0..15] of char;\n";
        src_ += "    ptx: packed array [0..15] of char;\n";
        src_ += "    i, j, k, t: integer;\n";
        src_ += "begin\n";
        // Deterministic seeds.
        for (const char *v : {"a", "b", "c", "d", "e"}) {
            src_ += strprintf("  %s := %d;\n", v,
                              static_cast<int>(rng_.below(100)));
        }
        src_ += "  for i := 0 to 15 do begin\n";
        src_ += strprintf("    buf[i] := i * %d;\n",
                          static_cast<int>(rng_.below(9)) + 1);
        src_ += "    txt[i] := chr(65 + (i mod 26));\n";
        src_ += "    ptx[i] := chr(97 + (i mod 26));\n";
        src_ += "  end;\n";

        int stmts = 4 + static_cast<int>(rng_.below(8));
        for (int s = 0; s < stmts; ++s)
            genStmt(1);

        // Print everything observable.
        for (const char *v : {"a", "b", "c", "d", "e", "t"}) {
            src_ += strprintf("  writeint(%s); writechar(' ');\n", v);
        }
        src_ += "  t := 0;\n";
        src_ += "  for i := 0 to 15 do t := t + buf[i] + ord(txt[i]) "
                "+ ord(ptx[i]);\n";
        src_ += "  writeint(t);\n";
        src_ += "end.\n";
        return src_;
    }

  private:
    const char *
    var()
    {
        static const char *const kVars[] = {"a", "b", "c", "d", "e"};
        return kVars[rng_.below(5)];
    }

    /** A small integer expression (guaranteed in-range). */
    std::string
    expr(int depth)
    {
        if (depth >= 3 || rng_.chance(0.4)) {
            if (rng_.chance(0.5))
                return var();
            return strprintf("%d", static_cast<int>(rng_.below(50)));
        }
        switch (rng_.below(5)) {
          case 0:
            return "(" + expr(depth + 1) + " + " + expr(depth + 1) +
                   ")";
          case 1:
            return "(" + expr(depth + 1) + " - " + expr(depth + 1) +
                   ")";
          case 2:
            return "(" + expr(depth + 1) + " * " +
                   strprintf("%d", static_cast<int>(rng_.below(5))) +
                   ")";
          case 3:
            return "(" + expr(depth + 1) + " div " +
                   strprintf("%d",
                             static_cast<int>(rng_.below(6)) + 1) +
                   ")";
          default:
            return "(" + expr(depth + 1) + " mod " +
                   strprintf("%d",
                             static_cast<int>(rng_.below(6)) + 2) +
                   ")";
        }
    }

    std::string
    cond()
    {
        static const char *const kRels[] = {"=", "<>", "<", "<=", ">",
                                            ">="};
        std::string leaf1 = std::string(var()) + " " +
                            kRels[rng_.below(6)] + " " + expr(2);
        if (rng_.chance(0.5))
            return leaf1;
        std::string leaf2 = std::string(var()) + " " +
                            kRels[rng_.below(6)] + " " + expr(2);
        const char *op = rng_.chance(0.5) ? "or" : "and";
        return "(" + leaf1 + ") " + op + " (" + leaf2 + ")";
    }

    void
    genStmt(int depth)
    {
        switch (rng_.below(depth >= 3 ? 3 : 6)) {
          case 0:
            src_ += strprintf("  %s := %s;\n", var(),
                              expr(1).c_str());
            break;
          case 1:
            // `x mod 8 + 8` lands in 1..15 even for negative x
            // (Pascal mod truncates toward zero).
            src_ += strprintf("  buf[(%s) mod 8 + 8] := %s;\n",
                              expr(2).c_str(), expr(1).c_str());
            break;
          case 2: {
            // Character traffic through both array flavours.
            const char *arr = rng_.chance(0.5) ? "txt" : "ptx";
            src_ += strprintf(
                "  %s[(%s) mod 8 + 8] := chr(65 + ((%s) mod 26));\n",
                arr, expr(2).c_str(), expr(2).c_str());
            break;
          }
          case 3: {
            src_ += strprintf("  if %s then begin\n", cond().c_str());
            genStmt(depth + 1);
            if (rng_.chance(0.5)) {
                src_ += "  end else begin\n";
                genStmt(depth + 1);
            }
            src_ += "  end;\n";
            break;
          }
          case 4: {
            // One loop variable per nesting depth: a nested `for`
            // reusing its parent's variable never terminates.
            static const char *const kLoopVars[] = {"i", "j", "k"};
            const char *lv = kLoopVars[std::min(depth - 1, 2)];
            int lo = static_cast<int>(rng_.below(4));
            int hi = lo + static_cast<int>(rng_.below(8));
            src_ += strprintf("  for %s := %d to %d do begin\n", lv,
                              lo, hi);
            genStmt(depth + 1);
            src_ += "  end;\n";
            break;
          }
          default: {
            src_ += strprintf("  t := t + %s;\n", expr(1).c_str());
            break;
          }
        }
    }

    Rng rng_;
    std::string src_;
};

/** Compile under (layout, reorg options) and run on the pipeline. */
std::string
runVariant(const std::string &source, plc::Layout layout,
           const reorg::ReorgOptions &ropts, const char *tag)
{
    plc::CompileOptions copts;
    copts.layout = layout;
    auto exe = plc::buildExecutable(source, copts, ropts);
    EXPECT_TRUE(exe.ok()) << tag << ": "
                          << (exe.ok() ? "" : exe.error().str())
                          << "\n" << source;
    if (!exe.ok())
        return "<compile error>";

    // Static oracle: every pipeline-bound image must pass the verifier
    // before it runs.
    verify::VerifyReport vr = verify::verifyReorganization(
        exe.value().legal_unit, exe.value().final_unit);
    EXPECT_TRUE(vr.clean())
        << tag << ": static verification failed:\n"
        << verify::reportText(vr, exe.value().final_unit, tag);

    // Second static oracle: the translation validator must prove the
    // reorganized unit equivalent (no errors, no unproven regions).
    verify::TvOptions tvopts;
    tvopts.alias = ropts.alias;
    verify::VerifyReport tv = verify::validateTranslation(
        exe.value().legal_unit, exe.value().final_unit,
        exe.value().tv_hints, reorg::blockLiveIn(exe.value().legal_unit),
        tvopts);
    EXPECT_TRUE(tv.clean() && tv.notes == 0)
        << tag << ": translation validation failed:\n"
        << verify::reportText(tv, exe.value().final_unit, tag);

    sim::Machine machine;
    machine.load(exe.value().program);
    EXPECT_EQ(machine.cpu().run(100'000'000), sim::StopReason::HALT)
        << tag << ": " << machine.cpu().errorMessage();
    return machine.memory().consoleOutput();
}

TEST(Fuzz, RandomProgramsAgreeAcrossLayoutsAndMachines)
{
    Rng meta(0xf00dULL);
    for (int trial = 0; trial < 25; ++trial) {
        ProgramGen gen(meta.next());
        std::string source = gen.run();
        std::string tag = strprintf("trial %d", trial);

        // Oracle: legal code on the interlocked machine.
        plc::CompileOptions copts;
        auto exe = plc::buildExecutable(source, copts);
        ASSERT_TRUE(exe.ok()) << tag << ": " << exe.error().str()
                              << "\n" << source;
        auto legal = assembler::link(exe.value().legal_unit);
        ASSERT_TRUE(legal.ok()) << tag;
        sim::FunctionalRun oracle = sim::runFunctional(legal.value(),
                                                       100'000'000);
        ASSERT_EQ(oracle.reason, sim::StopReason::HALT)
            << tag << ": " << oracle.cpu->errorMessage();
        std::string expected = oracle.memory->consoleOutput();
        ASSERT_FALSE(expected.empty()) << tag;

        // Pipeline, word layout, randomized reorganizer options.
        reorg::ReorgOptions ropts;
        ropts.reorder = meta.chance(0.8);
        ropts.pack = meta.chance(0.8);
        ropts.fill_delay = meta.chance(0.8);
        EXPECT_EQ(runVariant(source, plc::Layout::WORD_ALLOCATED,
                             ropts, tag.c_str()),
                  expected)
            << tag << "\n" << source;

        // Pipeline, byte layout, full reorganizer.
        EXPECT_EQ(runVariant(source, plc::Layout::BYTE_ALLOCATED,
                             reorg::ReorgOptions{}, tag.c_str()),
                  expected)
            << tag << "\n" << source;
    }
}

TEST(Fuzz, EncodedImagesRoundTripThroughDecoder)
{
    // Every word of a compiled image must decode back to the linked
    // instruction (data words excepted).
    ProgramGen gen(42);
    auto exe = plc::buildExecutable(gen.run());
    ASSERT_TRUE(exe.ok());
    const assembler::Program &prog = exe.value().program;
    for (size_t i = 0; i < prog.image.size(); ++i) {
        auto decoded = isa::decode(prog.image[i]);
        if (decoded.ok()) {
            EXPECT_EQ(isa::encode(decoded.value()), prog.image[i]);
        }
    }
}

} // namespace
} // namespace mips
