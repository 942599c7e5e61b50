/**
 * @file
 * Interprocedural analyzer tests: call-graph construction (function
 * partition, site resolution, secondary entries, recursion), one
 * golden test per calling-convention code with a clean twin showing
 * the fixed program verifies silent, dot/JSON rendering, and the
 * whole-corpus zero-false-positive sweep over reorganizer output.
 */
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "plc/driver.h"
#include "verify/interproc.h"
#include "verify/verify.h"
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

std::string
dump(const VerifyReport &report, const Unit &unit)
{
    return reportText(report, unit, "test");
}

size_t
funcNamed(const CallGraph &g, const std::string &name)
{
    for (size_t i = 0; i < g.functions.size(); ++i)
        if (g.functions[i].name == name)
            return i;
    return kNoFunc;
}

// ------------------------------------------------------- call graph

TEST(CallGraph, DirectCallPartitionsAndResolves)
{
    Unit u = parseUnit(
        "call f, r15\n"     // 0
        "nop\n"             // 1: slot
        "halt\n"            // 2: resume
        "f: movi #1, r1\n"  // 3
        "jmp (r15)\n"       // 4
        "nop\n");           // 5
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph g = buildCallGraph(cfg);
    ASSERT_EQ(g.size(), 2u);
    EXPECT_TRUE(g.functions[0].is_root);
    size_t f = funcNamed(g, "f");
    ASSERT_NE(f, kNoFunc);
    EXPECT_EQ(g.functions[f].begin, 3u);
    EXPECT_EQ(g.functions[f].end, 6u);
    EXPECT_TRUE(g.functions[f].reachable);
    EXPECT_EQ(g.functions[f].returns, (std::vector<size_t>{4}));
    ASSERT_EQ(g.sites.size(), 1u);
    EXPECT_EQ(g.sites[0].item, 0u);
    EXPECT_EQ(g.sites[0].caller, 0u);
    EXPECT_EQ(g.sites[0].callee, f);
    EXPECT_EQ(g.sites[0].entered, 3u);
    EXPECT_FALSE(g.sites[0].indirect);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(g.function_of[i], 0u);
    for (size_t i = 3; i < 6; ++i)
        EXPECT_EQ(g.function_of[i], f);
}

TEST(CallGraph, IndirectCallResolvedThroughConstantDef)
{
    Unit u = parseUnit(
        "ldi #0, r1\n"      // 0: patched below to carry target f
        "call (r1), r15\n"  // 1
        "nop\n"             // 2: slot
        "nop\n"             // 3: slot (indirect delay is 2)
        "halt\n"            // 4
        "f: jmp (r15)\n"    // 5
        "nop\n");           // 6
    // As the code generator emits it.
    u.items[0].target = u.labels.find("f");
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph g = buildCallGraph(cfg);
    size_t f = funcNamed(g, "f");
    ASSERT_NE(f, kNoFunc);
    ASSERT_EQ(g.sites.size(), 1u);
    EXPECT_TRUE(g.sites[0].indirect);
    EXPECT_TRUE(g.sites[0].resolved());
    EXPECT_EQ(g.sites[0].callee, f);
    EXPECT_TRUE(g.functions[f].reachable);
}

TEST(CallGraph, SelfRecursionDetected)
{
    Unit u = parseUnit(
        "f: call f, r15\n" // 0
        "nop\n"            // 1
        "jmp (r15)\n"      // 2
        "nop\n");          // 3
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph g = buildCallGraph(cfg);
    ASSERT_EQ(g.size(), 1u);
    EXPECT_TRUE(g.functions[0].recursive);
    ASSERT_EQ(g.sites.size(), 1u);
    EXPECT_EQ(g.sites[0].callee, 0u);
}

TEST(CallGraph, FallenIntoTargetBecomesSecondaryEntry)
{
    // The reorganizer's call retargeting makes labels that are both
    // call targets and fall-through successors; such a label must not
    // split the region (that would sever the prologue) but become a
    // secondary entry of the containing function.
    Unit u = parseUnit(
        "call m, r15\n"      // 0
        "nop\n"              // 1
        "halt\n"             // 2
        "f: movi #1, r1\n"   // 3: predless label starts the region
        "m: st r1, 0(r14)\n" // 4: call target, fallen into from 3
        "jmp (r15)\n"        // 5
        "nop\n");            // 6
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph g = buildCallGraph(cfg);
    ASSERT_EQ(g.size(), 2u);
    size_t f = funcNamed(g, "f");
    ASSERT_NE(f, kNoFunc);
    EXPECT_EQ(g.functions[f].begin, 3u);
    EXPECT_EQ(g.functions[f].end, 7u);
    EXPECT_EQ(g.functions[f].entries, (std::vector<size_t>{3, 4}));
    ASSERT_EQ(g.sites.size(), 1u);
    EXPECT_EQ(g.sites[0].callee, f);
    EXPECT_EQ(g.sites[0].entered, 4u);
}

TEST(CallGraph, DotRenderingListsFunctionsAndEdges)
{
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: jmp (r15)\n"
        "nop\n");
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph g = buildCallGraph(cfg);
    std::string dot = callGraphDot(g, "unit.s");
    EXPECT_NE(dot.find("digraph"), std::string::npos) << dot;
    EXPECT_NE(dot.find("\"f\""), std::string::npos) << dot;
    EXPECT_NE(dot.find("->"), std::string::npos) << dot;
}

TEST(CallGraph, DotRendersTableDispatchEdgesDashed)
{
    // A dispatch whose table is recovered draws a dashed edge per
    // distinct target function, styled apart from call edges.
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
    CallGraph g = buildCallGraph(cfg);
    std::string dot = callGraphDot(g, "unit.s");
    EXPECT_NE(dot.find("style=dashed, label=\"table\""),
              std::string::npos)
        << dot;
    EXPECT_EQ(dot.find("\"?\""), std::string::npos) << dot;
}

TEST(CallGraph, DotRendersUnrecoveredTableAsUnknown)
{
    // No table label: the dispatch cannot be recovered, so the edge
    // points at the dotted "?" node instead of silently vanishing.
    Unit u = parseUnit(
        "jtab (r2+r3)\n"
        "nop\n"
        "nop\n"
        "halt\n");
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph g = buildCallGraph(cfg);
    std::string dot = callGraphDot(g, "unit.s");
    EXPECT_NE(dot.find("-> \"?\" [style=dashed, label=\"table\"]"),
              std::string::npos)
        << dot;
    EXPECT_NE(dot.find("\"?\" [shape=ellipse, style=dotted]"),
              std::string::npos)
        << dot;
}

// ------------------------------------------- golden diagnostics

TEST(Golden, Cc001CalleeSavedClobbered)
{
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: movi #7, r5\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyOptions options;
    options.callee_saved = 1u << 5;
    VerifyReport report = verifyUnit(u, options);
    ASSERT_EQ(report.countOf(Code::CC001), 1u) << dump(report, u);
    const Diagnostic &d = report.diagnostics.front();
    EXPECT_EQ(report.diagnostics.front().severity, Severity::ERROR);
    EXPECT_NE(d.message.find("r5"), std::string::npos) << d.message;
    // The repo convention is caller-save: the default checks nothing.
    EXPECT_EQ(verifyUnit(u).countOf(Code::CC001), 0u);
}

TEST(Golden, Cc001SaveRestoreIsClean)
{
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: st r5, 0(r14)\n"
        "movi #7, r5\n"
        "ld 0(r14), r5\n" // the restore idiom clears the dirty bit
        "jmp (r15)\n"
        "nop\n");
    VerifyOptions options;
    options.callee_saved = 1u << 5;
    VerifyReport report = verifyUnit(u, options);
    EXPECT_EQ(report.countOf(Code::CC001), 0u) << dump(report, u);
}

TEST(Golden, Cc001IdentityMovePreservesRegister)
{
    // The reorganizer packs `add rX, #0, rX` self-moves; the write
    // provably carries the register's own value and must not count
    // as a clobber.
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: add r5, #0, r5\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyOptions options;
    options.callee_saved = 1u << 5;
    VerifyReport report = verifyUnit(u, options);
    EXPECT_EQ(report.countOf(Code::CC001), 0u) << dump(report, u);
}

TEST(Golden, Cc002ReturnAddressOverwritten)
{
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: call g, r15\n" // nested call clobbers the link register
        "nop\n"
        "jmp (r15)\n"      // returns through the overwritten link
        "nop\n"
        "nop\n"            // indirect jumps shadow two words
        "g: jmp (r15)\n"
        "nop\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::CC002), 1u) << dump(report, u);
    const Diagnostic *d = nullptr;
    for (const Diagnostic &x : report.diagnostics)
        if (x.code == Code::CC002)
            d = &x;
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_NE(d->message.find("'f'"), std::string::npos) << d->message;
}

TEST(Golden, Cc002SaveRestoreIsClean)
{
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: st r15, 0(r14)\n"
        "call g, r15\n"
        "nop\n"
        "ld 0(r14), r15\n"
        "nop\n"            // the reloaded link needs its load delay
        "jmp (r15)\n"
        "nop\n"
        "nop\n"
        "g: jmp (r15)\n"
        "nop\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::CC002), 0u) << dump(report, u);
}

TEST(Golden, Cc003UnbalancedStackAdjustment)
{
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: sub r14, #2, r14\n" // allocates a frame...
        "jmp (r15)\n"           // ...and returns without freeing it
        "nop\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::CC003), 1u) << dump(report, u);
    const Diagnostic *d = nullptr;
    for (const Diagnostic &x : report.diagnostics)
        if (x.code == Code::CC003)
            d = &x;
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_NE(d->message.find("stack"), std::string::npos) << d->message;
}

TEST(Golden, Cc003BalancedFrameIsClean)
{
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: sub r14, #2, r14\n"
        "add r14, #2, r14\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::CC003), 0u) << dump(report, u);
}

TEST(Golden, Cc003UntrackedStackWriteStaysSilent)
{
    // The frame is never freed, but the final stack-pointer write
    // copies from another register — an untracked write poisons the
    // delta lattice (Delta::GIVEUP) and the check must stay silent
    // rather than guess at the net adjustment.
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: sub r14, #2, r14\n"
        "add r9, #0, r14\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::CC003), 0u) << dump(report, u);
}

TEST(Golden, Cc003UnknownAdjustAmountStaysSilent)
{
    // sp-relative adjustment by a register with no constant reaching
    // definition: also Delta::GIVEUP, also silent — even though the
    // frame provably is not freed by a matching add.
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: sub r14, r9, r14\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::CC003), 0u) << dump(report, u);
}

TEST(Golden, Cc003RetargetedCallShiftsResumeDelta)
{
    // A call into a secondary entry skips the callee's one-word
    // prologue; the caller performs that adjustment in the delay slot.
    // The resume edge must shift the caller's delta by the callee's
    // provable net effect from that entry (ResumeFix::SHIFT, here
    // +2): with the shift the caller balances; without it this would
    // be a false CC003 at c's return.
    Unit u = parseUnit(
        "call c, r15\n"          // 0
        "nop\n"                  // 1
        "halt\n"                 // 2
        "c: st r15, 4(r14)\n"    // 3: save the link above the frame
        "call f2, r15\n"         // 4: enters past f's prologue
        "sub r14, #2, r14\n"     // 5: slot performs the skipped sub
        "ld 4(r14), r15\n"       // 6: resume, sp balanced again
        "nop\n"                  // 7
        "jmp (r15)\n"            // 8
        "nop\n"                  // 9
        "nop\n"                  // 10
        "f: sub r14, #2, r14\n"  // 11: prologue (skipped by the call)
        "f2: st r15, 0(r14)\n"   // 12: secondary entry
        "ld 0(r14), r15\n"       // 13
        "nop\n"                  // 14
        "add r14, #2, r14\n"     // 15
        "jmp (r15)\n"            // 16
        "nop\n"                  // 17
        "nop\n");                // 18
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph g = buildCallGraph(cfg);
    size_t f = funcNamed(g, "f");
    ASSERT_NE(f, kNoFunc);
    EXPECT_EQ(g.functions[f].entries, (std::vector<size_t>{11, 12}));
    bool retargeted = false;
    for (const CallSite &s : g.sites)
        if (s.resolved() && s.callee == f && s.entered == 12)
            retargeted = true;
    EXPECT_TRUE(retargeted);
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::CC003), 0u) << dump(report, u);
}

TEST(Golden, Cc004ArgumentRegisterUndefinedAtSite)
{
    Unit u = parseUnit(
        "call f, r15\n"       // no definition of r10 reaches this
        "nop\n"
        "halt\n"
        "f: add r10, #1, r1\n" // entry read of the argument register
        "st r1, 0(r14)\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::CC004), 1u) << dump(report, u);
    const Diagnostic *d = nullptr;
    for (const Diagnostic &x : report.diagnostics)
        if (x.code == Code::CC004)
            d = &x;
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::WARNING);
    EXPECT_EQ(d->item_index, 0u);
    EXPECT_NE(d->message.find("r10"), std::string::npos) << d->message;
}

TEST(Golden, Cc004SuppliedArgumentIsClean)
{
    Unit u = parseUnit(
        "movi #5, r10\n"
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: add r10, #1, r1\n"
        "st r1, 0(r14)\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::CC004), 0u) << dump(report, u);
}

TEST(Golden, Lt004InterprocedurallyDeadFunction)
{
    Unit u = parseUnit(
        "halt\n"
        "dead: movi #1, r1\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::LT004), 1u) << dump(report, u);
    const Diagnostic *d = nullptr;
    for (const Diagnostic &x : report.diagnostics)
        if (x.code == Code::LT004)
            d = &x;
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::WARNING);
    EXPECT_EQ(d->item_index, 1u);
    EXPECT_NE(d->message.find("dead"), std::string::npos) << d->message;
}

TEST(Golden, Lt004CalledFunctionIsLive)
{
    Unit u = parseUnit(
        "call dead, r15\n"
        "nop\n"
        "halt\n"
        "dead: movi #1, r1\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::LT004), 0u) << dump(report, u);
}

// ------------------------------------------------------- rendering

TEST(Render, JsonCarriesCallingConventionFinding)
{
    Unit u = parseUnit(
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: sub r14, #2, r14\n"
        "jmp (r15)\n"
        "nop\n");
    VerifyReport report = verifyUnit(u);
    std::string json = reportJson(report, "unit.s");
    EXPECT_NE(json.find("\"schema\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"code\": \"CC003\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"summary\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"CC003\": 1"), std::string::npos) << json;
}

// ------------------------------------------- reorganizer as oracle

TEST(Oracle, CorpusHasNoCallingConventionErrors)
{
    std::vector<workload::CorpusProgram> programs = workload::corpus();
    programs.push_back(workload::fibonacciProgram());
    programs.push_back(workload::puzzle0Program());
    programs.push_back(workload::puzzle1Program());
    for (const auto &program : programs) {
        auto exe = plc::buildExecutable(program.source);
        ASSERT_TRUE(exe.ok()) << program.name;
        VerifyReport report = verifyReorganization(
            exe.value().legal_unit, exe.value().final_unit);
        EXPECT_TRUE(report.clean())
            << program.name << ":\n"
            << dump(report, exe.value().final_unit);
        EXPECT_EQ(report.countOf(Code::CC001), 0u) << program.name;
        EXPECT_EQ(report.countOf(Code::CC002), 0u) << program.name;
        EXPECT_EQ(report.countOf(Code::CC003), 0u) << program.name;
        EXPECT_EQ(report.countOf(Code::CC004), 0u) << program.name;
        // LT004 is allowed: linked-but-unused runtime helpers
        // ($mul/$div/$mod) are genuinely dead code.
        for (const Diagnostic &d : report.diagnostics) {
            if (d.code == Code::LT004) {
                EXPECT_NE(d.message.find("$"), std::string::npos)
                    << program.name << ": " << d.message;
            }
        }
    }
}

} // namespace
} // namespace mips::verify
