/**
 * @file
 * Static verifier tests: CFG shape, the dataflow framework, one golden
 * test per diagnostic code, clean verification of reorganizer output
 * across the workload corpus, and differential mutation tests showing
 * the verifier has no false negatives on injected hazards.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "asm/assembler.h"
#include "plc/driver.h"
#include "reorg/reorganizer.h"
#include "sim/machine.h"
#include "verify/cfg.h"
#include "verify/dataflow.h"
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

/** First diagnostic carrying `code`, or nullptr. */
const Diagnostic *
find(const VerifyReport &report, Code code)
{
    for (const Diagnostic &d : report.diagnostics)
        if (d.code == code)
            return &d;
    return nullptr;
}

std::string
dump(const VerifyReport &report, const Unit &unit)
{
    return reportText(report, unit, "test");
}

// ----------------------------------------------------------------- CFG

/** An edge list of the CFG as a vector, for EXPECT_EQ. */
std::vector<size_t>
edges(std::span<const uint32_t> list)
{
    return {list.begin(), list.end()};
}

TEST(Cfg, BranchEdgesHangOffDelaySlot)
{
    Unit u = parseUnit(
        "beq r1, #0, out\n" // 0
        "add r2, #1, r2\n"  // 1: delay slot, executes on both paths
        "add r3, #1, r3\n"  // 2: fall-through only
        "out: halt\n");     // 3
    Cfg cfg = buildCfg(u, nullptr);
    EXPECT_EQ(edges(cfg.succs(0)), (std::vector<size_t>{1}));
    EXPECT_EQ(edges(cfg.succs(1)), (std::vector<size_t>{2, 3}));
    EXPECT_EQ(cfg.nodes[1].shadow, ShadowKind::BRANCH);
    EXPECT_EQ(cfg.nodes[1].shadow_owner, 0u);
    EXPECT_TRUE(cfg.succs(3).empty());
    EXPECT_FALSE(cfg.nodes[3].unknown_succ); // halt stops, cleanly
}

TEST(Cfg, UnconditionalBranchKillsFallThrough)
{
    Unit u = parseUnit(
        "bra out\n"         // 0
        "add r2, #1, r2\n"  // 1: slot
        "add r3, #1, r3\n"  // 2: unreachable
        "out: halt\n");     // 3
    Cfg cfg = buildCfg(u, nullptr);
    EXPECT_EQ(edges(cfg.succs(1)), (std::vector<size_t>{3}));
}

TEST(Cfg, IndirectJumpHasTwoSlotShadow)
{
    Unit u = parseUnit(
        "jmp (r15)\n"       // 0
        "add r2, #1, r2\n"  // 1
        "add r3, #1, r3\n"  // 2: last slot; target unknown
        "halt\n");          // 3
    Cfg cfg = buildCfg(u, nullptr);
    EXPECT_EQ(cfg.nodes[1].shadow, ShadowKind::INDIRECT);
    EXPECT_EQ(cfg.nodes[2].shadow, ShadowKind::INDIRECT);
    EXPECT_EQ(cfg.nodes[2].shadow_owner, 0u);
    EXPECT_TRUE(cfg.succs(2).empty());
    EXPECT_TRUE(cfg.nodes[2].unknown_succ);
}

TEST(Cfg, CallReturnPointHasUnknownPred)
{
    Unit u = parseUnit(
        "call f, r15\n"     // 0
        "add r2, #1, r2\n"  // 1: slot
        "add r3, #1, r3\n"  // 2: return resumes here
        "f: halt\n");       // 3
    Cfg cfg = buildCfg(u, nullptr);
    EXPECT_TRUE(cfg.nodes[1].unknown_succ);
    EXPECT_TRUE(cfg.nodes[2].unknown_pred);
}

TEST(Cfg, LocallyResolvedBranchLabelIsNotUnknownPred)
{
    // Regression: a label whose every reference is a resolved local
    // branch used to be treated as reachable from unknown code, which
    // poisoned forward analyses at every branch target. Its
    // predecessors are exactly the wired edges.
    Unit u = parseUnit(
        "beq r1, #0, out\n" // 0
        "nop\n"             // 1: slot carries the taken edge
        "add r3, #1, r3\n"  // 2: fall-through
        "out: halt\n");     // 3
    Cfg cfg = buildCfg(u, nullptr);
    EXPECT_FALSE(cfg.nodes[3].unknown_pred);
    EXPECT_EQ(edges(cfg.preds(3)), (std::vector<size_t>{1, 2}));
}

TEST(Cfg, AddressTakenBranchLabelKeepsUnknownPred)
{
    // The twin: the same branch target is also referenced as a memory
    // operand, so its address escapes and the conservative marking
    // must stay.
    Unit u = parseUnit(
        "ld @out, r5\n"     // 0: address of the label escapes
        "nop\n"             // 1
        "beq r1, #0, out\n" // 2
        "nop\n"             // 3
        "add r3, #1, r3\n"  // 4
        "out: halt\n");     // 5
    Cfg cfg = buildCfg(u, nullptr);
    EXPECT_TRUE(cfg.nodes[5].unknown_pred);
}

// ------------------------------------------------------------ dataflow

TEST(Dataflow, LivenessStraightLine)
{
    Unit u = parseUnit(
        "add r1, #1, r2\n"  // 0
        "add r2, #1, r3\n"  // 1
        "halt\n");          // 2
    Cfg cfg = buildCfg(u, nullptr);
    DataflowSolution live = liveness(cfg);
    EXPECT_TRUE(live.in[0] & (1u << 1));   // r1 live at entry
    EXPECT_TRUE(live.out[0] & (1u << 2));  // r2 live after item 0
    EXPECT_FALSE(live.out[1] & (1u << 2)); // r2 dead after item 1
    EXPECT_FALSE(live.out[1] & (1u << 3)); // r3 never read: dead
}

TEST(Dataflow, LivenessAroundLoop)
{
    Unit u = parseUnit(
        "movi #10, r1\n"           // 0
        "loop: sub r1, #1, r1\n"   // 1
        "bne r1, #0, loop\n"       // 2
        "mov r0, r0\n"             // 3: slot
        "halt\n");                 // 4
    Cfg cfg = buildCfg(u, nullptr);
    DataflowSolution live = liveness(cfg);
    // r1 is live around the back edge.
    EXPECT_TRUE(live.in[1] & (1u << 1));
    EXPECT_TRUE(live.out[3] & (1u << 1));
}

TEST(Dataflow, DefiniteAssignmentMeetsOverPaths)
{
    Unit u = parseUnit(
        "movi #1, r1\n"       // 0
        "beq r1, #0, skip\n"  // 1
        "mov r0, r0\n"        // 2: slot
        "movi #2, r2\n"       // 3: taken path skips this write
        "skip: halt\n");      // 4
    Cfg cfg = buildCfg(u, nullptr);
    DataflowSolution da = definiteAssignment(cfg, 0);
    EXPECT_TRUE(da.in[4] & (1u << 1));  // r1 written on every path
    EXPECT_FALSE(da.in[4] & (1u << 2)); // r2 only on the fall-through
    EXPECT_TRUE(da.out[3] & (1u << 2));
}

// ---------------------------------------------- golden diagnostics

TEST(Golden, Hz001LoadDelayViolation)
{
    Unit u = parseUnit(
        "ld 0(r14), r2\n"
        "add r2, #1, r3\n"
        "st r3, 0(r14)\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::HZ001), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::HZ001);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, 1u);
    EXPECT_FALSE(report.clean());
}

TEST(Golden, Hz001AcrossTakenBranch)
{
    // The load sits in a branch delay slot's shadow... rather: the
    // branch redirects, but the load delay follows the *dynamic*
    // successor — the branch target reads the stale value.
    Unit u = parseUnit(
        "bra out\n"
        "ld 0(r14), r2\n"   // 1: delay slot load
        "halt\n"
        "out: add r2, #1, r3\n" // 3: dynamically next after the load
        "st r3, 0(r14)\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::HZ001), 1u) << dump(report, u);
    EXPECT_EQ(find(report, Code::HZ001)->item_index, 3u);
}

TEST(Golden, Hz001IsNoteInsideNoreorder)
{
    Unit u = parseUnit(
        ".noreorder\n"
        "ld 0(r14), r2\n"
        "add r2, #1, r3\n" // deliberate stale read: well defined
        "halt\n"
        ".reorder\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::HZ001), 1u) << dump(report, u);
    EXPECT_EQ(find(report, Code::HZ001)->severity, Severity::NOTE);
    EXPECT_TRUE(report.clean());
}

TEST(Golden, Hz002TransferInBranchDelaySlot)
{
    Unit u = parseUnit(
        "a: beq r1, #0, a\n"
        "bra a\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::HZ002), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::HZ002);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, 1u);
}

TEST(Golden, Hz002NeverTakenBranchInSlotIsFine)
{
    // A never-condition branch is a plain word; it cannot redirect.
    Unit u = parseUnit(
        "a: beq r1, #0, a\n"
        "mov r0, r0\n"
        "halt\n");
    isa::BranchPiece never;
    never.cond = isa::Cond::NEVER;
    u.items[1].inst = isa::Instruction::makeBranch(never);
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::HZ002), 0u) << dump(report, u);
}

TEST(Golden, Hz003TransferInIndirectShadow)
{
    Unit u = parseUnit(
        "jmp (r15)\n"
        "mov r0, r0\n"
        "a: bra a\n" // second shadow word still covered
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::HZ003), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::HZ003);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, 2u);
}

TEST(Golden, Hz004PackedDependence)
{
    Unit u = parseUnit(
        "add r1, #1, r2 | ld 0(r14), r2\n"
        "st r2, 0(r14)\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::HZ004), 1u) << dump(report, u);
    EXPECT_EQ(find(report, Code::HZ004)->severity, Severity::ERROR);
    EXPECT_EQ(find(report, Code::HZ004)->item_index, 0u);
}

TEST(Golden, Hz004IndependentPackIsClean)
{
    Unit u = parseUnit(
        "add r1, #1, r2 | ld 0(r14), r3\n"
        "st r2, 0(r14)\n"
        "st r3, 1(r14)\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::HZ004), 0u) << dump(report, u);
}

TEST(Golden, Hz005NoreorderRegionTampered)
{
    Unit legal = parseUnit(
        "movi #1, r1\n"
        ".noreorder\n"
        "movi #2, r2\n"
        "movi #3, r3\n"
        ".reorder\n"
        "st r1, 0(r14)\n"
        "st r2, 1(r14)\n"
        "st r3, 2(r14)\n"
        "halt\n");
    reorg::ReorgResult r = reorg::reorganize(legal);
    EXPECT_TRUE(verifyReorganization(legal, r.unit).clean());

    // Tamper with a fenced word: the verifier must notice.
    Unit tampered = r.unit;
    for (auto &item : tampered.items) {
        if (item.no_reorder && item.inst.alu()) {
            item.inst.alu()->imm8 = 9;
            break;
        }
    }
    VerifyReport report = verifyReorganization(legal, tampered);
    ASSERT_EQ(report.countOf(Code::HZ005), 1u) << dump(report, tampered);
    EXPECT_EQ(find(report, Code::HZ005)->severity, Severity::ERROR);

    // Drop the whole region: also an integrity failure.
    Unit dropped = r.unit;
    std::erase_if(dropped.items,
                  [](const assembler::Item &i) { return i.no_reorder; });
    EXPECT_GE(verifyReorganization(legal, dropped).countOf(Code::HZ005),
              1u);
}

TEST(Golden, Hz006LoadDelayEscapes)
{
    Unit u = parseUnit("ld 0(r14), r2\n"); // falls off the unit
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::HZ006), 1u) << dump(report, u);
    EXPECT_EQ(find(report, Code::HZ006)->severity, Severity::WARNING);
}

TEST(Golden, Lt001UninitializedRead)
{
    Unit u = parseUnit(
        "add r5, #1, r6\n"
        "st r6, 0(r14)\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_GE(report.countOf(Code::LT001), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::LT001);
    EXPECT_EQ(d->severity, Severity::WARNING);
    EXPECT_EQ(d->item_index, 0u);
    EXPECT_NE(d->message.find("r5"), std::string::npos);
    // Assumed-initialized registers are exempt (r14 above), and the
    // caller can widen the set.
    VerifyOptions options;
    options.assume_initialized |= 1u << 5;
    EXPECT_EQ(verifyUnit(u, options).countOf(Code::LT001), 0u);
}

TEST(Golden, Lt002DeadStore)
{
    Unit u = parseUnit(
        "movi #1, r2\n"
        "movi #2, r2\n" // kills the first write; first is dead
        "st r2, 0(r14)\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::LT002), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::LT002);
    EXPECT_EQ(d->severity, Severity::WARNING);
    EXPECT_EQ(d->item_index, 0u);
}

TEST(Golden, Lt003UnreachableCode)
{
    Unit u = parseUnit(
        "bra out\n"
        "mov r0, r0\n"     // slot
        "add r1, #1, r1\n" // skipped by the unconditional branch
        "add r2, #1, r2\n"
        "out: halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::LT003), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::LT003);
    EXPECT_EQ(d->severity, Severity::WARNING);
    EXPECT_EQ(d->item_index, 2u); // start of the unreachable run
}

TEST(Golden, Vf001InvalidWord)
{
    // Construct an illegal word directly: an ALU piece beside a branch.
    Unit u = parseUnit("halt\n");
    assembler::Item bad;
    bad.inst = isa::Instruction::makeBranch({});
    bad.inst.setAlu(isa::AluPiece{});
    u.items.insert(u.items.begin(), bad);
    VerifyReport report = verifyUnit(u);
    ASSERT_GE(report.countOf(Code::VF001), 1u) << dump(report, u);
    EXPECT_EQ(find(report, Code::VF001)->severity, Severity::ERROR);
}

TEST(Golden, Vf002UndefinedLabel)
{
    Unit u = parseUnit(
        "bra nowhere\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::VF002), 1u) << dump(report, u);
    EXPECT_EQ(find(report, Code::VF002)->severity, Severity::ERROR);
}

TEST(Golden, Vf005DuplicateLabel)
{
    // Parses, but does not link. The second definition is reported;
    // the branch still resolves to the first.
    Unit u = parseUnit(
        "a: add r0, #1, r1\n" // 0
        "bra b\n"             // 1
        "nop\n"               // 2: slot
        "b: halt\n"           // 3
        "b: halt\n");         // 4
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::VF005), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::VF005);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, 4u);
    EXPECT_FALSE(report.clean());
    Cfg cfg = buildCfg(u, nullptr);
    EXPECT_EQ(cfg.labelItem(u.labels.find("b")), 3u);
    EXPECT_EQ(edges(cfg.succs(2)), (std::vector<size_t>{3}));
}

TEST(Golden, Vf005DuplicateTrailingLabel)
{
    Unit u = parseUnit(
        "end: halt\n"
        "end:\n");
    ASSERT_NE(u.trailing, assembler::kNoLabel);
    EXPECT_EQ(u.labels.name(u.trailing), "end");
    EXPECT_EQ(u.labels.next(u.trailing), assembler::kNoLabel);
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::VF005), 1u) << dump(report, u);
    EXPECT_EQ(find(report, Code::VF005)->item_index, kNoItem);
}

/** A well-formed two-entry jump-table dispatch unit. */
Unit
tableUnit()
{
    return parseUnit(
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
}

TEST(Golden, Vf003TableDispatchWithoutLabel)
{
    Unit u = parseUnit(
        "jtab (r2+r3)\n"
        "nop\n"
        "nop\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::VF003), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::VF003);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, 0u);
}

TEST(Golden, Vf003TableLabelIsNotAWordRun)
{
    Unit u = parseUnit(
        "la tab, r2\n"
        "nop\n"
        "movi #0, r3\n"
        "jtab (r2+r3), tab\n"
        "nop\n"
        "nop\n"
        "tab: halt\n"); // an instruction, not a .word run
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::VF003), 1u) << dump(report, u);
    EXPECT_EQ(find(report, Code::VF003)->severity, Severity::ERROR);
}

TEST(Golden, Vf004TableEntryResolvesToData)
{
    Unit u = parseUnit(
        "la tab, r2\n"
        "nop\n"
        "movi #0, r3\n"
        "jtab (r2+r3), tab\n"
        "nop\n"
        "nop\n"
        "tab: .word d\n"
        "d: .word 5\n"); // the entry lands on data, not code
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::VF004), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::VF004);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, 6u);
}

TEST(Golden, WellFormedTableIsClean)
{
    Unit u = tableUnit();
    VerifyReport report = verifyUnit(u);
    EXPECT_EQ(report.countOf(Code::VF003), 0u) << dump(report, u);
    EXPECT_EQ(report.countOf(Code::VF004), 0u) << dump(report, u);
    EXPECT_EQ(report.countOf(Code::HZ007), 0u) << dump(report, u);
    // The table recovery feeds the successor sets: both targets are
    // reachable, so neither arm is flagged unreachable.
    EXPECT_EQ(report.countOf(Code::LT003), 0u) << dump(report, u);
}

TEST(Golden, Hz007StoreInTableDispatchShadow)
{
    Unit u = parseUnit(
        "la tab, r2\n"
        "nop\n"
        "movi #0, r3\n"
        "jtab (r2+r3), tab\n"
        "st r3, 0(r14)\n" // races the table fetch on the data port
        "nop\n"
        "tab: .word t0\n"
        ".word t1\n"
        "t0: halt\n"
        "t1: halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::HZ007), 1u) << dump(report, u);
    const Diagnostic *d = find(report, Code::HZ007);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, 4u);
}

TEST(Golden, Hz007IsNoteInsideNoreorder)
{
    Unit u = parseUnit(
        "la tab, r2\n"
        "nop\n"
        "movi #0, r3\n"
        ".noreorder\n"
        "jtab (r2+r3), tab\n"
        "st r3, 0(r14)\n" // deliberate: fenced, author's choice
        "nop\n"
        ".reorder\n"
        "tab: .word t0\n"
        ".word t1\n"
        "t0: halt\n"
        "t1: halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_EQ(report.countOf(Code::HZ007), 1u) << dump(report, u);
    EXPECT_EQ(find(report, Code::HZ007)->severity, Severity::NOTE);
}

// ------------------------------------------------------- rendering

TEST(Render, TextAndJsonCarryTheFinding)
{
    Unit u = parseUnit(
        "ld 0(r14), r2\n"
        "add r2, #1, r3\n"
        "st r3, 0(r14)\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    std::string text = reportText(report, u, "unit.s");
    EXPECT_NE(text.find("HZ001"), std::string::npos) << text;
    EXPECT_NE(text.find("error"), std::string::npos) << text;
    EXPECT_NE(text.find("unit.s"), std::string::npos) << text;

    std::string json = reportJson(report, "unit.s");
    EXPECT_NE(json.find("\"code\": \"HZ001\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
}

TEST(Render, TableDiagnosticsCarryTheirCodes)
{
    Unit u = parseUnit(
        "jtab (r2+r3)\n"
        "st r3, 0(r14)\n" // store in the dispatch shadow: HZ007
        "nop\n"
        "halt\n");
    VerifyReport report = verifyUnit(u);
    ASSERT_GE(report.countOf(Code::VF003), 1u) << dump(report, u);
    ASSERT_GE(report.countOf(Code::HZ007), 1u) << dump(report, u);

    std::string text = reportText(report, u, "table.s");
    EXPECT_NE(text.find("VF003"), std::string::npos) << text;
    EXPECT_NE(text.find("HZ007"), std::string::npos) << text;

    std::string json = reportJson(report, "table.s");
    EXPECT_NE(json.find("\"code\": \"VF003\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"code\": \"HZ007\""), std::string::npos)
        << json;
}

// ------------------------------------------- reorganizer as oracle

TEST(Oracle, ReorganizedHazardfulCodeVerifiesClean)
{
    Unit legal = parseUnit(
        "li #500, r13\n"
        "movi #41, r1\n"
        "st r1, 0(r13)\n"
        "ld 0(r13), r2\n"
        "add r2, #1, r3\n"
        "st r3, 1(r13)\n"
        "ld 1(r13), r4\n"
        "add r4, r2, r5\n"
        "st r5, 2(r13)\n"
        "halt\n");
    for (bool reorder : {false, true})
        for (bool pack : {false, true})
            for (bool fill : {false, true}) {
                reorg::ReorgOptions opts;
                opts.reorder = reorder;
                opts.pack = pack;
                opts.fill_delay = fill;
                reorg::ReorgResult r = reorg::reorganize(legal, opts);
                VerifyReport report =
                    verifyReorganization(legal, r.unit);
                EXPECT_TRUE(report.clean()) << dump(report, r.unit);
            }
}

TEST(Oracle, WholeCorpusVerifiesClean)
{
    std::vector<workload::CorpusProgram> programs = workload::corpus();
    for (const workload::CorpusProgram &p : workload::dispatchCorpus())
        programs.push_back(p);
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
    }
}

// ------------------------------------------------ mutation tests

/** The straight-line hazardful program used for mutation testing. */
Unit
mutationSubject()
{
    return parseUnit(
        "li #500, r13\n"
        "movi #41, r1\n"
        "st r1, 0(r13)\n"
        "ld 0(r13), r2\n"
        "add r2, #1, r3\n"
        "st r3, 1(r13)\n"
        "ld 1(r13), r4\n"
        "add r4, r2, r5\n"
        "st r5, 2(r13)\n"
        "halt\n");
}

TEST(Mutation, DroppedNoopsAreCaught)
{
    // Legalize with pure no-op insertion, then delete the inserted
    // no-ops one at a time. Any drop that changes the pipeline result
    // relative to the sequential oracle must be flagged as an error:
    // the verifier may overapproximate but must not miss.
    Unit legal = mutationSubject();
    reorg::ReorgOptions opts;
    opts.reorder = false;
    opts.pack = false;
    opts.fill_delay = false;
    reorg::ReorgResult r = reorg::reorganize(legal, opts);
    ASSERT_TRUE(verifyReorganization(legal, r.unit).clean());

    sim::FunctionalRun oracle =
        sim::runFunctional(assembler::link(legal).take());
    ASSERT_EQ(oracle.reason, sim::StopReason::HALT);

    size_t divergent = 0;
    for (size_t i = 0; i < r.unit.items.size(); ++i) {
        const assembler::Item &item = r.unit.items[i];
        if (item.is_data || !item.inst.isNop())
            continue;
        Unit mutant = r.unit;
        mutant.items.erase(mutant.items.begin() +
                           static_cast<ptrdiff_t>(i));
        assembler::locateLabels(&mutant);

        auto linked = assembler::link(mutant);
        ASSERT_TRUE(linked.ok());
        sim::Machine m;
        m.load(linked.take());
        bool diverged = m.cpu().run(1'000'000) != sim::StopReason::HALT;
        for (int reg = 0; !diverged && reg < isa::kNumRegs; ++reg)
            diverged = m.cpu().reg(reg) != oracle.cpu->reg(reg);
        for (uint32_t a = 500; !diverged && a < 504; ++a)
            diverged = m.memory().peek(a) != oracle.memory->peek(a);
        if (!diverged)
            continue;
        ++divergent;
        VerifyReport report = verifyUnit(mutant);
        EXPECT_FALSE(report.clean())
            << "dropped no-op at " << i
            << " diverged but verified clean:\n"
            << assembler::listUnit(mutant);
    }
    // The property must not hold vacuously.
    EXPECT_GE(divergent, 1u);
}

TEST(Mutation, TransferSwappedIntoDelaySlotIsCaught)
{
    // Fill branch delay slots, then replace each filled slot with a
    // branch: the verifier must flag every such mutant.
    Unit legal = parseUnit(
        "li #500, r13\n"
        "movi #5, r1\n"
        "movi #0, r2\n"
        "loop: add r2, r1, r2\n"
        "sub r1, #1, r1\n"
        "bne r1, #0, loop\n"
        "st r2, 0(r13)\n"
        "halt\n");
    reorg::ReorgResult r = reorg::reorganize(legal);
    ASSERT_TRUE(verifyReorganization(legal, r.unit).clean());

    Cfg cfg = buildCfg(r.unit, nullptr);
    size_t mutated = 0;
    for (size_t i = 0; i < cfg.size(); ++i) {
        if (cfg.nodes[i].shadow == ShadowKind::NONE ||
            r.unit.items[i].is_data) {
            continue;
        }
        Unit mutant = r.unit;
        mutant.items[i].inst = isa::Instruction::makeBranch({});
        mutant.items[i].target = mutant.labels.find("loop");
        ++mutated;
        VerifyReport report = verifyUnit(mutant);
        EXPECT_GE(report.countOf(Code::HZ002) +
                      report.countOf(Code::HZ003),
                  1u)
            << "slot " << i << " mutant verified clean:\n"
            << assembler::listUnit(mutant);
    }
    EXPECT_GE(mutated, 1u);
}

TEST(Mutation, LoadSwappedBelowConsumerIsCaught)
{
    // Move a load directly above its consumer (undoing the spacing the
    // reorganizer created): HZ001 must fire.
    Unit legal = mutationSubject();
    reorg::ReorgResult r = reorg::reorganize(legal);
    ASSERT_TRUE(verifyReorganization(legal, r.unit).clean());

    size_t mutated = 0;
    for (size_t i = 0; i < r.unit.items.size(); ++i) {
        const assembler::Item &load = r.unit.items[i];
        if (load.is_data || !load.inst.isLoad())
            continue;
        uint16_t rd_mask =
            static_cast<uint16_t>(1u << load.inst.mem()->rd);
        for (size_t j = i + 2; j < r.unit.items.size(); ++j) {
            const assembler::Item &use = r.unit.items[j];
            if (use.is_data ||
                !(isa::regUse(use.inst).gpr_reads & rd_mask)) {
                continue;
            }
            // Move the load to directly above its consumer, undoing
            // the spacing the reorganizer created.
            Unit mutant = r.unit;
            assembler::Item moved = mutant.items[i];
            mutant.items.erase(mutant.items.begin() +
                               static_cast<ptrdiff_t>(i));
            mutant.items.insert(mutant.items.begin() +
                                    static_cast<ptrdiff_t>(j - 1),
                                moved);
            assembler::locateLabels(&mutant);
            ++mutated;
            VerifyReport report = verifyUnit(mutant);
            EXPECT_GE(report.countOf(Code::HZ001), 1u)
                << "move " << i << " -> " << j - 1
                << " verified clean:\n" << assembler::listUnit(mutant);
            break;
        }
    }
    EXPECT_GE(mutated, 1u);
}

} // namespace
} // namespace mips::verify
