/**
 * @file
 * Value-range analysis and memory-safety checker tests: the
 * abstract-vs-concrete ALU conformance sweep, interval containment
 * under symbolic inputs, the low-bits alignment lattice, the widening
 * operator, fixpoint entry seeding, one golden test per MS diagnostic
 * code with a clean twin, stack-depth rollups (chain, SCC, recursion),
 * text/JSON rendering, the simulator-oracle coverage matcher, and the
 * pipeline range-stage cache.
 */
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "isa/alu.h"
#include "pipeline/session.h"
#include "verify/cfg.h"
#include "verify/interproc.h"
#include "verify/memsafety.h"
#include "verify/valuerange.h"
#include "workload/corpus.h"

namespace mips::verify {
namespace {

using assembler::Unit;
using isa::AluOp;
using isa::AluPiece;
using isa::Src2;

Unit
parseUnit(std::string_view src)
{
    auto unit = assembler::parse(src);
    EXPECT_TRUE(unit.ok()) << (unit.ok() ? "" : unit.error().str());
    return unit.take();
}

size_t
countCode(const std::vector<Diagnostic> &diags, Code code)
{
    size_t n = 0;
    for (const Diagnostic &d : diags)
        if (d.code == code)
            ++n;
    return n;
}

const Diagnostic *
findCode(const std::vector<Diagnostic> &diags, Code code)
{
    for (const Diagnostic &d : diags)
        if (d.code == code)
            return &d;
    return nullptr;
}

/** Run the full static side on already-parsed asm: CFG, call graph,
 *  memory-safety checks. The unit must outlive the call. */
RangeReport
check(const Unit &u, DiagnosticEngine *diags,
      const RangeCheckOptions &options = {})
{
    Cfg cfg = buildCfg(u, nullptr);
    CallGraph g = buildCallGraph(cfg);
    return checkMemorySafety(cfg, g, options, "test", diags);
}

// ------------------------------------- ALU transfer conformance

/** Every opcode, over a grid of interesting concrete inputs: the
 *  abstract transfer of all-constant inputs must reproduce
 *  isa::evalAlu exactly (same write set, same values). */
TEST(AluRange, ConstantSweepMatchesEvalAlu)
{
    const uint32_t vals[] = {0,          1,          2,          15,
                             0x7f,       0xff,       0x8000,     0x7fffffff,
                             0x80000000, 0xffffffff, 0x12345678};
    const uint32_t olds[] = {0, 0xa5, 0xffffffff};
    const uint32_t los[] = {0, 1, 3};
    size_t checked = 0;
    for (int op = 0; op < isa::kNumAluOps; ++op) {
        AluPiece piece;
        piece.op = static_cast<AluOp>(op);
        piece.rd = static_cast<isa::Reg>(2);
        piece.rs = static_cast<isa::Reg>(1);
        piece.src2 = Src2::fromReg(static_cast<isa::Reg>(3));
        piece.cond = isa::Cond::LT; // exercised by SET only
        piece.imm8 = 0xc3;          // exercised by MOVI8 only
        for (uint32_t rs : vals) {
            for (uint32_t s2 : vals) {
                for (uint32_t old : olds) {
                    for (uint32_t lo : los) {
                        isa::AluOutputs want = isa::evalAlu(
                            piece, {rs, s2, old, lo});
                        AluRangeResult got = evalAluRange(
                            piece, AbsVal::constant(rs),
                            AbsVal::constant(s2), AbsVal::constant(old),
                            AbsVal::constant(lo));
                        ASSERT_EQ(got.writes_rd, want.writes_rd);
                        ASSERT_EQ(got.writes_lo, want.writes_lo);
                        if (want.writes_rd) {
                            ASSERT_EQ(got.rd.asConst(),
                                      std::optional<uint32_t>(want.rd))
                                << "op " << op << " rs " << rs
                                << " src2 " << s2;
                        }
                        if (want.writes_lo) {
                            ASSERT_EQ(got.lo.asConst(),
                                      std::optional<uint32_t>(want.lo))
                                << "op " << op;
                        }
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 17u * 11 * 11 * 3 * 3);
}

/** With a genuine interval input, the abstract result must contain
 *  every concrete outcome of the swept values (soundness). */
TEST(AluRange, IntervalResultContainsConcreteSweep)
{
    AbsVal rs;
    rs.lo = 5;
    rs.hi = 9;
    const AluOp ops[] = {AluOp::ADD, AluOp::SUB, AluOp::RSUB,
                         AluOp::AND, AluOp::OR,  AluOp::XOR,
                         AluOp::NOT, AluOp::SLL, AluOp::SRL,
                         AluOp::SRA, AluOp::SET};
    for (AluOp op : ops) {
        AluPiece piece;
        piece.op = op;
        piece.rd = static_cast<isa::Reg>(2);
        piece.rs = static_cast<isa::Reg>(1);
        piece.src2 = Src2::fromImm(3);
        piece.cond = isa::Cond::ODD;
        AluRangeResult got = evalAluRange(piece, rs, AbsVal::constant(3),
                                          AbsVal::top(), AbsVal::top());
        ASSERT_TRUE(got.writes_rd);
        for (uint32_t v = 5; v <= 9; ++v) {
            isa::AluOutputs want = isa::evalAlu(piece, {v, 3, 0, 0});
            EXPECT_TRUE(got.rd.contains(want.rd))
                << "op " << static_cast<int>(op) << " rs " << v
                << " -> " << want.rd;
        }
    }
}

// ------------------------------------------- abstract value domain

TEST(AbsValDomain, JoinKeepsCommonLowBits)
{
    // 8 (0b1000) and 12 (0b1100) agree on their low two bits: the
    // join keeps word alignment provable while widening the interval.
    AbsVal j = joinVals(AbsVal::constant(8), AbsVal::constant(12));
    EXPECT_EQ(j.lo, 8);
    EXPECT_EQ(j.hi, 12);
    EXPECT_EQ(j.low_bits, 2);
    EXPECT_EQ(j.low_val, 0u);
    EXPECT_TRUE(j.contains(8));
    EXPECT_TRUE(j.contains(12));
    // Values inside the interval but off the congruence are excluded.
    EXPECT_FALSE(j.contains(9));

    // 8 and 9 disagree in bit 0: no alignment survives the join.
    AbsVal k = joinVals(AbsVal::constant(8), AbsVal::constant(9));
    EXPECT_EQ(k.low_bits, 0);

    // Joining a value with itself is the identity.
    EXPECT_EQ(joinVals(AbsVal::constant(7), AbsVal::constant(7)),
              AbsVal::constant(7));
}

TEST(AbsValDomain, WidenBlowsMovedBoundsOnly)
{
    AbsVal before;
    before.lo = 4;
    before.hi = 10;
    AbsVal grown = before;
    grown.hi = 12; // upper bound still climbing
    AbsVal w = widenVals(before, grown);
    EXPECT_TRUE(w.widened);
    EXPECT_EQ(w.lo, 4);        // stable bound survives
    EXPECT_EQ(w.hi, kWordMax); // moving bound is blown open

    // A stable state widens to itself, untainted.
    AbsVal s = widenVals(before, before);
    EXPECT_FALSE(s.widened);
    EXPECT_EQ(s.lo, 4);
    EXPECT_EQ(s.hi, 10);
}

// ------------------------------------------------ fixpoint seeding

TEST(RangeFixpoint, EntrySeedIsPostResetState)
{
    // The unit entry doubles as the exception vector; reset and
    // exception dispatch both clear the enables, so the entry's seed
    // must be the post-reset state even though the CFG marks it
    // unknown_pred (regression: an all-UNKNOWN seed there silenced
    // every flag-dependent check).
    Unit u = parseUnit(
        "ld @0x1FFFFF, r1\n"
        "nop\n"
        "halt\n");
    Cfg cfg = buildCfg(u, nullptr);
    ASSERT_TRUE(cfg.nodes[0].unknown_pred);
    RangeAnalysis ranges = analyzeValueRanges(cfg);
    ASSERT_TRUE(ranges.in[0].reachable);
    EXPECT_EQ(ranges.in[0].ovf_enable, Flag::NO);
    EXPECT_EQ(ranges.in[0].map_enable, Flag::NO);
    EXPECT_EQ(ranges.in[0].regs[0].asConst(),
              std::optional<uint32_t>(0u));
    EXPECT_TRUE(ranges.in[0].regs[5].isTop());
}

TEST(RangeFixpoint, LoopCounterWidensAndStaysSilent)
{
    Unit u = parseUnit(
        "add r0, #0, r1\n"        // r1 = 0
        "loop: add r1, #1, r1\n"
        "blt r1, #10, loop\n"
        "nop\n"
        "halt\n");
    Cfg cfg = buildCfg(u, nullptr);
    RangeAnalysis ranges = analyzeValueRanges(cfg);
    EXPECT_EQ(ranges.reachable_items, 5u);
    EXPECT_GE(ranges.widenings, 1u);
}

// ------------------------------------- golden findings per MS code

TEST(Golden, Ms001AbsoluteLoadOutOfBounds)
{
    Unit u = parseUnit(
        "ld @0x1FFFFF, r1\n"
        "nop\n"
        "halt\n");
    DiagnosticEngine diags(&u);
    RangeReport report = check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS001), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS001);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, 0u);
    EXPECT_EQ(report.must_findings + report.may_findings,
              diags.errorCount() + diags.warningCount());
}

TEST(Golden, Ms001HighestValidWordIsClean)
{
    Unit u = parseUnit(
        "ld @0xFFFFF, r1\n"
        "nop\n"
        "halt\n");
    DiagnosticEngine diags(&u);
    RangeReport report = check(u, &diags);
    EXPECT_EQ(diags.diagnostics().size(), 0u);
    EXPECT_EQ(report.checked_refs, 1u);
}

TEST(Golden, Ms001StraddlingIntervalIsMayWarning)
{
    Unit u = parseUnit(
        "ldi #0xFFFF8, r4\n"
        "nop\n"
        "ld @offs, r5\n"
        "nop\n"
        "and r5, #15, r5\n"
        "ld (r4+r5), r6\n"
        "halt\n"
        "offs: .word 12\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS001), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS001);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::WARNING);
}

TEST(Golden, Ms001MaskedIndexOnLowBaseIsClean)
{
    Unit u = parseUnit(
        "ldi #0x8000, r4\n"
        "nop\n"
        "ld @offs, r5\n"
        "nop\n"
        "and r5, #15, r5\n"
        "ld (r4+r5), r6\n"
        "halt\n"
        "offs: .word 12\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS001), 0u);
}

/** The assembler carries no element-size annotation, so MS002's
 *  ref_size == 32 precondition is set programmatically, the way the
 *  PL/C code generator records word-sized packed-array accesses. */
TEST(Golden, Ms002BaseShiftDiscardsLowIndexBits)
{
    Unit u = parseUnit(
        "add r0, #1, r2\n"      // index 1: low bit non-zero
        "ldi #0x100, r4\n"
        "nop\n"
        "ld (r4+r2>>1), r3\n"
        "halt\n");
    for (auto &item : u.items)
        if (!item.is_data && item.inst.mem() &&
            item.inst.mem()->mode == isa::MemMode::BASE_SHIFT)
            item.ref_size = 32;
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS002), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS002);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::ERROR);
}

TEST(Golden, Ms002AlignedIndexIsClean)
{
    Unit u = parseUnit(
        "add r0, #2, r2\n"      // index 2: low bit zero under >>1
        "ldi #0x100, r4\n"
        "nop\n"
        "ld (r4+r2>>1), r3\n"
        "halt\n");
    for (auto &item : u.items)
        if (!item.is_data && item.inst.mem() &&
            item.inst.mem()->mode == isa::MemMode::BASE_SHIFT)
            item.ref_size = 32;
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS002), 0u);
}

TEST(Golden, Ms003ReferenceIntoUnmappedGap)
{
    Unit u = parseUnit(
        "add r0, #8, r1\n"
        "mts r1, segbits\n"     // 2^15-word segments
        "ldi #0x41, r2\n"       // priv | map_enable
        "nop\n"
        "mts r2, sr\n"
        "ld @40000, r3\n"       // past the low segment's 32768 words
        "nop\n"
        "halt\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS003), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS003);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::ERROR);
}

TEST(Golden, Ms003LowSegmentReferenceIsClean)
{
    Unit u = parseUnit(
        "add r0, #8, r1\n"
        "mts r1, segbits\n"
        "ldi #0x41, r2\n"
        "nop\n"
        "mts r2, sr\n"
        "ld @100, r3\n"         // well inside the low segment
        "nop\n"
        "halt\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS003), 0u);
}

TEST(Golden, Ms004ProvableOverflowWithTrapsEnabled)
{
    Unit u = parseUnit(
        "ldi #0x11, r1\n"       // priv | ovf_enable
        "nop\n"
        "mts r1, sr\n"
        "ldi #0xFFFFF, r4\n"
        "nop\n"
        "sll r4, #11, r4\n"     // 0x7FFFF800
        "ldi #0x7FF, r5\n"
        "nop\n"
        "or r4, r5, r4\n"       // 0x7FFFFFFF
        "add r4, #1, r6\n"      // INT32_MAX + 1
        "halt\n");
    DiagnosticEngine diags(&u);
    RangeReport report = check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS004), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS004);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(report.checked_alu, 1u);
}

TEST(Golden, Ms004PossibleOverflowIsMayWarning)
{
    Unit u = parseUnit(
        "ldi #0x11, r1\n"
        "nop\n"
        "mts r1, sr\n"
        "ldi #0xFFFFF, r4\n"
        "nop\n"
        "sll r4, #11, r4\n"
        "ldi #0x7F8, r5\n"
        "nop\n"
        "or r4, r5, r4\n"       // 0x7FFFFFF8
        "ld @addend, r5\n"
        "nop\n"
        "and r5, #15, r5\n"     // [0, 15]: sum straddles INT32_MAX
        "add r4, r5, r6\n"
        "halt\n"
        "addend: .word 12\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS004), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS004);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::WARNING);
}

TEST(Golden, Ms004TrapsDisabledIsSilent)
{
    // Same provable overflow, but the enable bit stays at its
    // post-reset NO: the hardware does not trap, so nothing faults.
    Unit u = parseUnit(
        "ldi #0xFFFFF, r4\n"
        "nop\n"
        "sll r4, #11, r4\n"
        "ldi #0x7FF, r5\n"
        "nop\n"
        "or r4, r5, r4\n"
        "add r4, #1, r6\n"
        "halt\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS004), 0u);
}

TEST(Golden, Ms006EveryPathMustFault)
{
    Unit u = parseUnit(
        "ld @sel, r1\n"
        "nop\n"
        "beq r1, #0, left\n"
        "nop\n"
        "st r1, @0x100001\n"
        "halt\n"
        "left: st r1, @0x100002\n"
        "halt\n"
        "sel: .word 0\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS001), 2u);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS006), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS006);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, kNoItem); // unit-wide finding
}

TEST(Golden, Ms006OneCleanPathSuppressesIt)
{
    Unit u = parseUnit(
        "ld @sel, r1\n"
        "nop\n"
        "beq r1, #0, left\n"
        "nop\n"
        "st r1, @0x100001\n"
        "halt\n"
        "left: st r1, @100\n"   // this path exits cleanly
        "halt\n"
        "sel: .word 0\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS001), 1u);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS006), 0u);
}

TEST(Golden, Ms007TableFetchProvablyOutside)
{
    // Index 9 against a two-entry table: the fetch interval is
    // disjoint from the table region on every path.
    Unit u = parseUnit(
        "la tab, r2\n"
        "nop\n"
        "movi #9, r3\n"
        "jtab (r2+r3), tab\n"
        "nop\n"
        "nop\n"
        "tab: .word t0\n"
        ".word t1\n"
        "t0: halt\n"
        "t1: halt\n");
    DiagnosticEngine diags(&u);
    RangeReport report = check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS007), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS007);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::ERROR);
    EXPECT_EQ(d->item_index, 3u);
    EXPECT_GT(report.checked_refs, 0u);
}

TEST(Golden, Ms007StraddlingIndexIsMayWarning)
{
    // The join of {0} and {6} straddles the two-entry table: in
    // bounds on one path, out on the other — a MAY finding.
    Unit u = parseUnit(
        "la tab, r2\n"
        "nop\n"
        "movi #0, r3\n"
        "beq r1, #0, go\n"
        "nop\n"
        "movi #6, r3\n"
        "go: jtab (r2+r3), tab\n"
        "nop\n"
        "nop\n"
        "tab: .word t0\n"
        ".word t1\n"
        "t0: halt\n"
        "t1: halt\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS007), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS007);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, Severity::WARNING);
}

TEST(Golden, Ms007InBoundsIndexIsClean)
{
    Unit u = parseUnit(
        "la tab, r2\n"
        "nop\n"
        "movi #1, r3\n"
        "jtab (r2+r3), tab\n"
        "nop\n"
        "nop\n"
        "tab: .word t0\n"
        ".word t1\n"
        "t0: halt\n"
        "t1: halt\n");
    DiagnosticEngine diags(&u);
    RangeReport report = check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS007), 0u);
    EXPECT_GT(report.checked_refs, 0u); // the fetch was checked
}

// --------------------------------------------- stack depth (MS005)

const char *const kChainSource =
    "ldi #0x8000, r14\n"
    "nop\n"
    "call f1, r15\n"
    "nop\n"
    "halt\n"
    "f1: sub r14, #8, r14\n"
    "st r15, 0(r14)\n"
    "call f2, r15\n"
    "nop\n"
    "ld 0(r14), r15\n"
    "nop\n"
    "add r14, #8, r14\n"
    "jmp (r15)\n"
    "nop\n"
    "nop\n"
    "f2: sub r14, #8, r14\n"
    "st r15, 0(r14)\n"
    "call f3, r15\n"
    "nop\n"
    "ld 0(r14), r15\n"
    "nop\n"
    "add r14, #8, r14\n"
    "jmp (r15)\n"
    "nop\n"
    "nop\n"
    "f3: sub r14, #8, r14\n"
    "st r15, 0(r14)\n"
    "ld 0(r14), r15\n"
    "nop\n"
    "add r14, #8, r14\n"
    "jmp (r15)\n"
    "nop\n"
    "nop\n";

const StackDepthInfo *
stackNamed(const RangeReport &report, const std::string &name)
{
    for (const StackDepthInfo &s : report.stack)
        if (s.name == name)
            return &s;
    return nullptr;
}

TEST(StackDepth, CallChainRollsUpCalleeFirst)
{
    Unit u = parseUnit(kChainSource);
    RangeCheckOptions options;
    options.stack_budget = 16;
    DiagnosticEngine diags(&u);
    RangeReport report = check(u, &diags, options);
    const StackDepthInfo *f1 = stackNamed(report, "f1");
    const StackDepthInfo *f3 = stackNamed(report, "f3");
    ASSERT_NE(f1, nullptr);
    ASSERT_NE(f3, nullptr);
    EXPECT_TRUE(f1->known);
    EXPECT_EQ(f1->own_words, 8u);
    EXPECT_EQ(f1->rollup_words, 24u);
    EXPECT_EQ(f3->rollup_words, 8u);
    // Only f1's 24-word rollup exceeds the 16-word budget (f2 sits
    // exactly at it).
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS005), 1u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS005);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("'f1'"), std::string::npos) << d->message;
}

TEST(StackDepth, SufficientBudgetIsClean)
{
    Unit u = parseUnit(kChainSource);
    RangeCheckOptions options;
    options.stack_budget = 24;
    DiagnosticEngine diags(&u);
    check(u, &diags, options);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS005), 0u);
}

TEST(StackDepth, ZeroBudgetDisablesMs005)
{
    Unit u = parseUnit(kChainSource);
    DiagnosticEngine diags(&u);
    RangeReport report = check(u, &diags);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS005), 0u);
    // The rollup is still computed and reported.
    const StackDepthInfo *f1 = stackNamed(report, "f1");
    ASSERT_NE(f1, nullptr);
    EXPECT_EQ(f1->rollup_words, 24u);
}

// The chain above as legal code, through the reorganizer. It fills
// f1's and f2's call slots with the callee's `sub r14, #8, r14` and
// retargets each call one word into the callee. That slot adjustment
// is the callee's frame, so the depths equal the hand-scheduled ones.
TEST(StackDepth, RetargetedCallsKeepTheirDepth)
{
    const char *legal =
        "ldi #0x8000, r14\n"
        "call f1, r15\n"
        "halt\n"
        "f1: sub r14, #8, r14\n"
        "st r15, 0(r14)\n"
        "call f2, r15\n"
        "ld 0(r14), r15\n"
        "add r14, #8, r14\n"
        "jmp (r15)\n"
        "f2: sub r14, #8, r14\n"
        "st r15, 0(r14)\n"
        "call f3, r15\n"
        "ld 0(r14), r15\n"
        "add r14, #8, r14\n"
        "jmp (r15)\n"
        "f3: sub r14, #8, r14\n"
        "st r15, 0(r14)\n"
        "ld 0(r14), r15\n"
        "add r14, #8, r14\n"
        "jmp (r15)\n";
    pipeline::Session session;
    pipeline::StageOptions options;
    options.range.stack_budget = 16;
    auto range = session.valueRange(
        pipeline::Source(legal, pipeline::Language::ASSEMBLY), options);
    ASSERT_TRUE(range.ok()) << range.error().str();
    EXPECT_EQ(range.value()->reorg->stats.slots_filled_dup, 2u);

    const RangeReport &report = range.value()->report;
    const char *names[] = {"f1", "f2", "f3"};
    const uint64_t rollups[] = {24, 16, 8};
    for (int i = 0; i < 3; ++i) {
        const StackDepthInfo *s = stackNamed(report, names[i]);
        ASSERT_NE(s, nullptr) << names[i];
        EXPECT_TRUE(s->known) << names[i];
        EXPECT_EQ(s->own_words, 8u) << names[i];
        EXPECT_EQ(s->rollup_words, rollups[i]) << names[i];
    }
    const std::vector<Diagnostic> &diags = range.value()->diags;
    EXPECT_EQ(countCode(diags, Code::MS005), 1u);
    const Diagnostic *d = findCode(diags, Code::MS005);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("'f1'"), std::string::npos) << d->message;
}

TEST(StackDepth, MutualRecursionSccIsUnbounded)
{
    Unit u = parseUnit(
        "ldi #0x8000, r14\n"
        "nop\n"
        "call f, r15\n"
        "nop\n"
        "halt\n"
        "f: sub r14, #4, r14\n"
        "st r15, 0(r14)\n"
        "call g, r15\n"
        "nop\n"
        "ld 0(r14), r15\n"
        "nop\n"
        "add r14, #4, r14\n"
        "jmp (r15)\n"
        "nop\n"
        "nop\n"
        "g: sub r14, #4, r14\n"
        "st r15, 0(r14)\n"
        "call f, r15\n"         // back edge: f and g form one SCC
        "nop\n"
        "ld 0(r14), r15\n"
        "nop\n"
        "add r14, #4, r14\n"
        "jmp (r15)\n"
        "nop\n"
        "nop\n");
    RangeCheckOptions options;
    options.stack_budget = 1000;
    DiagnosticEngine diags(&u);
    RangeReport report = check(u, &diags, options);
    const StackDepthInfo *f = stackNamed(report, "f");
    const StackDepthInfo *g = stackNamed(report, "g");
    ASSERT_NE(f, nullptr);
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(f->unbounded);
    EXPECT_TRUE(g->unbounded);
    // No budget can satisfy a recursive worst case.
    EXPECT_EQ(countCode(diags.diagnostics(), Code::MS005), 2u);
    const Diagnostic *d = findCode(diags.diagnostics(), Code::MS005);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("unbounded"), std::string::npos)
        << d->message;
}

// ------------------------------------------------------- rendering

TEST(Render, TextReportCarriesFindingsAndStackTable)
{
    Unit u = parseUnit(kChainSource);
    RangeCheckOptions options;
    options.stack_budget = 16;
    RangeReport report = check(u, nullptr, options);
    std::string text = rangeText(report);
    EXPECT_NE(text.find("value-range report for test"),
              std::string::npos) << text;
    EXPECT_NE(text.find("1 must (errors)"), std::string::npos) << text;
    EXPECT_NE(text.find("stack budget: 16 words"), std::string::npos)
        << text;
    EXPECT_NE(text.find("f1"), std::string::npos) << text;
}

TEST(Render, JsonReportIsSchema1WithStackArray)
{
    Unit u = parseUnit(
        "ldi #0x8000, r14\n"
        "nop\n"
        "rec: sub r14, #4, r14\n"
        "call rec, r15\n"
        "nop\n"
        "halt\n");
    RangeCheckOptions options;
    options.stack_budget = 8;
    RangeReport report = check(u, nullptr, options);
    std::string json = rangeJson(report);
    EXPECT_NE(json.find("\"schema\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"stack_budget\": 8"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"unbounded\": true"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"rollup_words\": null"), std::string::npos)
        << json;

    // Without a budget the field renders as null, not zero.
    RangeReport unbudgeted = check(u, nullptr, {});
    EXPECT_NE(rangeJson(unbudgeted).find("\"stack_budget\": null"),
              std::string::npos);
}

// ------------------------------------------------ simulator oracle

TEST(Oracle, MustFindingCoversObservedAddressError)
{
    Unit u = parseUnit(
        "ld @0x1FFFFF, r1\n"
        "nop\n"
        "halt\n");
    DiagnosticEngine diags(&u);
    check(u, &diags);
    std::vector<ObservedFault> faults = {
        {kFaultAddressError, 0, 0x1FFFFF}};
    FaultCoverage cov =
        checkFaultCoverage(diags.diagnostics(), 0, u.items.size(),
                           faults);
    EXPECT_EQ(cov.events, 1u);
    EXPECT_EQ(cov.covered, 1u);
    EXPECT_TRUE(cov.ok());
}

TEST(Oracle, PageFaultsAreExempt)
{
    FaultCoverage cov = checkFaultCoverage({}, 0, 4,
                                           {{kFaultPageFault, 1, 0}});
    EXPECT_EQ(cov.exempt, 1u);
    EXPECT_TRUE(cov.ok());
    EXPECT_TRUE(cov.notes.empty());
}

TEST(Oracle, UncoveredEventFailsWithNote)
{
    // No findings at all: an observed address error is a hole in the
    // static analysis and must fail the gate loudly.
    FaultCoverage cov = checkFaultCoverage(
        {}, 0, 4, {{kFaultAddressError, 2, 0x100000}});
    EXPECT_FALSE(cov.ok());
    ASSERT_EQ(cov.notes.size(), 1u);
    EXPECT_NE(cov.notes[0].find("uncovered"), std::string::npos)
        << cov.notes[0];
}

// ------------------------------------------------- pipeline stage

TEST(RangeStage, SessionStageIsCached)
{
    pipeline::Session session;
    pipeline::StageOptions options;
    const std::string source = workload::fibonacciProgram().source;
    auto first = session.valueRange(source, options);
    ASSERT_TRUE(first.ok()) << first.error().str();
    auto second = session.valueRange(source, options);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value().get(), second.value().get());
    pipeline::PipelineStats stats = session.stats();
    size_t range = static_cast<size_t>(pipeline::Stage::VALUE_RANGE);
    EXPECT_EQ(stats.stage[range].misses, 1u);
    EXPECT_GE(stats.stage[range].hits, 1u);
    // Distinct analysis knobs key distinct artifacts.
    options.range.stack_budget = 64;
    auto third = session.valueRange(source, options);
    ASSERT_TRUE(third.ok());
    EXPECT_NE(first.value().get(), third.value().get());
    EXPECT_EQ(third.value()->report.stack_budget, 64u);
}

TEST(RangeStage, CleanCorpusHasNoMustFindings)
{
    pipeline::Session session;
    std::vector<workload::CorpusProgram> programs = workload::corpus();
    pipeline::ChainSpec spec;
    spec.value_range = true;
    std::vector<pipeline::ChainResult> results = pipeline::runAll(
        session, programs, spec, pipeline::StageOptions{}, 4);
    ASSERT_EQ(results.size(), programs.size());
    for (const pipeline::ChainResult &r : results) {
        ASSERT_TRUE(r.ok()) << r.name << ": " << r.error;
        ASSERT_NE(r.range, nullptr) << r.name;
        EXPECT_EQ(r.range->report.must_findings, 0u) << r.name;
        EXPECT_GT(r.range->report.reachable_items, 0u) << r.name;
    }
}

} // namespace
} // namespace mips::verify
