/**
 * @file
 * Reorganizer tests: dependence DAG construction, hazard
 * legalization, scheduling quality, piece packing, the three
 * branch-delay schemes, liveness analysis, and the central
 * differential property — legal code on the interlocked machine
 * equals reorganized code on the interlock-free pipeline — checked on
 * hand-written cases and on randomly generated programs.
 */
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "reorg/dag.h"
#include "reorg/reorganizer.h"
#include "sim/machine.h"
#include "support/rng.h"
#include "verify/cfg.h"
#include "verify/tv.h"
#include "verify/verify.h"

namespace mips::reorg {
namespace {

using assembler::Program;
using assembler::Unit;
using isa::Instruction;

Unit
parseUnit(std::string_view src)
{
    auto unit = assembler::parse(src);
    EXPECT_TRUE(unit.ok()) << (unit.ok() ? "" : unit.error().str());
    return unit.take();
}

/** Count no-op words in a unit. */
size_t
countNops(const Unit &unit)
{
    size_t n = 0;
    for (const auto &item : unit.items)
        if (!item.is_data && item.inst.isNop())
            ++n;
    return n;
}

/** Render for failure messages. */
std::string
listing(const Unit &unit)
{
    return assembler::listUnit(unit);
}

// ----------------------------------------------------------------- DAG

TEST(DagTest, RegisterDependences)
{
    Unit u = parseUnit(
        "add r1, #1, r2\n"   // 0
        "add r2, #1, r3\n"   // 1: RAW on r2
        "add r4, #1, r2\n"   // 2: WAW on r2 with 0, WAR with 1
        "add r5, #1, r6\n"); // 3: independent
    Dag dag(u.items);
    EXPECT_TRUE(dag.hasEdge(0, 1));
    EXPECT_TRUE(dag.hasEdge(0, 2));
    EXPECT_TRUE(dag.hasEdge(1, 2));
    EXPECT_FALSE(dag.hasEdge(0, 3));
    EXPECT_FALSE(dag.hasEdge(1, 3));
    EXPECT_FALSE(dag.hasEdge(2, 3));
    EXPECT_EQ(dag.nodes()[3].pred_count, 0);
}

TEST(DagTest, LoDependences)
{
    Unit u = parseUnit(
        "mtlo r1\n"      // 0 writes LO
        "ic r2, r3\n"    // 1 reads LO
        "mtlo r4\n");    // 2 writes LO: WAR with 1, WAW with 0
    Dag dag(u.items);
    EXPECT_TRUE(dag.hasEdge(0, 1));
    EXPECT_TRUE(dag.hasEdge(1, 2));
    EXPECT_TRUE(dag.hasEdge(0, 2));
}

TEST(DagTest, MemoryAliasing)
{
    Unit u = parseUnit(
        "st r1, @100\n"     // 0
        "ld @101, r2\n"     // 1: distinct absolute, no conflict
        "ld @100, r3\n"     // 2: same absolute as 0: conflict
        "st r4, 2(r5)\n"    // 3: unknown vs absolutes: conflict
        "ld 3(r5), r6\n");  // 4: same base r5 (never written),
                            //    different disp: no conflict with 3
    Dag dag(u.items);
    EXPECT_FALSE(dag.hasEdge(0, 1));
    EXPECT_TRUE(dag.hasEdge(0, 2));
    EXPECT_TRUE(dag.hasEdge(0, 3));
    EXPECT_TRUE(dag.hasEdge(1, 3) || dag.hasEdge(2, 3));
    EXPECT_FALSE(dag.hasEdge(3, 4));
}

TEST(DagTest, SameBaseDisambiguationNeedsStableBase)
{
    // The base register is redefined in the block, so displacement
    // disambiguation is unsound and the ops must conflict.
    Unit u = parseUnit(
        "st r1, 2(r5)\n"
        "add r5, #1, r5\n"
        "ld 3(r5), r6\n");
    Dag dag(u.items);
    EXPECT_TRUE(dag.hasEdge(0, 2));
}

TEST(DagTest, LoadsCommute)
{
    Unit u = parseUnit(
        "ld @100, r1\n"
        "ld @100, r2\n");
    Dag dag(u.items);
    EXPECT_FALSE(dag.hasEdge(0, 1));
}

TEST(DagTest, VolatileMmioConflictsAlways)
{
    Unit u = parseUnit(
        "st r1, @0xff000\n"
        "ld @0xff002, r2\n"); // both in the device window
    Dag dag(u.items);
    EXPECT_TRUE(dag.hasEdge(0, 1));
}

TEST(DagTest, SystemStateIsBarrier)
{
    Unit u = parseUnit(
        "add r1, #1, r1\n"
        "mfs sr, r2\n"
        "add r3, #1, r3\n");
    Dag dag(u.items);
    EXPECT_TRUE(dag.hasEdge(0, 1));
    EXPECT_TRUE(dag.hasEdge(1, 2));
}

// ----------------------------------------------- No-op legalization

TEST(Legalize, NopInsertedOnLoadUse)
{
    Unit u = parseUnit(
        "ld @100, r1\n"
        "add r1, #1, r2\n"
        "halt\n");
    ReorgOptions opts;
    opts.reorder = false;
    opts.pack = false;
    opts.fill_delay = false;
    ReorgResult r = reorganize(u, opts);
    ASSERT_EQ(r.unit.items.size(), 4u) << listing(r.unit);
    EXPECT_TRUE(r.unit.items[1].inst.isNop());
    EXPECT_EQ(r.stats.noops_inserted, 1u);
}

TEST(Legalize, BlindPaddingWithoutReorganization)
{
    // Without the reorganizer there is no dependence analysis, so the
    // load is padded even though the next instruction is independent;
    // the reorganization stage is what removes the no-op.
    Unit u = parseUnit(
        "ld @100, r1\n"
        "add r3, #1, r2\n"
        "halt\n");
    ReorgOptions opts;
    opts.reorder = false;
    ReorgResult r = reorganize(u, opts);
    EXPECT_EQ(countNops(r.unit), 1u) << listing(r.unit);

    ReorgResult scheduled = reorganize(u);
    EXPECT_EQ(countNops(scheduled.unit), 0u)
        << listing(scheduled.unit);
}

TEST(Legalize, BranchGetsDelayNops)
{
    Unit u = parseUnit(
        "l: add r1, #1, r1\n"
        "blt r1, #9, l\n"
        "halt\n");
    ReorgOptions opts;
    opts.reorder = false;
    opts.fill_delay = false;
    ReorgResult r = reorganize(u, opts);
    // add, blt, nop, halt
    ASSERT_EQ(r.unit.items.size(), 4u) << listing(r.unit);
    EXPECT_TRUE(r.unit.items[2].inst.isNop());
}

TEST(Legalize, IndirectJumpGetsTwoDelayNops)
{
    Unit u = parseUnit(
        "jmp (r15)\n"
        "x: halt\n");
    ReorgOptions opts;
    opts.reorder = false;
    opts.fill_delay = false;
    ReorgResult r = reorganize(u, opts);
    ASSERT_EQ(r.unit.items.size(), 4u) << listing(r.unit);
    EXPECT_TRUE(r.unit.items[1].inst.isNop());
    EXPECT_TRUE(r.unit.items[2].inst.isNop());
}

// ------------------------------------------------------- Scheduling

TEST(Schedule, IndependentInstructionCoversLoadDelay)
{
    Unit u = parseUnit(
        "ld @100, r1\n"
        "add r1, #1, r2\n"
        "add r5, #1, r6\n" // independent: can cover the delay
        "halt\n");
    ReorgOptions opts;
    opts.pack = false;
    ReorgResult r = reorganize(u, opts);
    EXPECT_EQ(countNops(r.unit), 0u) << listing(r.unit);
}

TEST(Schedule, NopWhenNothingMovable)
{
    Unit u = parseUnit(
        "ld @100, r1\n"
        "add r1, #1, r2\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    EXPECT_EQ(countNops(r.unit), 1u) << listing(r.unit);
}

TEST(Schedule, PackingMergesAluAndMem)
{
    Unit u = parseUnit(
        "add r1, #1, r2\n"
        "ld 3(r4), r5\n"  // independent of the add
        "halt\n");
    ReorgResult r = reorganize(u);
    EXPECT_EQ(r.stats.packed_words, 1u) << listing(r.unit);
    // add|ld merged, halt: 2 words.
    EXPECT_EQ(r.unit.items.size(), 2u);
    EXPECT_TRUE(r.unit.items[0].inst.alu() && r.unit.items[0].inst.mem());
}

TEST(Schedule, NoPackingWhenDependent)
{
    Unit u = parseUnit(
        "add r1, #1, r4\n"
        "ld 3(r4), r5\n"  // reads r4 written by the add
        "halt\n");
    ReorgResult r = reorganize(u);
    EXPECT_EQ(r.stats.packed_words, 0u) << listing(r.unit);
}

TEST(Schedule, NoPackingWhenFormatForbids)
{
    Unit u = parseUnit(
        "seteq r1, #1, r2\n" // SET is not packable
        "ld 3(r4), r5\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    EXPECT_EQ(r.stats.packed_words, 0u);
}

TEST(Schedule, PackingDisabledByOption)
{
    Unit u = parseUnit(
        "add r1, #1, r2\n"
        "ld 3(r4), r5\n"
        "halt\n");
    ReorgOptions opts;
    opts.pack = false;
    ReorgResult r = reorganize(u, opts);
    EXPECT_EQ(r.stats.packed_words, 0u);
    EXPECT_EQ(r.unit.items.size(), 3u);
}

TEST(Schedule, NoreorderRegionUntouched)
{
    Unit u = parseUnit(
        ".noreorder\n"
        "ld @100, r1\n"
        "add r1, #1, r2\n" // hazard, but the front end said hands off
        ".reorder\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    ASSERT_EQ(r.unit.items.size(), 3u) << listing(r.unit);
    EXPECT_FALSE(r.unit.items[1].inst.isNop());
}

TEST(Schedule, StoresStayOrderedWithAliasedLoads)
{
    Unit u = parseUnit(
        "st r1, @200\n"
        "ld @200, r2\n"
        "st r2, @201\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    // The ld/st chain cannot be reordered; a nop covers the delay.
    Program p = assembler::link(r.unit).take();
    sim::Machine m;
    m.load(p);
    m.cpu().setReg(1, 42);
    // Re-run manually: set r1 then execute.
    ASSERT_EQ(m.cpu().run(100), sim::StopReason::HALT);
    EXPECT_EQ(m.memory().peek(201), 42u);
}

// --------------------------------------------------- Delay filling

TEST(DelayFill, Scheme1MovesIndependentWordIntoSlot)
{
    Unit u = parseUnit(
        "l: add r1, #1, r1\n"
        "add r5, #1, r6\n"  // independent of the branch: movable
        "blt r1, #3, l\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    EXPECT_EQ(countNops(r.unit), 0u) << listing(r.unit);
    EXPECT_GE(r.stats.slots_filled_move, 1u);
}

TEST(DelayFill, Scheme1RespectsBranchDependence)
{
    // The only candidate computes the branch operand: not movable.
    Unit u = parseUnit(
        "x: add r1, #1, r1\n"
        "blt r1, #3, x\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    EXPECT_EQ(countNops(r.unit), 1u) << listing(r.unit);
    EXPECT_EQ(r.stats.slots_filled_move, 0u);
}

TEST(DelayFill, Scheme2DuplicatesLoopHead)
{
    // Unconditional backward branch: duplicate the target instruction
    // into the slot and branch past it.
    Unit u = parseUnit(
        "movi #100, r9\n"
        "loop: add r1, #1, r1\n"
        "beq r1, r9, out\n"
        "ld @300, r2\n"    // a load: scheme 1 cannot move it
        "bra loop\n"
        "out: halt\n");
    ReorgResult r = reorganize(u);
    EXPECT_GE(r.stats.slots_filled_dup, 1u) << listing(r.unit);
    // Semantics check below in the differential section; here check
    // the slot after "bra" is the duplicated add.
    Program p = assembler::link(r.unit).take();
    sim::FunctionalRun f = sim::runFunctional(p);
    // Functional semantics of the *output* differ from pipeline (the
    // output is pipeline-targeted); just ensure it linked and the
    // duplicate exists.
    size_t adds = 0;
    for (const auto &item : r.unit.items)
        if (!item.is_data && item.inst.alu() &&
            item.inst.alu()->op == isa::AluOp::ADD &&
            item.inst.alu()->rd == 1) {
            ++adds;
        }
    EXPECT_EQ(adds, 2u) << listing(r.unit);
}

TEST(DelayFill, Scheme3HoistsWhenDeadOnTakenPath)
{
    // Figure 4's situation: r2 is dead on the taken path (the target
    // block overwrites it), so the fall-through "sub" may sit in the
    // conditional branch's delay slot.
    Unit u = parseUnit(
        "ld 2(r13), r1\n"
        "ble r1, #1, l11\n"
        "sub r1, #1, r2\n"   // fall-through head; r2 dead at l11
        "st r2, 2(r13)\n"
        "halt\n"
        "l11: movi #0, r2\n" // kills r2
        "st r2, 3(r13)\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    EXPECT_GE(r.stats.slots_filled_hoist, 1u) << listing(r.unit);
}

TEST(DelayFill, Scheme3BlockedWhenLiveOnTakenPath)
{
    // Here the taken path *reads* r2: hoisting would corrupt it.
    Unit u = parseUnit(
        "ld 2(r13), r1\n"
        "ble r1, #1, l11\n"
        "sub r1, #1, r2\n"
        "st r2, 2(r13)\n"
        "halt\n"
        "l11: st r2, 3(r13)\n" // uses r2
        "halt\n");
    ReorgResult r = reorganize(u);
    EXPECT_EQ(r.stats.slots_filled_hoist, 0u) << listing(r.unit);
}

TEST(DelayFill, LoadsNeverEnterSlots)
{
    Unit u = parseUnit(
        "l: add r1, #1, r1\n"
        "ld @100, r6\n"     // independent but a load: not movable
        "blt r1, #3, l\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    for (size_t i = 0; i + 1 < r.unit.items.size(); ++i) {
        const auto &item = r.unit.items[i];
        if (!item.is_data && item.inst.branch()) {
            const auto &slot = r.unit.items[i + 1];
            EXPECT_FALSE(slot.inst.isLoad()) << listing(r.unit);
        }
    }
}

// ------------------------------------------------------- Liveness

TEST(LivenessTest, HaltBlockKillsEverything)
{
    Unit u = parseUnit(
        "add r1, #1, r2\n"
        "halt\n");
    auto lv = blockLiveIn(u);
    ASSERT_EQ(lv.size(), 1u);
    // r1 read, nothing else live (halt has no successors).
    EXPECT_EQ(lv[0].mask, 1u << 1);
}

TEST(LivenessTest, BranchMergesBothPaths)
{
    Unit u = parseUnit(
        "beq r1, #0, a\n"   // block 0: reads r1
        "mov r2, r4\n"      // block 1 (fallthrough): reads r2
        "halt\n"
        "a: mov r3, r4\n"   // block 2: reads r3
        "halt\n");
    auto lv = blockLiveIn(u);
    ASSERT_EQ(lv.size(), 3u);
    EXPECT_EQ(lv[0].mask, (1u << 1) | (1u << 2) | (1u << 3));
    EXPECT_EQ(lv[1].mask, 1u << 2);
    EXPECT_EQ(lv[2].mask, 1u << 3);
}

TEST(LivenessTest, LoopFixpoint)
{
    Unit u = parseUnit(
        "loop: add r1, r2, r1\n"
        "blt r1, r3, loop\n"
        "halt\n");
    auto lv = blockLiveIn(u);
    // r1, r2, r3 all live into the loop.
    EXPECT_EQ(lv[0].mask & 0xe, 0xeu);
}

// ------------------------------------------------ Differential tests

/** Link, run legal on functional machine and reorganized on pipeline,
 *  and compare registers and a memory window. */
void
expectEquivalent(const Unit &legal, const ReorgOptions &opts,
                 uint32_t mem_lo = 500, uint32_t mem_hi = 532,
                 const char *tag = "")
{
    Program ref = assembler::link(legal).take();
    sim::FunctionalRun f = sim::runFunctional(ref);
    ASSERT_EQ(f.reason, sim::StopReason::HALT)
        << tag << ": functional run failed: " << f.cpu->errorMessage();

    ReorgResult r = reorganize(legal, opts);

    // Static oracle: reorganized output must satisfy the software
    // interlock contract before we even run it.
    verify::VerifyReport vr = verify::verifyReorganization(legal, r.unit);
    EXPECT_TRUE(vr.clean())
        << tag << ": static verification failed:\n"
        << verify::reportText(vr, r.unit, "reorganized")
        << listing(r.unit);

    // Second static oracle: the translation validator must *prove* the
    // output equivalent — no errors and no unproven (TV090) regions.
    verify::TvOptions tvopts;
    tvopts.alias = opts.alias;
    verify::VerifyReport tv = verify::validateTranslation(
        legal, r.unit, r.hints, r.live_in, tvopts);
    EXPECT_TRUE(tv.clean() && tv.notes == 0)
        << tag << ": translation validation failed:\n"
        << verify::reportText(tv, r.unit, "reorganized")
        << listing(r.unit);

    Program p = assembler::link(r.unit).take();
    sim::Machine m;
    m.load(p);
    ASSERT_EQ(m.cpu().run(10'000'000), sim::StopReason::HALT)
        << tag << ": pipeline run failed: " << m.cpu().errorMessage()
        << "\n" << listing(r.unit);

    for (int reg = 0; reg < isa::kNumRegs; ++reg) {
        if (reg == isa::kLinkReg)
            continue; // link values legitimately differ (delay slots)
        EXPECT_EQ(m.cpu().reg(reg), f.cpu->reg(reg))
            << tag << ": r" << reg << "\n" << listing(r.unit);
    }
    for (uint32_t a = mem_lo; a < mem_hi; ++a) {
        EXPECT_EQ(m.memory().peek(a), f.memory->peek(a))
            << tag << ": mem[" << a << "]\n" << listing(r.unit);
    }
}

TEST(DifferentialReorg, HazardfulStraightLine)
{
    Unit u = parseUnit(
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
                ReorgOptions opts;
                opts.reorder = reorder;
                opts.pack = pack;
                opts.fill_delay = fill;
                expectEquivalent(u, opts);
            }
}

TEST(DifferentialReorg, LoopWithByteOps)
{
    // Uppercase four bytes of a packed word using xc/ic. The 0x20
    // bias exceeds the 4-bit inline constant, so it sits in r7.
    Unit u = parseUnit(
        "li #500, r13\n"
        "ld @data, r1\n"
        "st r1, 0(r13)\n"
        "movi #32, r7\n"
        "movi #0, r2\n"
        "loop: ld 0(r13), r3\n"
        "xc r2, r3, r4\n"
        "sub r4, r7, r4\n"
        "mtlo r2\n"
        "ic r4, r3\n"
        "st r3, 0(r13)\n"
        "add r2, #1, r2\n"
        "blt r2, #4, loop\n"
        "halt\n"
        "data: .word 0x64636261\n");
    expectEquivalent(u, ReorgOptions{});

    // And check the actual result: "abcd" - 0x20 each = "ABCD".
    ReorgResult r = reorganize(u);
    Program p = assembler::link(r.unit).take();
    sim::Machine m;
    m.load(p);
    ASSERT_EQ(m.cpu().run(100000), sim::StopReason::HALT);
    EXPECT_EQ(m.memory().peek(500), 0x44434241u);
}

TEST(DifferentialReorg, CallsAndReturns)
{
    Unit u = parseUnit(
        "li #500, r13\n"
        "movi #5, r1\n"
        "call double, r15\n"
        "mov r2, r3\n"
        "call double2, r15\n"
        "st r3, 0(r13)\n"
        "st r2, 1(r13)\n"
        "halt\n"
        "double: add r1, r1, r2\n"
        "jmp (r15)\n"
        "double2: add r3, r3, r2\n"
        "jmp (r15)\n");
    ReorgOptions opts;
    expectEquivalent(u, opts);
}

TEST(DifferentialReorg, Figure4Fragment)
{
    // The paper's Figure 4 code shape (with concrete layout): load,
    // conditional branch, arithmetic, stores, and a join.
    Unit u = parseUnit(
        "li #500, r13\n"
        "movi #7, r1\n"
        "st r1, 2(r13)\n"
        "ld 2(r13), r1\n"      // ld Z(ap), r0
        "ble r1, #1, l11\n"    // ble r0, #1, L11
        "sub r1, #1, r2\n"     // sub #1, r0, r2
        "st r2, 2(r13)\n"      // st r2, Z(sp)
        "ld 3(r13), r5\n"      // ld 3(sp), r5
        "add r5, r1, r5\n"     // add r5, r0
        "add r4, #1, r4\n"     // add #1, r4
        "bra l3\n"
        "l11: movi #0, r2\n"
        "st r2, 4(r13)\n"
        "l3: st r4, 5(r13)\n"
        "st r5, 6(r13)\n"
        "halt\n");
    expectEquivalent(u, ReorgOptions{});

    ReorgResult full = reorganize(u);
    ReorgOptions none;
    none.reorder = false;
    none.pack = false;
    none.fill_delay = false;
    ReorgResult base = reorganize(u, none);
    EXPECT_LT(full.unit.items.size(), base.unit.items.size());
}

/**
 * Random structured programs: straight-line segments of ALU and
 * memory traffic over a scratch window, bounded countdown loops, and
 * conditional skips. Terminating by construction. The reorganizer
 * must preserve semantics for every option combination.
 */
TEST(DifferentialReorg, RandomProgramsProperty)
{
    support::Rng rng(20260704);
    for (int trial = 0; trial < 60; ++trial) {
        std::string src;
        src += "li #500, r13\n";
        // Seed registers r1..r7 with small constants.
        for (int reg = 1; reg <= 7; ++reg)
            src += support::strprintf("movi #%d, r%d\n",
                                      static_cast<int>(rng.below(200)),
                                      reg);
        int label = 0;
        int segments = 2 + static_cast<int>(rng.below(4));
        for (int s = 0; s < segments; ++s) {
            switch (rng.below(3)) {
              case 0: { // straight-line mix
                int ops = 3 + static_cast<int>(rng.below(8));
                for (int k = 0; k < ops; ++k) {
                    int rd = 1 + static_cast<int>(rng.below(7));
                    int rs = 1 + static_cast<int>(rng.below(7));
                    int rt = 1 + static_cast<int>(rng.below(7));
                    switch (rng.below(6)) {
                      case 0:
                        src += support::strprintf(
                            "add r%d, r%d, r%d\n", rs, rt, rd);
                        break;
                      case 1:
                        src += support::strprintf(
                            "xor r%d, #%d, r%d\n", rs,
                            static_cast<int>(rng.below(16)), rd);
                        break;
                      case 2:
                        src += support::strprintf(
                            "st r%d, %d(r13)\n", rs,
                            static_cast<int>(rng.below(8)));
                        break;
                      case 3:
                        src += support::strprintf(
                            "ld %d(r13), r%d\n",
                            static_cast<int>(rng.below(8)), rd);
                        break;
                      case 4:
                        src += support::strprintf(
                            "seteq r%d, r%d, r%d\n", rs, rt, rd);
                        break;
                      default:
                        src += support::strprintf(
                            "sub r%d, r%d, r%d\n", rs, rt, rd);
                        break;
                    }
                }
                break;
              }
              case 1: { // bounded countdown loop (r8 dedicated)
                int iters = 1 + static_cast<int>(rng.below(6));
                int rd = 1 + static_cast<int>(rng.below(7));
                src += support::strprintf("movi #%d, r8\n", iters);
                src += support::strprintf("loop%d:\n", label);
                src += support::strprintf("add r%d, #1, r%d\n", rd, rd);
                src += support::strprintf(
                    "st r%d, %d(r13)\n", rd,
                    static_cast<int>(rng.below(8)));
                src += "sub r8, #1, r8\n";
                src += support::strprintf("bgt r8, #0, loop%d\n",
                                          label);
                ++label;
                break;
              }
              default: { // conditional skip
                int rs = 1 + static_cast<int>(rng.below(7));
                src += support::strprintf("bodd r%d, #0, skip%d\n",
                                          rs, label);
                int ops = 1 + static_cast<int>(rng.below(4));
                for (int k = 0; k < ops; ++k) {
                    int rd = 1 + static_cast<int>(rng.below(7));
                    src += support::strprintf("add r%d, #3, r%d\n",
                                              rd, rd);
                }
                src += support::strprintf("skip%d:\n", label);
                ++label;
                break;
              }
            }
        }
        // Dump all registers for comparison.
        for (int reg = 1; reg <= 8; ++reg)
            src += support::strprintf("st r%d, %d(r13)\n", reg,
                                      16 + reg);
        src += "halt\n";

        Unit u = parseUnit(src);
        ReorgOptions opts;
        opts.reorder = rng.chance(0.8);
        opts.pack = rng.chance(0.8);
        opts.fill_delay = rng.chance(0.8);
        expectEquivalent(u, opts, 500, 532,
                         support::strprintf("trial %d", trial).c_str());
    }
}

TEST(ReorgStatsTest, StagesImproveMonotonically)
{
    // A loop-heavy program: each added stage must not increase size.
    Unit u = parseUnit(
        "li #500, r13\n"
        "movi #0, r1\n"
        "movi #0, r2\n"
        "outer: ld 0(r13), r3\n"
        "add r3, r1, r3\n"
        "st r3, 0(r13)\n"
        "ld 1(r13), r4\n"
        "add r4, #1, r4\n"
        "st r4, 1(r13)\n"
        "add r1, #1, r1\n"
        "blt r1, #10, outer\n"
        "halt\n");

    ReorgOptions none;
    none.reorder = false;
    none.pack = false;
    none.fill_delay = false;
    ReorgOptions reorder = none;
    reorder.reorder = true;
    ReorgOptions pack = reorder;
    pack.pack = true;
    ReorgOptions full = pack;
    full.fill_delay = true;

    size_t s0 = reorganize(u, none).unit.items.size();
    size_t s1 = reorganize(u, reorder).unit.items.size();
    size_t s2 = reorganize(u, pack).unit.items.size();
    size_t s3 = reorganize(u, full).unit.items.size();
    EXPECT_LE(s1, s0);
    EXPECT_LE(s2, s1);
    EXPECT_LE(s3, s2);
    EXPECT_LT(s3, s0); // overall there must be a real win
}

TEST(ReorgStatsTest, ImprovementOverBaseline)
{
    ReorgStats a, b;
    b.output_words = 100;
    a.output_words = 80;
    EXPECT_DOUBLE_EQ(a.improvementOver(b), 0.2);
}

// --------------------------------------------------------- Label ids

using assembler::kNoLabel;
using assembler::LabelId;

/** Scheme 2 duplicates `add r0, #3, r3` into the slot of `bra tgt`. */
const char *const kOneDuplication =
    "start: bra tgt\n"
    "       halt\n"
    "tgt:   add r0, #3, r3\n"
    "       add r3, #4, r4\n"
    "       halt\n";

TEST(LabelIds, SharedLabelsKeepIdsAndSchemeTwoLabelsFollow)
{
    Unit u = parseUnit(kOneDuplication);
    ReorgResult r = reorganize(u);
    ASSERT_EQ(r.stats.slots_filled_dup, 1u) << listing(r.unit);
    ASSERT_TRUE(r.unit.labels.extends(u.labels));

    // Every input label keeps its id and still names the output word
    // that carries it.
    for (LabelId id = 0; id < u.labels.size(); ++id) {
        uint32_t at = r.unit.labels.item(id);
        ASSERT_LT(at, r.unit.items.size()) << u.labels.name(id);
        bool carried = false;
        for (LabelId on : r.unit.labels.chain(r.unit.items[at].label))
            carried = carried || on == id;
        EXPECT_TRUE(carried) << u.labels.name(id);
    }

    ASSERT_EQ(r.hints.size(), 1u);
    const DupHint &h = r.hints[0];
    EXPECT_EQ(h.orig_label, u.labels.find("tgt"));
    EXPECT_GE(h.dup_label, u.labels.size());
    EXPECT_EQ(r.unit.labels.name(h.dup_label), "L$dup0");
    EXPECT_EQ(r.unit.items[0].target, h.dup_label);
    EXPECT_EQ(r.unit.labels.item(h.dup_label),
              r.unit.labels.item(h.orig_label) + 1);
}

TEST(LabelIds, SchemeTwoLabelSkipsANameTheInputDefines)
{
    // The input already defines L$dup0: the duplication must not
    // define it a second time (the unit would not link, and `bra tgt`
    // would reach the input's L$dup0).
    Unit u = parseUnit(
        "start:  bra tgt\n"
        "L$dup0: add r0, #2, r2\n"
        "        halt\n"
        "tgt:    add r0, #3, r3\n"
        "        add r3, #4, r4\n"
        "        halt\n");
    ASSERT_TRUE(assembler::link(u).ok());
    ReorgResult r = reorganize(u);
    ASSERT_EQ(r.stats.slots_filled_dup, 1u) << listing(r.unit);
    EXPECT_EQ(r.unit.labels.name(r.hints[0].dup_label), "L$dup1");
    auto linked = assembler::link(r.unit);
    ASSERT_TRUE(linked.ok()) << linked.error().str() << listing(r.unit);
    // expectEquivalent also has TV prove the output.
    expectEquivalent(u, ReorgOptions{}, 0, 0, "collision");
}

TEST(LabelIds, TwiceDefinedLabelResolvesToTheFirstEverywhere)
{
    // `b` is defined twice, with different first words. The unit does
    // not link, but the reorganizer, TV and the CFG must all send
    // `bra b` to the first definition, item 2.
    Unit u = parseUnit(
        "start: bra b\n"          // 0
        "       halt\n"           // 1
        "b:     add r0, #5, r5\n" // 2
        "       add r5, #1, r6\n" // 3
        "       halt\n"           // 4
        "b:     add r0, #6, r5\n" // 5
        "       add r5, #2, r6\n" // 6
        "       halt\n");         // 7
    LabelId b = u.labels.find("b");
    ASSERT_EQ(u.items[0].target, b);

    verify::Cfg cfg = verify::buildCfg(u, nullptr);
    EXPECT_EQ(cfg.labelItem(b), 2u);

    // Scheme 2 duplicates the first word of the block `b` starts.
    ReorgResult r = reorganize(u);
    ASSERT_EQ(r.stats.slots_filled_dup, 1u) << listing(r.unit);
    ASSERT_EQ(r.hints.size(), 1u);
    EXPECT_EQ(r.hints[0].orig_label, b);
    EXPECT_EQ(u.labels.item(r.hints[0].orig_label), 2u);
    const assembler::Item &slot = r.unit.items[1];
    ASSERT_TRUE(slot.inst.alu()) << listing(r.unit);
    EXPECT_TRUE(slot.inst == u.items[2].inst) << listing(r.unit);
    EXPECT_EQ(r.unit.labels.item(r.hints[0].dup_label),
              r.unit.labels.item(b) + 1);

    // TV replays the duplicated word from the same definition: a proof
    // with no errors and nothing left unproven.
    verify::VerifyReport tv = verify::validateTranslation(
        u, r.unit, r.hints, r.live_in);
    EXPECT_EQ(tv.errors, 0u)
        << verify::reportText(tv, r.unit, "reorganized");
    EXPECT_EQ(tv.notes, 0u)
        << verify::reportText(tv, r.unit, "reorganized");

    verify::Cfg out_cfg = verify::buildCfg(r.unit, nullptr);
    EXPECT_EQ(out_cfg.labelItem(b), r.unit.labels.item(b));
}

} // namespace
} // namespace mips::reorg
