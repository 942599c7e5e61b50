/**
 * @file
 * Simulator tests: surprise register, mapping unit, memory/devices,
 * pipeline hazard semantics (load delay, branch delay, indirect-jump
 * delay), exception sequencing (priorities, three return addresses,
 * restart), privilege enforcement, demand paging end-to-end, and the
 * functional-vs-pipeline differential property.
 */
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "sim/machine.h"
#include "support/rng.h"

namespace mips::sim {
namespace {

using assembler::assembleOrDie;
using assembler::Program;

// ------------------------------------------------------------- Surprise

TEST(SurpriseReg, PackUnpackRoundTrip)
{
    support::Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        Surprise s;
        s.supervisor = rng.chance(0.5);
        s.prev_supervisor = rng.chance(0.5);
        s.int_enable = rng.chance(0.5);
        s.prev_int_enable = rng.chance(0.5);
        s.ovf_enable = rng.chance(0.5);
        s.prev_ovf_enable = rng.chance(0.5);
        s.map_enable = rng.chance(0.5);
        s.prev_map_enable = rng.chance(0.5);
        s.cause = static_cast<Cause>(rng.below(9));
        s.detail = static_cast<uint16_t>(rng.below(4096));
        EXPECT_EQ(Surprise::unpack(s.pack()), s);
    }
}

TEST(SurpriseReg, EnterAndReturn)
{
    Surprise s;
    s.supervisor = false;
    s.int_enable = true;
    s.map_enable = true;
    s.ovf_enable = true;

    Surprise before = s;
    s.enterException(Cause::TRAP, 42);
    EXPECT_TRUE(s.supervisor);
    EXPECT_FALSE(s.int_enable);
    EXPECT_FALSE(s.map_enable);
    EXPECT_EQ(s.cause, Cause::TRAP);
    EXPECT_EQ(s.detail, 42);
    EXPECT_FALSE(s.prev_supervisor);
    EXPECT_TRUE(s.prev_int_enable);
    EXPECT_TRUE(s.prev_map_enable);

    s.returnFromException();
    EXPECT_EQ(s.supervisor, before.supervisor);
    EXPECT_EQ(s.int_enable, before.int_enable);
    EXPECT_EQ(s.map_enable, before.map_enable);
    EXPECT_EQ(s.ovf_enable, before.ovf_enable);
}

// ------------------------------------------------------------- Mapping

TEST(Mapping, FoldInsertsPid)
{
    MappingUnit mu;
    mu.configure(4, 5);
    // Window = 2^20 words, halves of 2^19.
    EXPECT_EQ(mu.halfWindowWords(), 1u << 19);

    auto low = mu.fold(0x123);
    ASSERT_TRUE(low.has_value());
    EXPECT_EQ(*low, (5u << 20) | 0x123);

    // Top-of-space addresses fold onto the top of the window.
    auto high = mu.fold(0xffffffff);
    ASSERT_TRUE(high.has_value());
    EXPECT_EQ(*high, (5u << 20) | 0xfffff);

    // Between the halves: invalid.
    EXPECT_FALSE(mu.fold(1u << 19).has_value());
    EXPECT_FALSE(mu.fold(0x80000000).has_value());
}

TEST(Mapping, FullSpaceWhenUnsegmented)
{
    MappingUnit mu;
    mu.configure(0, 0);
    EXPECT_EQ(mu.halfWindowWords(), 1u << 23);
    EXPECT_TRUE(mu.fold(0).has_value());
    EXPECT_TRUE(mu.fold((1u << 23) - 1).has_value());
    EXPECT_FALSE(mu.fold(1u << 23).has_value());
}

TEST(Mapping, TranslateResidentAndFaults)
{
    MappingUnit mu;
    mu.configure(2, 1);
    uint32_t sva = (1u << 22) | 0x123; // program addr 0x123 folds here

    // No entry yet: page fault.
    Translation t = mu.translate(0x123, false);
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.cause, Cause::PAGE_FAULT);

    mu.installPage(sva, 7);
    t = mu.translate(0x123, false);
    ASSERT_TRUE(t.ok);
    EXPECT_EQ(t.phys, (7u << kPageBits) | 0x123);

    // Write-protect.
    mu.installPage(sva, 7, true, false);
    EXPECT_TRUE(mu.translate(0x123, false).ok);
    EXPECT_FALSE(mu.translate(0x123, true).ok);

    // Evicted: fault again.
    mu.installPage(sva, 7);
    mu.evictPage(sva);
    EXPECT_FALSE(mu.translate(0x123, false).ok);

    // Address error between halves.
    t = mu.translate(1u << 21, false);
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.cause, Cause::ADDRESS_ERROR);
}

TEST(Mapping, UsageBits)
{
    MappingUnit mu;
    mu.configure(0, 0);
    mu.installPage(0, 0);
    mu.translate(5, false);
    ASSERT_NE(mu.findPage(0), nullptr);
    EXPECT_TRUE(mu.findPage(0)->referenced);
    EXPECT_FALSE(mu.findPage(0)->dirty);
    mu.translate(5, true);
    EXPECT_TRUE(mu.findPage(0)->dirty);
    mu.clearUsageBits();
    EXPECT_FALSE(mu.findPage(0)->referenced);
}

// ------------------------------------------------------------- Memory

TEST(Memory, ReadWriteAndImage)
{
    PhysMemory mem(1024);
    mem.write(5, 42);
    EXPECT_EQ(mem.read(5), 42u);
    mem.loadImage(10, {1, 2, 3});
    EXPECT_EQ(mem.peek(12), 3u);
    EXPECT_FALSE(mem.isMmio(5)); // window above this small memory
}

TEST(Memory, ConsoleDevice)
{
    PhysMemory mem;
    uint32_t out = kMmioBase +
        static_cast<uint32_t>(MmioReg::CONSOLE_OUT);
    mem.write(out, 'h');
    mem.write(out, 'i');
    EXPECT_EQ(mem.consoleOutput(), "hi");
    EXPECT_EQ(mem.read(kMmioBase +
              static_cast<uint32_t>(MmioReg::CONSOLE_STATUS)), 1u);
}

TEST(Memory, InterruptController)
{
    PhysMemory mem;
    EXPECT_FALSE(mem.interruptPending());
    mem.raiseDevice(3);
    mem.raiseDevice(7);
    EXPECT_TRUE(mem.interruptPending());
    uint32_t src = kMmioBase + static_cast<uint32_t>(MmioReg::INT_SOURCE);
    EXPECT_EQ(mem.read(src), 3u); // highest priority = lowest id
    mem.write(kMmioBase + static_cast<uint32_t>(MmioReg::INT_ACK), 3);
    EXPECT_EQ(mem.read(src), 7u);
    mem.write(kMmioBase + static_cast<uint32_t>(MmioReg::INT_ACK), 7);
    EXPECT_FALSE(mem.interruptPending());
}

TEST(Memory, UnwrittenWordsReadZero)
{
    // Two whole 1024-word pages and a partial third; nothing written.
    PhysMemory mem(2500);
    EXPECT_EQ(mem.size(), 2500u);
    EXPECT_TRUE(mem.valid(2499));
    EXPECT_FALSE(mem.valid(2500));
    for (uint32_t addr : {0u, 1023u, 1024u, 2047u, 2048u, 2499u}) {
        EXPECT_EQ(mem.read(addr), 0u) << addr;
        EXPECT_EQ(mem.peek(addr), 0u) << addr;
    }
    EXPECT_EQ(mem.residentPages(), 0u);

    // Absent pages of every memory share one zero page: a write to
    // one memory must not show through another.
    PhysMemory other(2500);
    other.write(1024, 9);
    EXPECT_EQ(mem.read(1024), 0u);
    EXPECT_EQ(mem.read(0), 0u);
}

TEST(Memory, PageStorageOnFirstChangingWrite)
{
    PhysMemory mem(2500);
    mem.write(1023, 0); // already 0: no storage
    mem.poke(2499, 0);
    EXPECT_EQ(mem.residentPages(), 0u);

    mem.write(1023, 7);
    EXPECT_EQ(mem.residentPages(), 1u);
    EXPECT_EQ(mem.read(1023), 7u);
    EXPECT_EQ(mem.read(1022), 0u); // the rest of the new page
    EXPECT_EQ(mem.read(1024), 0u); // the next page is still absent
    mem.write(0, 3);               // same page
    EXPECT_EQ(mem.residentPages(), 1u);

    mem.write(2499, 5); // the partial last page
    EXPECT_EQ(mem.residentPages(), 2u);
    EXPECT_EQ(mem.read(2499), 5u);
    EXPECT_EQ(mem.read(2048), 0u);

    mem.write(1023, 0); // back to 0: the page keeps its storage
    EXPECT_EQ(mem.read(1023), 0u);
    EXPECT_EQ(mem.residentPages(), 2u);
}

TEST(Memory, LoadImageAllocatesCoveredPagesOnly)
{
    PhysMemory mem(2500);
    mem.loadImage(1020, {1, 2, 3, 4, 5, 6, 7, 8}); // words 1020..1027
    EXPECT_EQ(mem.residentPages(), 2u);
    EXPECT_EQ(mem.peek(1019), 0u);
    EXPECT_EQ(mem.peek(1023), 4u);
    EXPECT_EQ(mem.peek(1024), 5u);
    EXPECT_EQ(mem.peek(1028), 0u);
    EXPECT_EQ(mem.peek(2048), 0u);
}

// ------------------------------------------- Pipeline basic execution

/** Run a program on the pipeline machine until halt. */
void
runPipeline(Machine &m, std::string_view src,
            uint64_t max_cycles = 100000)
{
    Program p = assembleOrDie(src);
    m.load(p);
    StopReason r = m.cpu().run(max_cycles);
    EXPECT_EQ(r, StopReason::HALT) << m.cpu().errorMessage();
}

TEST(Pipeline, ArithmeticEndToEnd)
{
    Machine m;
    runPipeline(m,
        "movi #10, r1\n"
        "add r1, #5, r2\n"
        "sub r2, r1, r3\n"
        "rsub r3, #1, r4\n" // r4 = 1 - 5 = -4
        "halt\n");
    EXPECT_EQ(m.cpu().reg(2), 15u);
    EXPECT_EQ(m.cpu().reg(3), 5u);
    EXPECT_EQ(m.cpu().reg(4), static_cast<uint32_t>(-4));
}

TEST(Pipeline, ZeroRegisterHardwired)
{
    Machine m;
    runPipeline(m,
        "movi #7, r0\n"
        "add r0, #3, r1\n"
        "halt\n");
    EXPECT_EQ(m.cpu().reg(0), 0u);
    EXPECT_EQ(m.cpu().reg(1), 3u);
}

TEST(Pipeline, AluResultBypassedToNextInstruction)
{
    Machine m;
    runPipeline(m,
        "movi #1, r1\n"
        "add r1, #1, r1\n" // sees 1 -> 2 (bypass)
        "add r1, #1, r1\n" // sees 2 -> 3
        "halt\n");
    EXPECT_EQ(m.cpu().reg(1), 3u);
}

// ------------------------------------------------- Hazard semantics

TEST(Pipeline, LoadDelaySlotSeesOldValue)
{
    Machine m;
    runPipeline(m,
        "ldi #7, r1\n"      // long immediate: no delay
        "st r1, @50\n"
        "movi #1, r2\n"
        "ld @50, r2\n"      // r2 <- 7, delayed one slot
        "mov r2, r3\n"      // delay slot: old r2 (1)
        "mov r2, r4\n"      // after: new r2 (7)
        "halt\n");
    EXPECT_EQ(m.cpu().reg(3), 1u) << "delay slot must see stale value";
    EXPECT_EQ(m.cpu().reg(4), 7u);
}

TEST(Pipeline, LoadDelayThenAluWawOrder)
{
    // An ALU write in the load's delay slot to the same register must
    // win over the load's later writeback (its WB stage is later).
    Machine m;
    runPipeline(m,
        "ldi #7, r1\n"
        "st r1, @50\n"
        "ld @50, r2\n"
        "movi #9, r2\n"  // delay slot writes r2 too
        "mov r2, r3\n"
        "halt\n");
    EXPECT_EQ(m.cpu().reg(3), 9u);
    EXPECT_EQ(m.cpu().reg(2), 9u);
}

TEST(Pipeline, LongImmediateHasNoDelay)
{
    Machine m;
    runPipeline(m,
        "ldi #1234, r1\n"
        "mov r1, r2\n" // immediately visible
        "halt\n");
    EXPECT_EQ(m.cpu().reg(2), 1234u);
}

TEST(Pipeline, TakenBranchExecutesOneDelaySlot)
{
    Machine m;
    runPipeline(m,
        "movi #0, r1\n"
        "movi #0, r2\n"
        "bra skip\n"
        "movi #1, r1\n"  // delay slot: executes
        "movi #1, r2\n"  // skipped
        "skip: halt\n");
    EXPECT_EQ(m.cpu().reg(1), 1u);
    EXPECT_EQ(m.cpu().reg(2), 0u);
}

TEST(Pipeline, UntakenBranchFallsThrough)
{
    Machine m;
    runPipeline(m,
        "movi #1, r1\n"
        "beq r1, #0, over\n"
        "movi #2, r2\n"
        "movi #3, r3\n"
        "over: halt\n");
    EXPECT_EQ(m.cpu().reg(2), 2u);
    EXPECT_EQ(m.cpu().reg(3), 3u);
}

TEST(Pipeline, BranchComparesStaleLoadInDelay)
{
    // The branch itself sits in the load delay slot: it compares the
    // *old* register value (this is what the reorganizer must avoid).
    Machine m;
    runPipeline(m,
        "ldi #1, r1\n"
        "st r1, @60\n"
        "movi #0, r1\n"
        "ld @60, r1\n"
        "beq r1, #0, zero\n" // sees old r1 == 0 -> taken!
        "nop\n"
        "movi #5, r2\n"      // skipped
        "zero: halt\n");
    EXPECT_EQ(m.cpu().reg(2), 0u);
}

TEST(Pipeline, IndirectJumpHasTwoDelaySlots)
{
    Machine m;
    runPipeline(m,
        ".org 0\n"
        "ldi #6, r5\n"
        "jmp (r5)\n"
        "movi #1, r1\n" // slot 1: executes
        "movi #1, r2\n" // slot 2: executes
        "movi #1, r3\n" // skipped
        "movi #1, r4\n" // skipped
        "halt\n");      // addr 6
    EXPECT_EQ(m.cpu().reg(1), 1u);
    EXPECT_EQ(m.cpu().reg(2), 1u);
    EXPECT_EQ(m.cpu().reg(3), 0u);
    EXPECT_EQ(m.cpu().reg(4), 0u);
}

TEST(Pipeline, DirectCallLinksPastDelaySlot)
{
    Machine m;
    runPipeline(m,
        ".org 0\n"
        "call sub, r15\n" // addr 0: link = 0 + 1 + 1 = 2
        "nop\n"           // delay slot
        "movi #9, r3\n"   // addr 2: return lands here
        "halt\n"
        "sub: mov r15, r7\n"
        "jmp (r15)\n"
        "nop\n"
        "nop\n");
    EXPECT_EQ(m.cpu().reg(7), 2u);
    EXPECT_EQ(m.cpu().reg(3), 9u);
}

TEST(Pipeline, TransferInTakenShadowIsSimError)
{
    Machine m;
    m.load(assembleOrDie(
        "bra a\n"
        "bra b\n" // taken branch in the delay shadow: undefined
        "a: nop\n"
        "b: halt\n"));
    EXPECT_EQ(m.cpu().run(100), StopReason::SIM_ERROR);
    EXPECT_FALSE(m.cpu().errorMessage().empty());
}

TEST(Pipeline, UntakenBranchInShadowIsAllowed)
{
    Machine m;
    runPipeline(m,
        "movi #1, r1\n"
        "bra a\n"
        "beq r1, #0, b\n" // in shadow but not taken: fine
        "b: movi #7, r2\n"
        "a: halt\n");
    EXPECT_EQ(m.cpu().reg(2), 0u);
}

// ----------------------------------------------- Byte manipulation

TEST(Pipeline, PaperLoadByteSequence)
{
    // The paper's load-byte: ld (r0>>2), r1 ; xc r0, r1, r1
    Machine m;
    m.load(assembleOrDie(
        "li #322, r3\n"          // byte pointer: word 80, byte 2
        "ld (r0+r3>>2), r1\n"    // base r0=0 + (322>>2)=80
        "nop\n"                  // load delay
        "xc r3, r1, r1\n"        // extract byte 2
        "halt\n"));
    m.memory().poke(80, 0x64636261); // "abcd" packed
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    EXPECT_EQ(m.cpu().reg(1), static_cast<uint32_t>('c'));
}

TEST(Pipeline, PaperStoreByteSequence)
{
    // The paper's store-byte: ld, mov->lo, ic, st.
    Machine m;
    m.load(assembleOrDie(
        "li #321, r3\n"          // byte 1 of word 80
        "movi #'Z', r4\n"
        "ld (r0+r3>>2), r5\n"
        "mtlo r3\n"              // fills the load delay usefully
        "ic r4, r5\n"
        "st r5, (r0+r3>>2)\n"
        "ld @80, r6\n"
        "nop\n"
        "halt\n"));
    m.memory().poke(80, 0x64636261);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    EXPECT_EQ(m.cpu().reg(6), 0x64635a61u); // "aZcd"
}

// ----------------------------------------------- Free memory cycles

TEST(Pipeline, FreeMemoryCycleAccounting)
{
    Machine m;
    runPipeline(m,
        "movi #1, r1\n"      // free
        "st r1, @50\n"       // data port used
        "ld @50, r2\n"       // data port used
        "nop\n"              // free
        "add r1, #1, r1 | st r1, 2(r0)\n" // packed: data port used
        "halt\n");           // free
    const CpuStats &stats = m.cpu().stats();
    EXPECT_EQ(stats.cycles, 6u);
    EXPECT_EQ(stats.free_data_cycles, 3u);
    EXPECT_EQ(stats.packed_words, 1u);
    EXPECT_DOUBLE_EQ(stats.freeBandwidth(), 0.5);
}

// ----------------------------------------------- Exceptions & system

TEST(Pipeline, TrapDispatchesToZeroWithCause)
{
    // ROM at 0: copy cause fields and halt.
    Program rom = assembleOrDie(
        ".org 0\n"
        "mfs sr, r1\n"
        "halt\n");
    Program prog = assembleOrDie(
        ".org 100\n"
        "movi #3, r2\n"
        "trap #77\n"
        "movi #9, r3\n"
        "halt\n");
    Machine m;
    m.memory().loadImage(rom.origin, rom.image);
    m.memory().loadImage(prog.origin, prog.image);
    m.cpu().reset(100);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);

    Surprise sr = Surprise::unpack(m.cpu().reg(1));
    EXPECT_EQ(sr.cause, Cause::TRAP);
    EXPECT_EQ(sr.detail, 77);
    EXPECT_TRUE(sr.supervisor);
    // Trap completes; RA0 is the instruction after it.
    EXPECT_EQ(m.cpu().returnAddress(0), 102u);
    EXPECT_EQ(m.cpu().returnAddress(1), 103u);
    EXPECT_EQ(m.cpu().returnAddress(2), 104u);
    // movi #9 never ran.
    EXPECT_EQ(m.cpu().reg(3), 0u);
}

TEST(Pipeline, RfeResumesAfterTrap)
{
    Program rom = assembleOrDie(
        ".org 0\n"
        "rfe\n");
    Program prog = assembleOrDie(
        ".org 100\n"
        "movi #1, r1\n"
        "trap #5\n"
        "movi #2, r2\n"
        "halt\n");
    Machine m;
    m.memory().loadImage(rom.origin, rom.image);
    m.memory().loadImage(prog.origin, prog.image);
    m.cpu().reset(100);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    EXPECT_EQ(m.cpu().reg(1), 1u);
    EXPECT_EQ(m.cpu().reg(2), 2u);
    EXPECT_EQ(m.cpu().stats().traps, 1u);
}

TEST(Pipeline, OverflowTrapsWhenEnabledAndInhibitsWrite)
{
    Program rom = assembleOrDie(
        ".org 0\n"
        "mfs sr, r10\n"
        "halt\n");
    // Enable overflow traps: SR with supervisor|ovf_enable = 0x11.
    Program prog = assembleOrDie(
        ".org 100\n"
        "movi #0x11, r1\n"   // 100
        "mts r1, sr\n"       // 101
        "ld @intmax, r2\n"   // 102
        "nop\n"              // 103: load delay
        "add r2, #1, r2\n"   // 104: overflows -> trap, write inhibited
        "halt\n"             // 105
        "intmax: .word 0x7fffffff\n");
    Machine m;
    m.memory().loadImage(rom.origin, rom.image);
    m.memory().loadImage(prog.origin, prog.image);
    m.cpu().reset(100);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    Surprise sr = Surprise::unpack(m.cpu().reg(10));
    EXPECT_EQ(sr.cause, Cause::OVERFLOW);
    // Faulting instruction is restartable: rd unchanged, RA0 = it.
    EXPECT_EQ(m.cpu().reg(2), 0x7fffffffu);
    EXPECT_EQ(m.cpu().returnAddress(0), 104u);
}

TEST(Pipeline, OverflowIgnoredWhenDisabled)
{
    Machine m;
    runPipeline(m,
        "ld @intmax, r2\n"
        "nop\n"
        "add r2, #1, r2\n"
        "halt\n"
        "intmax: .word 0x7fffffff\n");
    EXPECT_EQ(m.cpu().reg(2), 0x80000000u);
    EXPECT_EQ(m.cpu().stats().exceptions, 0u);
}

TEST(Pipeline, FaultInIndirectJumpShadowSavesThreeAddresses)
{
    // The paper's motivating case for three return addresses: an
    // exception on the instruction after an indirect jump must save
    // {offender, successor, branch target}.
    Program rom = assembleOrDie(
        ".org 0\n"
        "mfs ra0, r1\n"
        "mfs ra1, r2\n"
        "mfs ra2, r3\n"
        "halt\n");
    Program prog = assembleOrDie(
        ".org 100\n"
        "not r0, r9\n"     // 100: r9 = 0xffffffff (way out of range)
        "ldi #200, r5\n"   // 101
        "jmp (r5)\n"       // 102: two delay slots (103, 104)
        "movi #1, r6\n"    // 103
        "ld (r9), r7\n"    // 104: out of range -> fault here
        "halt\n");
    Machine m;
    m.memory().loadImage(rom.origin, rom.image);
    m.memory().loadImage(prog.origin, prog.image);
    m.memory().poke(200, isa::encode(isa::Instruction::makeHalt()));
    m.cpu().reset(100);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    EXPECT_EQ(m.cpu().reg(1), 104u); // the offender
    EXPECT_EQ(m.cpu().reg(2), 200u); // then the jump target
    EXPECT_EQ(m.cpu().reg(3), 201u);
}

TEST(Pipeline, RfeResumesNonSequentialStream)
{
    // Fault in an indirect jump's shadow, handler fixes nothing but
    // skips the offender by advancing RA: resume must still follow the
    // saved three-address stream (offender', successor', target').
    Program rom = assembleOrDie(
        ".org 0\n"
        "rfe\n");
    Program prog = assembleOrDie(
        ".org 100\n"
        "li #500, r8\n"
        "ldi #200, r5\n"
        "jmp (r5)\n"        // 102
        "movi #1, r6\n"     // 103 slot 1
        "st r6, (r8)\n"     // 104 slot 2; first run r8 interposed below
        "halt\n");
    Machine m;
    m.memory().loadImage(rom.origin, rom.image);
    m.memory().loadImage(prog.origin, prog.image);
    // Target block at 200: record r6 and halt.
    Program target = assembleOrDie(
        ".org 200\n"
        "mov r6, r9\n"
        "halt\n");
    m.memory().loadImage(target.origin, target.image);
    m.cpu().reset(100);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    // Store executed on retry (r8=500 valid), then the jump target ran.
    EXPECT_EQ(m.memory().peek(500), 1u);
    EXPECT_EQ(m.cpu().reg(9), 1u);
}

TEST(Pipeline, PrivilegedInstructionFaultsInUserMode)
{
    Program rom = assembleOrDie(
        ".org 0\n"
        "mfs sr, r10\n"
        "halt\n");
    // Enter user mode via RFE with prev bits = user.
    Program prog = assembleOrDie(
        ".org 100\n"
        "li #200, r1\n"
        "mts r1, ra0\n"
        "li #201, r1\n"
        "mts r1, ra1\n"
        "li #202, r1\n"
        "mts r1, ra2\n"
        "movi #1, r1\n"   // SR: supervisor, prev = user
        "mts r1, sr\n"
        "rfe\n");
    Program user = assembleOrDie(
        ".org 200\n"
        "movi #5, r2\n"
        "nop\n"
        "mts r2, segpid\n" // privileged -> fault
        "halt\n");
    Machine m;
    m.memory().loadImage(rom.origin, rom.image);
    m.memory().loadImage(prog.origin, prog.image);
    m.memory().loadImage(user.origin, user.image);
    m.cpu().reset(100);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    Surprise sr = Surprise::unpack(m.cpu().reg(10));
    EXPECT_EQ(sr.cause, Cause::PRIVILEGE);
    EXPECT_FALSE(sr.prev_supervisor); // came from user mode
}

TEST(Pipeline, UserModeCannotTouchMmio)
{
    Program rom = assembleOrDie(
        ".org 0\n"
        "mfs sr, r10\n"
        "halt\n");
    Program prog = assembleOrDie(
        ".org 100\n"
        "li #200, r1\n"
        "mts r1, ra0\n"
        "li #201, r1\n"
        "mts r1, ra1\n"
        "li #202, r1\n"
        "mts r1, ra2\n"
        "movi #1, r1\n"
        "mts r1, sr\n"
        "rfe\n");
    Program user = assembleOrDie(
        ".org 200\n"
        "movi #'x', r2\n"
        "li #0xff000, r3\n"
        "st r2, (r3)\n"  // console MMIO from user mode -> fault
        "halt\n");
    Machine m;
    m.memory().loadImage(rom.origin, rom.image);
    m.memory().loadImage(prog.origin, prog.image);
    m.memory().loadImage(user.origin, user.image);
    m.cpu().reset(100);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    EXPECT_EQ(Surprise::unpack(m.cpu().reg(10)).cause, Cause::PRIVILEGE);
    EXPECT_TRUE(m.memory().consoleOutput().empty());
}

TEST(Pipeline, ConsoleFromSupervisor)
{
    Machine m;
    runPipeline(m,
        "movi #'o', r2\n"
        "li #0xff000, r3\n"
        "st r2, (r3)\n"
        "movi #'k', r2\n"
        "st r2, (r3)\n"
        "halt\n");
    EXPECT_EQ(m.memory().consoleOutput(), "ok");
}

TEST(Pipeline, InterruptDispatchAndResume)
{
    // Handler: query INT_SOURCE, ack it, record, rfe.
    Program rom = assembleOrDie(
        ".org 0\n"
        "li #0xff002, r10\n"  // INT_SOURCE
        "ld (r10), r11\n"     // device id
        "nop\n"
        "st r11, 1(r10)\n"    // INT_ACK (0xff003)
        "rfe\n");
    Program prog = assembleOrDie(
        ".org 100\n"
        "movi #5, r1\n"       // SR: supervisor | int_enable = 0b101
        "mts r1, sr\n"
        "movi #0, r2\n"
        "loop: add r2, #1, r2\n"
        "blt r2, #10, loop\n"
        "nop\n"
        "halt\n");
    Machine m;
    m.memory().loadImage(rom.origin, rom.image);
    m.memory().loadImage(prog.origin, prog.image);
    m.cpu().reset(100);
    // Run a few cycles, then pull the interrupt line.
    for (int i = 0; i < 5; ++i)
        m.cpu().step();
    m.memory().raiseDevice(4);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    EXPECT_EQ(m.cpu().reg(11), 4u);     // handler saw device 4
    EXPECT_EQ(m.cpu().reg(2), 10u);     // loop still completed
    EXPECT_FALSE(m.memory().interruptPending());
    EXPECT_GE(m.cpu().stats().exceptions, 1u);
}

TEST(Pipeline, InterruptIgnoredWhenDisabled)
{
    Machine m;
    m.load(assembleOrDie(
        "movi #0, r2\n"
        "loop: add r2, #1, r2\n"
        "blt r2, #10, loop\n"
        "nop\n"
        "halt\n"));
    m.memory().raiseDevice(2);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    EXPECT_EQ(m.cpu().stats().exceptions, 0u);
    EXPECT_TRUE(m.memory().interruptPending()); // still asserted
}

TEST(Pipeline, IllegalInstructionFaults)
{
    Program rom = assembleOrDie(
        ".org 0\n"
        "mfs sr, r10\n"
        "halt\n");
    Machine m;
    m.memory().loadImage(rom.origin, rom.image);
    m.memory().poke(100, 7u << 29); // reserved format
    m.cpu().reset(100);
    ASSERT_EQ(m.cpu().run(100), StopReason::HALT);
    EXPECT_EQ(Surprise::unpack(m.cpu().reg(10)).cause, Cause::ILLEGAL);
}

// -------------------------------------------------- Demand paging

TEST(Paging, DemandPageFaultInstallRetry)
{
    // Kernel dispatch at 0: on page fault, install the page and RFE.
    // The kernel keeps the next free frame in physical word 900.
    Program rom = assembleOrDie(
        ".org 0\n"
        "mfs sr, r10\n"
        "srl r10, #12, r11\n"
        "and r11, #15, r11\n"    // cause
        "beq r11, #5, pf\n"      // PAGE_FAULT?
        "nop\n"
        "halt\n"                  // anything else: give up
        "pf: trap #0\n");         // hand to the host hook below? no:
    // Simpler: the page-fault path is handled by host C++ between
    // steps; see the loop below. The ROM above halts on non-PF.
    (void)rom;

    // Use a pure C++ "OS": run until the CPU lands at PC 0 with a
    // PAGE_FAULT cause, then install the page and RFE by hand.
    Program user = assembleOrDie(
        ".org 0x400\n"           // one page up, mapped 1:1
        "movi #7, r1\n"
        "li #0x800, r2\n"        // next page: not yet resident
        "st r1, (r2)\n"          // faults, then retries
        "ld (r2), r3\n"
        "nop\n"
        "halt\n");
    Machine m;
    m.memory().loadImage(user.origin, user.image);
    m.mapping().configure(4, 3);
    // Map the code page 1:1 (sva of program page 1 -> frame 1).
    uint32_t code_sva = (3u << 20) | 0x400;
    m.mapping().installPage(code_sva, 1);
    m.cpu().reset(0x400);
    m.cpu().surprise().map_enable = true;
    m.cpu().surprise().supervisor = false;

    int faults_handled = 0;
    StopReason reason = StopReason::RUNNING;
    for (int i = 0; i < 1000 && reason == StopReason::RUNNING; ++i) {
        reason = m.cpu().step();
        if (m.cpu().pc() == 0 &&
            m.cpu().surprise().cause == Cause::PAGE_FAULT) {
            ++faults_handled;
            // Install the faulting page (program 0x800 -> frame 2).
            uint32_t sva = (3u << 20) | 0x800;
            m.mapping().installPage(sva, 2);
            // RFE from "hardware": restore and resume saved stream.
            m.cpu().surprise().returnFromException();
            m.cpu().surprise().map_enable = true;
            m.cpu().surprise().supervisor = false;
            m.cpu().setPc(m.cpu().returnAddress(0));
        }
    }
    ASSERT_EQ(reason, StopReason::HALT) << m.cpu().errorMessage();
    EXPECT_EQ(faults_handled, 1);
    EXPECT_EQ(m.cpu().reg(3), 7u);
    // The store landed in frame 2.
    EXPECT_EQ(m.memory().peek(2 * kPageWords), 7u);
}

// ------------------------------------- Functional vs pipeline diff

TEST(Differential, HazardFreeProgramsAgree)
{
    // A program with no load-delay or branch-shadow hazards must give
    // identical results on both machines.
    const char *src =
        "movi #0, r1\n"
        "movi #1, r2\n"
        "movi #0, r3\n"
        "loop: add r1, r2, r4\n"
        "mov r2, r1\n"
        "mov r4, r2\n"
        "add r3, #1, r3\n"
        "blt r3, #15, loop\n"
        "nop\n"               // explicit delay slot no-op
        "st r1, @500\n"
        "halt\n";
    Program p = assembleOrDie(src);

    Machine m;
    m.load(p);
    ASSERT_EQ(m.cpu().run(100000), StopReason::HALT)
        << m.cpu().errorMessage();

    FunctionalRun f = runFunctional(p);
    ASSERT_EQ(f.reason, StopReason::HALT);

    for (int r = 0; r < isa::kNumRegs; ++r)
        EXPECT_EQ(m.cpu().reg(r), f.cpu->reg(r)) << "r" << r;
    EXPECT_EQ(m.memory().peek(500), f.memory->peek(500));
    // Fibonacci(15) sanity.
    EXPECT_EQ(f.memory->peek(500), 610u);
}

TEST(Differential, HazardfulProgramDiverges)
{
    // "Legal code" with a load-use hazard: correct on the interlocked
    // machine, stale on the pipeline. This divergence is the entire
    // reason the reorganizer exists.
    const char *src =
        "ldi #41, r1\n"
        "st r1, @300\n"
        "movi #0, r2\n"
        "ld @300, r2\n"
        "add r2, #1, r3\n" // functional: 42; pipeline: 1
        "halt\n";
    Program p = assembleOrDie(src);

    FunctionalRun f = runFunctional(p);
    ASSERT_EQ(f.reason, StopReason::HALT);
    EXPECT_EQ(f.cpu->reg(3), 42u);

    Machine m;
    m.load(p);
    ASSERT_EQ(m.cpu().run(1000), StopReason::HALT);
    EXPECT_EQ(m.cpu().reg(3), 1u);
}

TEST(Functional, CallLinksNextAddress)
{
    Program p = assembleOrDie(
        ".org 0\n"
        "call sub, r15\n"
        "movi #9, r3\n"
        "halt\n"
        "sub: mov r15, r7\n"
        "jmp (r15)\n");
    FunctionalRun f = runFunctional(p);
    ASSERT_EQ(f.reason, StopReason::HALT);
    EXPECT_EQ(f.cpu->reg(7), 1u); // immediate return point
    EXPECT_EQ(f.cpu->reg(3), 9u);
}

TEST(Functional, TrapHandlerHook)
{
    Program p = assembleOrDie(
        "movi #1, r1\n"
        "trap #7\n"
        "movi #2, r2\n"
        "halt\n");
    PhysMemory mem;
    mem.loadImage(p.origin, p.image);
    FunctionalCpu cpu(mem);
    uint16_t seen = 0;
    cpu.setTrapHandler([&seen](uint16_t code) {
        seen = code;
        return true; // continue
    });
    cpu.reset(p.origin);
    ASSERT_EQ(cpu.run(100), StopReason::HALT);
    EXPECT_EQ(seen, 7);
    EXPECT_EQ(cpu.reg(2), 2u);
}

TEST(Functional, OverflowCountedNotTrapped)
{
    Program p = assembleOrDie(
        "ld @intmax, r1\n"
        "add r1, #1, r1\n"
        "halt\n"
        "intmax: .word 0x7fffffff\n");
    FunctionalRun f = runFunctional(p);
    EXPECT_EQ(f.cpu->overflows(), 1u);
    EXPECT_EQ(f.cpu->reg(1), 0x80000000u);
}

TEST(Functional, MemoRunsPokedWord)
{
    // The decode memo needs no invalidation: its slot for `target`
    // still holds the old word, so the poked word misses and decodes.
    Program p = assembleOrDie(
        "target: ldi #11, r2\n"
        "  halt\n");
    PhysMemory mem;
    mem.loadImage(p.origin, p.image);
    FunctionalCpu cpu(mem);
    cpu.reset(p.origin);
    ASSERT_EQ(cpu.run(100), StopReason::HALT);
    ASSERT_EQ(cpu.reg(2), 11u);

    mem.poke(p.symbol("target"), assembleOrDie("ldi #22, r2\n").image[0]);
    cpu.reset(p.origin);
    ASSERT_EQ(cpu.run(100), StopReason::HALT);
    EXPECT_EQ(cpu.reg(2), 22u);
}

TEST(Functional, MemoSlotSharedByTwoPcs)
{
    // PCs 0 and 1024 share a memo slot; each must run its own word.
    Program p = assembleOrDie(
        "  movi #1, r1\n"
        "  .space 1023\n" // no-ops up to PC 1024
        "  movi #2, r2\n"
        "  halt\n");
    FunctionalRun f = runFunctional(p);
    ASSERT_EQ(f.reason, StopReason::HALT);
    EXPECT_EQ(f.cpu->reg(1), 1u);
    EXPECT_EQ(f.cpu->reg(2), 2u);
    EXPECT_EQ(f.cpu->instructions(), 1026u); // 2 movi, 1023 no-ops, halt
}

TEST(Functional, IllegalWordFaultsOnEveryRun)
{
    // Illegal words are not memoized: a rerun faults again.
    PhysMemory mem;
    mem.poke(100, 7u << 29); // reserved format
    FunctionalCpu cpu(mem);
    for (int run = 0; run < 2; ++run) {
        cpu.reset(100);
        EXPECT_EQ(cpu.run(10), StopReason::SIM_ERROR);
        EXPECT_EQ(cpu.errorMessage(), "illegal instruction at 100");
    }
}

} // namespace
} // namespace mips::sim
