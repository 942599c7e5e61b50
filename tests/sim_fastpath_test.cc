/**
 * @file
 * Simulator fast-path tests: the predecoded instruction cache must be
 * invalidated by every write that changes memory contents (CPU stores
 * and host-side pokes — self-modifying code), the mapping micro-TLB
 * must drop translations on page-map mutation and usage-bit clearing,
 * and — the core property — running with the fast path disabled (the
 * reference decode/translate-every-cycle path) must produce identical
 * architectural results, statistics, and error messages.
 */
#include <string>

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "plc/driver.h"
#include "sim/machine.h"
#include "workload/corpus.h"

namespace mips::sim {
namespace {

using assembler::assembleOrDie;
using assembler::Program;

/** Encoding of "ldi #22, r2" (position-independent: LONG_IMM). */
uint32_t
ldi22Word()
{
    return assembleOrDie("ldi #22, r2\n").image[0];
}

// --------------------------------------- Predecode-cache invalidation

TEST(FastPathDecodeCache, CpuStoreInvalidatesStaleEntry)
{
    // Iteration 1 executes `target` (ldi #11) and predecodes it, then
    // stores the encoding of "ldi #22, r2" over it; iteration 2 must
    // execute the NEW word. A stale decode-cache entry would leave
    // r2 == 11.
    Program p = assembleOrDie(
        "  ldi #0, r3\n"
        "again:\n"
        "target: ldi #11, r2\n"
        "  ld @data, r1\n"
        "  nop\n"
        "  st r1, @target\n"
        "  add r3, #1, r3\n"
        "  blt r3, #2, again\n"
        "  nop\n"
        "  halt\n"
        "data: nop\n"); // placeholder word, patched below, never runs
    Machine m;
    m.load(p);
    m.memory().poke(p.symbol("data"), ldi22Word());
    ASSERT_EQ(m.cpu().run(), StopReason::HALT);
    EXPECT_EQ(m.cpu().reg(2), 22u);
    EXPECT_EQ(m.cpu().reg(3), 2u);
}

TEST(FastPathDecodeCache, PokeInvalidatesStaleEntry)
{
    Program p = assembleOrDie(
        "target: ldi #11, r2\n"
        "  halt\n");
    Machine m;
    m.load(p);
    ASSERT_EQ(m.cpu().run(), StopReason::HALT);
    ASSERT_EQ(m.cpu().reg(2), 11u); // now predecoded

    // Patch the instruction from the host and re-run WITHOUT reloading
    // (reload would rewrite the old word): the cached decode is stale.
    m.memory().poke(p.symbol("target"), ldi22Word());
    m.cpu().reset(p.origin);
    ASSERT_EQ(m.cpu().run(), StopReason::HALT);
    EXPECT_EQ(m.cpu().reg(2), 22u);
}

TEST(FastPathDecodeCache, IdenticalReloadKeepsCacheWarm)
{
    // Write-invalidation is value-aware and reset() does not flush, so
    // reloading the same image must not cost a single new decode miss.
    Program p = assembleOrDie(
        "  ldi #50, r1\n"
        "loop: sub r1, #1, r1\n"
        "  bgt r1, #0, loop\n"
        "  nop\n"
        "  halt\n");
    Machine m;
    m.load(p);
    ASSERT_EQ(m.cpu().run(), StopReason::HALT);
    uint64_t misses = m.cpu().decodeCacheMisses();
    EXPECT_GT(misses, 0u);
    m.load(p);
    ASSERT_EQ(m.cpu().run(), StopReason::HALT);
    EXPECT_EQ(m.cpu().decodeCacheMisses(), misses);
    EXPECT_GT(m.cpu().decodeCacheHits(), 0u);
}

// --------------------------------------------- Micro-TLB invalidation

TEST(MicroTlb, InstallAndEvictDropCachedTranslations)
{
    MappingUnit mu;
    mu.configure(0, 0);
    mu.installPage(0, 5);
    Translation t = mu.translate(3, false);
    ASSERT_TRUE(t.ok);
    EXPECT_EQ(t.phys, 5u * kPageWords + 3);
    EXPECT_TRUE(mu.translate(4, false).ok); // micro-TLB hit
    EXPECT_EQ(mu.tlbHits(), 1u);

    // Remapping the page must not leave the old frame cached.
    mu.installPage(0, 7);
    t = mu.translate(3, false);
    ASSERT_TRUE(t.ok);
    EXPECT_EQ(t.phys, 7u * kPageWords + 3);

    // Evicting must not leave any translation cached.
    mu.evictPage(0);
    t = mu.translate(3, false);
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.cause, Cause::PAGE_FAULT);

    EXPECT_EQ(mu.translations(), mu.tlbHits() + mu.tlbMisses());
}

TEST(MicroTlb, UsageBitsRecordedAfterClear)
{
    MappingUnit mu;
    mu.configure(0, 0);
    mu.installPage(0, 1);

    ASSERT_TRUE(mu.translate(0, false).ok);
    ASSERT_TRUE(mu.translate(1, true).ok); // TLB hit propagates dirty
    const PageEntry *page = mu.findPage(0);
    ASSERT_NE(page, nullptr);
    EXPECT_TRUE(page->referenced);
    EXPECT_TRUE(page->dirty);

    // clearUsageBits() flushes the TLB, so the next references re-walk
    // the page map and set the bits again instead of hitting a cached
    // entry that assumes they are already recorded.
    mu.clearUsageBits();
    EXPECT_FALSE(page->referenced);
    EXPECT_FALSE(page->dirty);
    ASSERT_TRUE(mu.translate(2, false).ok);
    EXPECT_TRUE(page->referenced);
    EXPECT_FALSE(page->dirty);
    ASSERT_TRUE(mu.translate(3, true).ok);
    EXPECT_TRUE(page->dirty);
}

TEST(MicroTlb, DisabledMatchesEnabledExactly)
{
    // The reference path (TLB off) and the fast path must agree on
    // translations, fault causes, usage bits, and the shared counters.
    auto drive = [](MappingUnit &mu) {
        mu.configure(0, 0);
        mu.installPage(0, 2);
        mu.installPage(kPageWords, 3, true, false); // read-only page
        mu.translate(5, false);
        mu.translate(6, true);
        mu.translate(kPageWords + 1, false);
        mu.translate(kPageWords + 2, true); // write fault: read-only
        mu.translate(3 * kPageWords, false); // fault: not installed
        mu.clearUsageBits();
        mu.translate(7, true);
    };
    MappingUnit with_tlb, without_tlb;
    without_tlb.setTlbEnabled(false);
    drive(with_tlb);
    drive(without_tlb);

    EXPECT_EQ(with_tlb.translations(), without_tlb.translations());
    EXPECT_EQ(with_tlb.faults(), without_tlb.faults());
    for (uint32_t page = 0; page < 2; ++page) {
        const PageEntry *a = with_tlb.findPage(page * kPageWords);
        const PageEntry *b = without_tlb.findPage(page * kPageWords);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(a->referenced, b->referenced) << "page " << page;
        EXPECT_EQ(a->dirty, b->dirty) << "page " << page;
    }
}

// ------------------------------------------ Fast-vs-reference parity

/** Run `p` on a fresh machine; `mapped` identity-maps all of physical
 *  memory and turns translation on (like the throughput benchmark). */
Machine &
runProgram(Machine &m, const Program &p, bool fast_path,
           bool mapped = false, uint64_t max_cycles = 10'000'000)
{
    m.cpu().enableFastPath(fast_path);
    m.load(p);
    if (mapped) {
        m.mapping().configure(0, 0);
        uint32_t frames = m.memory().size() >> kPageBits;
        for (uint32_t frame = 0; frame < frames; ++frame)
            m.mapping().installPage(frame << kPageBits, frame);
        m.cpu().surprise().map_enable = true;
    }
    m.cpu().clearStats();
    m.cpu().run(max_cycles);
    return m;
}

void
expectParity(Machine &fast, Machine &slow)
{
    EXPECT_TRUE(fast.cpu().stats() == slow.cpu().stats());
    for (int r = 0; r < isa::kNumRegs; ++r)
        EXPECT_EQ(fast.cpu().reg(static_cast<isa::Reg>(r)),
                  slow.cpu().reg(static_cast<isa::Reg>(r)))
            << "r" << r;
    EXPECT_EQ(fast.cpu().pc(), slow.cpu().pc());
    EXPECT_EQ(fast.cpu().errorMessage(), slow.cpu().errorMessage());
    EXPECT_EQ(fast.memory().consoleOutput(),
              slow.memory().consoleOutput());
    EXPECT_EQ(fast.mapping().translations(),
              slow.mapping().translations());
    EXPECT_EQ(fast.mapping().faults(), slow.mapping().faults());
}

// A program whose first word, `target` at 2047, ends a 1024-word page
// of physical memory and encodes as 0 (a nop), so loading it gives
// that page no storage; the rest of the program lives in the next page.
// The CPU predecodes `target` as a nop read from the shared zero page.

TEST(FastPathDecodeCache, StoreToAbsentPageInvalidatesStaleEntry)
{
    // Pass 1 runs the nop at `target`, then stores "ldi #22, r2" over
    // it: the first write to its page, which gives the page storage.
    // Pass 2 must run the new word on both paths.
    Program p = assembleOrDie(
        ".org 2047\n"
        "target: nop\n"
        "  add r3, #1, r3\n"
        "  ld @data, r1\n"
        "  nop\n"
        "  st r1, @target\n"
        "  blt r3, #2, target\n"
        "  nop\n"
        "  halt\n"
        "data: .word " + std::to_string(ldi22Word()) + "\n");
    Machine probe;
    probe.load(p);
    ASSERT_EQ(probe.memory().residentPages(), 1u); // target's page absent

    Machine fast, slow;
    runProgram(fast, p, true);
    runProgram(slow, p, false);
    EXPECT_EQ(fast.cpu().reg(2), 22u);
    EXPECT_EQ(fast.cpu().reg(3), 2u);
    EXPECT_EQ(fast.memory().residentPages(), 2u);
    expectParity(fast, slow);
}

TEST(FastPathDecodeCache, PokeToAbsentPageInvalidatesStaleEntry)
{
    Program p = assembleOrDie(
        ".org 2047\n"
        "target: nop\n"
        "  halt\n");
    auto run = [&p](Machine &m, bool fast_path) {
        m.cpu().enableFastPath(fast_path);
        m.load(p);
        ASSERT_EQ(m.cpu().run(), StopReason::HALT); // target predecoded
        ASSERT_EQ(m.memory().residentPages(), 1u);
        m.memory().poke(p.symbol("target"), ldi22Word());
        m.cpu().reset(p.origin);
        m.cpu().clearStats();
        ASSERT_EQ(m.cpu().run(), StopReason::HALT);
        EXPECT_EQ(m.cpu().reg(2), 22u);
    };
    Machine fast, slow;
    run(fast, true);
    run(slow, false);
    expectParity(fast, slow);
}

TEST(FastPathParity, CompiledPuzzleIdenticalStats)
{
    auto exe = plc::buildExecutable(workload::puzzle0Program().source);
    ASSERT_TRUE(exe.ok());
    Machine fast, slow;
    runProgram(fast, exe.value().program, true);
    runProgram(slow, exe.value().program, false);
    EXPECT_GT(fast.cpu().decodeCacheHits(), 0u);
    EXPECT_EQ(slow.cpu().decodeCacheHits(), 0u); // reference: no cache
    expectParity(fast, slow);
}

TEST(FastPathParity, MappedWorkloadIdenticalStats)
{
    Program p = assembleOrDie(
        "  ldi #300, r1\n"
        "  ldi #4096, r2\n"
        "loop: st r1, (r2+r1)\n"
        "  ld (r2+r1), r4\n"
        "  sub r1, #1, r1\n"
        "  bgt r1, #0, loop\n"
        "  nop\n"
        "  halt\n");
    Machine fast, slow;
    runProgram(fast, p, true, /*mapped=*/true);
    runProgram(slow, p, false, /*mapped=*/true);
    EXPECT_GT(fast.mapping().tlbHits(), 0u);
    EXPECT_EQ(slow.mapping().tlbHits(), 0u); // reference: TLB disabled
    expectParity(fast, slow);
}

TEST(FastPathParity, DelayShadowErrorIdenticalMessage)
{
    // A taken transfer inside another transfer's delay shadow is a
    // SIM_ERROR; the specialized branch handler must produce the exact
    // reference diagnostic.
    Program p = assembleOrDie(
        "  bra out\n"
        "  bra out\n" // executes in the shadow of the first bra
        "out: halt\n");
    Machine fast, slow;
    runProgram(fast, p, true);
    runProgram(slow, p, false);
    EXPECT_FALSE(fast.cpu().errorMessage().empty());
    expectParity(fast, slow);
}

TEST(FastPathParity, TableDispatchIdenticalStats)
{
    // A dispatch loop driven through a jump table: the predecoded
    // path must agree with the reference on every fetch, transfer,
    // and counter.
    Program p = assembleOrDie(
        "  li #500, r13\n"
        "  movi #0, r4\n"     // accumulator
        "  movi #3, r3\n"     // case index, counts down
        "again:\n"
        "  la tab, r2\n"
        "  nop\n"
        "  jtab (r2+r3), tab\n"
        "  nop\n"
        "  nop\n"
        "tab: .word c0\n"
        "  .word c1\n"
        "  .word c2\n"
        "  .word c3\n"
        "c0: st r4, 0(r13)\n"
        "  halt\n"
        "c1: add r4, #1, r4\n"
        "  bra next\n"
        "  nop\n"
        "c2: add r4, #2, r4\n"
        "  bra next\n"
        "  nop\n"
        "c3: add r4, #3, r4\n"
        "  bra next\n"
        "  nop\n"
        "next: sub r3, #1, r3\n"
        "  bra again\n"
        "  nop\n");
    Machine fast, slow;
    runProgram(fast, p, true);
    runProgram(slow, p, false);
    EXPECT_EQ(fast.cpu().reg(4), 6u); // 3 + 2 + 1
    EXPECT_GT(fast.cpu().decodeCacheHits(), 0u);
    expectParity(fast, slow);
}

TEST(FastPathParity, StoreToTableEntryRedirectsDispatch)
{
    // Patch a jump-table entry between two dispatches: the second
    // dispatch must follow the NEW entry on both paths. On the fast
    // path this exercises write-invalidation for table data the same
    // way self-modifying code does for instructions.
    Program p = assembleOrDie(
        "  la tab, r2\n"
        "  movi #0, r3\n"
        "  jtab (r2+r3), tab\n"
        "  nop\n"
        "  nop\n"
        "tab: .word t0\n"
        "  .word t1\n"
        "t0: la t1, r1\n"     // first landing: patch entry 0 to t1
        "  nop\n"
        "  st r1, @tab\n"
        "  jtab (r2+r3), tab\n"
        "  nop\n"
        "  nop\n"
        "  halt\n"            // a stale dispatch would land back here
        "t1: movi #7, r5\n"
        "  halt\n");
    Machine fast, slow;
    runProgram(fast, p, true);
    runProgram(slow, p, false);
    EXPECT_EQ(fast.cpu().reg(5), 7u);
    EXPECT_EQ(slow.cpu().reg(5), 7u);
    expectParity(fast, slow);
}

TEST(FastPathParity, TableFetchOutOfBoundsIdenticalFault)
{
    // A wild index drives the table fetch past physical memory: an
    // ADDRESS_ERROR exception, not a simulator error. No handler is
    // installed, so the fault re-enters at the vector forever —
    // compare a fixed cycle budget like the trap-loop test.
    Program p = assembleOrDie(
        "  la tab, r2\n"
        "  ld @big, r3\n"
        "  nop\n"
        "  jtab (r2+r3), tab\n"
        "  nop\n"
        "  nop\n"
        "tab: .word t0\n"
        "t0: halt\n"
        "big: .word 0x1FFFFF\n");
    Machine fast, slow;
    runProgram(fast, p, true, false, 5000);
    runProgram(slow, p, false, false, 5000);
    EXPECT_GT(fast.cpu().stats().address_errors, 0u);
    expectParity(fast, slow);
}

TEST(FastPathParity, TrapLoopIdenticalStats)
{
    // Traps re-enter at PC 0 forever; compare a fixed cycle budget so
    // the exception entry path (stream capture, privilege swap, TLB
    // flush) is exercised identically in both modes.
    // No explicit loop needed: the trap redirects to PC 0, which is
    // the program origin, restarting the sequence.
    Program p = assembleOrDie(
        "  add r1, #1, r1\n"
        "  trap #3\n"
        "  nop\n"
        "  nop\n");
    Machine fast, slow;
    runProgram(fast, p, true, false, 5000);
    runProgram(slow, p, false, false, 5000);
    EXPECT_GT(fast.cpu().stats().traps, 0u);
    expectParity(fast, slow);
}

} // namespace
} // namespace mips::sim
