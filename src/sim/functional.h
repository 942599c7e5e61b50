/**
 * @file
 * Functional reference executor: the *interlocked* machine.
 *
 * The paper frames pipelining as "an optimization implemented by
 * hardware ... subject to the interlocks which prevent illegal
 * optimizations", which "allows the compiler ... to make simple
 * assumptions about the execution of individual machine instructions".
 * This executor implements exactly those simple assumptions:
 *
 *  - every instruction sees the results of all earlier instructions
 *    (loads have no visible delay), and
 *  - control transfers take effect immediately (no delay slots;
 *    a call links the very next address).
 *
 * Code straight out of a code generator ("legal code") is correct on
 * this machine; the reorganizer's job is to transform it into code
 * that is correct on the interlock-free pipeline Cpu. Differential
 * tests between the two are the executable form of the paper's
 * central hardware/software trade.
 *
 * Fetches go through a decode memo: a direct-mapped slot per PC that
 * hits only when it holds the word just fetched. Decoding is a pure
 * function of the word, so no write ever invalidates a slot
 * (self-modifying code and MMIO fetches simply miss), and the memo
 * shares no state with the pipeline Cpu's address-keyed predecode
 * cache: the oracle stays independent of the machine it checks.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "sim/cpu.h"
#include "sim/memory.h"

namespace mips::sim {

/** The sequential-semantics executor. */
class FunctionalCpu
{
  public:
    explicit FunctionalCpu(PhysMemory &memory);

    /** Reset to PC = `pc` with cleared registers. */
    void reset(uint32_t pc = 0);

    /** Execute one instruction. */
    StopReason step();

    /** Run until HALT, an error, or the cycle budget is exhausted. */
    StopReason run(uint64_t max_cycles = 10'000'000);

    uint32_t reg(isa::Reg r) const { return regs_[r]; }
    void setReg(isa::Reg r, uint32_t value);
    uint32_t lo() const { return lo_; }
    uint32_t pc() const { return pc_; }
    void setPc(uint32_t pc) { pc_ = pc; }

    /** Instructions executed. */
    uint64_t instructions() const { return instructions_; }

    /** Signed-overflow events observed (never trap here). */
    uint64_t overflows() const { return overflows_; }

    /**
     * Hook invoked on TRAP with the trap code; return true to continue
     * after the trap, false to stop (default: stop).
     */
    void
    setTrapHandler(std::function<bool(uint16_t)> handler)
    {
        trap_handler_ = std::move(handler);
    }

    const std::string &errorMessage() const { return error_; }

  private:
    /** A memo slot holds a word and its decode, 28 bytes with the
     *  packed Instruction (28 KB for the memo); a fresh slot holds
     *  word 0 (a nop). Illegal words are never stored. */
    struct MemoSlot
    {
        uint32_t word;
        isa::Instruction inst;
    };
    static_assert(sizeof(MemoSlot) <= 28);
    static constexpr uint32_t kMemoSlots = 1u << 10; ///< power of 2

    PhysMemory &mem_;
    std::vector<MemoSlot> memo_;
    std::array<uint32_t, isa::kNumRegs> regs_{};
    uint32_t lo_ = 0;
    uint32_t pc_ = 0;
    bool halted_ = false;
    uint64_t instructions_ = 0;
    uint64_t overflows_ = 0;
    std::string error_;
    std::function<bool(uint16_t)> trap_handler_;
};

} // namespace mips::sim
