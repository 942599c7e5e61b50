/**
 * @file
 * Interval + known-low-bits abstract interpretation over the CFG.
 *
 * The memory-safety checker (verify/memsafety.h) needs to know, for
 * every reachable instruction, what a register *can* hold: the word
 * addresses a load or store can touch, whether an index register's
 * low bits are provably non-zero, whether an ADD can leave the signed
 * 32-bit range, and what the surprise-register enable bits are. This
 * module computes exactly that: a forward fixpoint over the
 * delay-slot-aware CFG (verify/cfg.h) assigning every item an
 * abstract machine state.
 *
 * The abstract value domain is deliberately small and word-oriented:
 *
 *  - an **interval** [lo, hi] over the *unsigned* 32-bit value (the
 *    machine is word addressed, so addresses are unsigned words);
 *    wrap-around is modeled exactly when the whole interval shifts by
 *    one 2^32 window and collapses to TOP otherwise;
 *  - **known low bits**: the value's low `low_bits` bits equal
 *    `low_val` (a power-of-two congruence). This is what BASE_SHIFT
 *    alignment reasoning needs, and it survives AND/OR/SLL/SRL/ADD
 *    exactly;
 *  - a **widened** taint: set when a bound was blown open by loop
 *    widening. Widened intervals stay sound for MUST findings (they
 *    only ever grow), but the checker refuses to base MAY findings on
 *    them — a widened bound is an analysis artifact, not evidence.
 *
 * Besides the 16 GPRs the state tracks the LO byte selector, the
 * overflow-trap and memory-mapping enable bits (three-valued, updated
 * by MTS of the surprise register with a provably constant source)
 * and the on-chip segmentation size register. The entry state is the
 * post-reset machine: enables off (exception entry also clears them,
 * so re-entry at the dispatch address stays covered), registers
 * unknown, r0 hardwired to zero.
 *
 * Transfer functions mirror isa::evalAlu piece by piece; when every
 * input is a known constant the abstract result *is* the concrete
 * evalAlu result (the conformance test sweeps exactly this identity).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "verify/cfg.h"

namespace mips::verify {

/** Largest unsigned 32-bit value, as the int64 the intervals use. */
constexpr int64_t kWordMax = 0xffffffffll;

/** Mask of the low `k` bits of a word (every bit when k >= 32). */
constexpr uint32_t
maskBits(unsigned k)
{
    return k >= 32 ? 0xffffffffu : ((1u << k) - 1);
}

/** One abstract 32-bit value. */
struct AbsVal
{
    int64_t lo = 0;        ///< unsigned interval lower bound
    int64_t hi = kWordMax; ///< unsigned interval upper bound
    uint8_t low_bits = 0;  ///< number of provably known low bits, 0..32
    uint32_t low_val = 0;  ///< their value (bits >= low_bits are zero)
    bool widened = false;  ///< a bound came from loop widening

    static AbsVal top() { return AbsVal{}; }
    static AbsVal constant(uint32_t v);

    bool isTop() const { return lo == 0 && hi == kWordMax && !low_bits; }

    /** The single value this must be, if fully known. */
    std::optional<uint32_t> asConst() const;

    /** True if the concrete value is inside the abstraction (interval
     *  and low-bits agreement both). */
    bool contains(uint32_t v) const;

    /**
     * The interval reinterpreted as signed 32-bit values, when that
     * is representable as one interval: nullopt when the unsigned
     * interval straddles the sign boundary (the signed set would be
     * two disjoint ranges — callers must stay silent).
     */
    std::optional<std::pair<int64_t, int64_t>> signedRange() const;

    bool operator==(const AbsVal &) const = default;
};

/** Least upper bound of two abstract values. */
AbsVal joinVals(const AbsVal &a, const AbsVal &b);

/** Widening: like join, but a bound that moved past `before`'s is
 *  blown open to the domain extreme and tainted as widened. */
AbsVal widenVals(const AbsVal &before, const AbsVal &after);

/** Abstract counterpart of isa::AluOutputs. */
struct AluRangeResult
{
    AbsVal rd;
    AbsVal lo;
    bool writes_rd = false;
    bool writes_lo = false;
};

/**
 * Abstract transfer of one ALU piece: the sound image of
 * isa::evalAlu over the inputs. Exact (a constant) whenever every
 * input the op reads is constant.
 */
AluRangeResult evalAluRange(const isa::AluPiece &piece, const AbsVal &rs,
                            const AbsVal &src2, const AbsVal &rd_old,
                            const AbsVal &lo);

/** Three-valued surprise-register enable bit. */
enum class Flag : uint8_t
{
    NO = 0,
    YES = 1,
    UNKNOWN = 2,
};

/** Abstract machine state before one item executes. */
struct RegState
{
    AbsVal regs[isa::kNumRegs];
    AbsVal lo;                       ///< LO byte-selector register
    Flag ovf_enable = Flag::UNKNOWN; ///< surprise bit 4
    Flag map_enable = Flag::UNKNOWN; ///< surprise bit 6
    AbsVal seg_bits;                 ///< on-chip segmentation size
    bool reachable = false;

    bool operator==(const RegState &) const = default;
};

/** The abstract value of an ALU piece's second operand in `s`. */
AbsVal src2Val(const RegState &s, const isa::Src2 &src2);

/** The fixpoint: one in-state per item, plus solver statistics. */
struct RangeAnalysis
{
    const Cfg *cfg = nullptr;
    std::vector<RegState> in; ///< state *before* item i executes
    size_t reachable_items = 0;
    size_t widenings = 0; ///< bounds blown open (metric fodder)
    size_t iterations = 0; ///< item transfers evaluated
};

/** Run the forward fixpoint over a built CFG. */
RangeAnalysis analyzeValueRanges(const Cfg &cfg);

/**
 * Abstract effective word address of a memory-referencing piece in
 * `state`, resolving a symbolic operand (kNoLabel: none) through the
 * unit's labels (a `la`/absolute reference to a local label is
 * origin + item index).
 * Must not be called for LONG_IMM.
 */
AbsVal memAddressRange(const isa::MemPiece &piece,
                       assembler::LabelId target, const Cfg &cfg,
                       const RegState &state);

} // namespace mips::verify
