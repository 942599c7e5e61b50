/**
 * @file
 * The 32-bit instruction word: a container of pieces.
 *
 * An instruction word holds at most one ALU piece plus at most one
 * transfer piece (memory, branch, jump, or special). The packed
 * ALU+memory combination is the paper's "instruction pieces ... packed
 * into one 32-bit word" (Section 4.2.1); packing is what lets an
 * instruction use both the ALU and the data-memory interface in one
 * cycle, and unpacked ALU-only words are what leave the *free memory
 * cycles* of Section 3.1.
 *
 * This header also exposes the register read/write sets used by the
 * reorganizer's dependence analysis.
 */
#pragma once

#include <cstdint>
#include <new>
#include <string>
#include <type_traits>

#include "isa/alu.h"
#include "isa/branch.h"
#include "isa/mem.h"
#include "isa/special.h"

namespace mips::isa {

/**
 * A decoded 32-bit instruction word, packed as the word is: one ALU
 * piece, one transfer piece (memory, branch, jump or special) in a
 * union, and a byte saying which of them are present. The type holds
 * at most one transfer piece, so setting one replaces the other.
 *
 * The accessors return the piece, or null when it is absent; the
 * non-const ones allow edits in place (`inst.branch()->offset = k`).
 */
class Instruction
{
  public:
    const AluPiece *alu() const { return has(kAlu) ? &alu_ : nullptr; }
    AluPiece *alu() { return has(kAlu) ? &alu_ : nullptr; }
    const MemPiece *mem() const { return has(kMem) ? &xfer_.mem : nullptr; }
    MemPiece *mem() { return has(kMem) ? &xfer_.mem : nullptr; }
    const BranchPiece *
    branch() const
    {
        return has(kBranch) ? &xfer_.branch : nullptr;
    }
    BranchPiece *branch() { return has(kBranch) ? &xfer_.branch : nullptr; }
    const JumpPiece *
    jump() const
    {
        return has(kJump) ? &xfer_.jump : nullptr;
    }
    JumpPiece *jump() { return has(kJump) ? &xfer_.jump : nullptr; }
    const SpecialPiece *
    special() const
    {
        return has(kSpecial) ? &xfer_.special : nullptr;
    }
    SpecialPiece *
    special()
    {
        return has(kSpecial) ? &xfer_.special : nullptr;
    }

    void
    setAlu(const AluPiece &p)
    {
        alu_ = p;
        pieces_ |= kAlu;
    }
    void clearAlu() { pieces_ &= static_cast<uint8_t>(~kAlu); }

    /** Each transfer setter replaces whichever transfer piece the word
     *  held. */
    void setMem(const MemPiece &p) { setTransfer(&xfer_.mem, p, kMem); }
    void
    setBranch(const BranchPiece &p)
    {
        setTransfer(&xfer_.branch, p, kBranch);
    }
    void setJump(const JumpPiece &p) { setTransfer(&xfer_.jump, p, kJump); }
    void
    setSpecial(const SpecialPiece &p)
    {
        setTransfer(&xfer_.special, p, kSpecial);
    }
    void clearTransfer() { pieces_ &= kAlu; }

    /** True if the word holds a memory, branch, jump or special piece. */
    bool hasTransfer() const { return (pieces_ & ~kAlu) != 0; }

    /** A word with no pieces is a no-op. */
    bool isNop() const { return pieces_ == 0; }

    /** True if the word ends a basic block (branch/jump/trap/rfe/halt). */
    bool isControlTransfer() const;

    /** True if the word contains a load or store that touches memory. */
    bool referencesMemory() const;

    /** True if the word contains a store. */
    bool isStore() const;

    /** True if the word contains a memory-referencing load. */
    bool isLoad() const;

    /** Equal when the same pieces are present and equal; bytes left in
     *  an absent piece never count. */
    bool operator==(const Instruction &other) const;

    // --- Constructors for the common shapes ---------------------------

    static Instruction makeNop();
    static Instruction makeAlu(AluPiece p);
    static Instruction makeMem(MemPiece p);
    static Instruction makePacked(AluPiece a, MemPiece m);
    static Instruction makeBranch(BranchPiece p);
    static Instruction makeJump(JumpPiece p);
    static Instruction makeSpecial(SpecialPiece p);
    static Instruction makeHalt();
    static Instruction makeTrap(uint16_t code);

  private:
    // Bits of pieces_; at most one of the transfer bits is set.
    static constexpr uint8_t kAlu = 1;
    static constexpr uint8_t kMem = 2;
    static constexpr uint8_t kBranch = 4;
    static constexpr uint8_t kJump = 8;
    static constexpr uint8_t kSpecial = 16;

    bool has(uint8_t bit) const { return (pieces_ & bit) != 0; }

    /** Make `*member` the union's active member, holding `p`. */
    template <typename Piece>
    void
    setTransfer(Piece *member, const Piece &p, uint8_t bit)
    {
        ::new (member) Piece(p);
        pieces_ = static_cast<uint8_t>((pieces_ & kAlu) | bit);
    }

    AluPiece alu_;
    uint8_t pieces_ = 0;
    union Transfer
    {
        MemPiece mem;
        BranchPiece branch;
        JumpPiece jump;
        SpecialPiece special;

        Transfer() : mem{} {}
    } xfer_;
};

static_assert(std::is_trivially_copyable_v<Instruction>);
static_assert(sizeof(Instruction) <= 24,
              "one ALU piece, a presence byte and one transfer piece");

/**
 * Register read/write summary of an instruction word, used for
 * dependence analysis. GPRs are a 16-bit mask; the special state bits
 * cover the LO byte selector and "any special processor register"
 * (surprise register etc., which the reorganizer never reorders across).
 */
struct RegUse
{
    uint16_t gpr_reads = 0;
    uint16_t gpr_writes = 0;
    bool reads_lo = false;
    bool writes_lo = false;
    bool touches_system_state = false; ///< MFS/MTS/RFE/TRAP/HALT
    bool reads_memory = false;
    bool writes_memory = false;

    bool
    readsGpr(Reg r) const
    {
        return (gpr_reads >> r) & 1;
    }

    bool
    writesGpr(Reg r) const
    {
        return (gpr_writes >> r) & 1;
    }
};

/** Compute the register/memory use summary for a word. */
RegUse regUse(const Instruction &inst);

/** Register/memory use of a single ALU piece. */
RegUse regUseAlu(const AluPiece &p);

/** Register/memory use of a single memory piece. */
RegUse regUseMem(const MemPiece &p);

/**
 * Validate an instruction word against the encoding rules. Returns an
 * empty string when valid, otherwise a description of the violation.
 *
 * Rules: an ALU piece may share a word only with a memory piece, and
 * then only if canPack() allows the combination; each piece's fields
 * fit their encoding. (The type holds one transfer piece at most.)
 */
std::string validate(const Instruction &inst);

/**
 * True if this ALU piece and memory piece fit the packed word format:
 * the ALU op must be in the compact 3-bit set {ADD, SUB, AND, OR, XOR,
 * SLL, XC, IC} and the memory piece must be displacement(base) with an
 * unsigned 4-bit displacement.
 */
bool canPack(const AluPiece &a, const MemPiece &m);

/** True if this ALU op is encodable in the packed format. */
bool aluOpPackable(AluOp op);

} // namespace mips::isa
