/**
 * @file
 * The instruction builder: the one place where a mnemonic and its
 * operands become an instruction word.
 *
 * Both producers of units call it. The text parser (asm/assembler.cc)
 * only lexes a line and parses its operands; plc's code generator
 * already holds its operands in structured form. So every pseudo-op
 * (`li`, `la`, `mov`, `call`, `bra`, `set<cond>`) expands the same way
 * from either, and every constant and address is range-checked here.
 * A failed check is an Error without a line: the parser adds the line,
 * the code generator panics (its output must always build).
 *
 * A builder given a label operand (`la`, `ld @label`, branches, direct
 * jumps and calls) gets 0 for the address; the label's id goes into
 * Item::target and link() fills the field in.
 */
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "asm/unit.h"

namespace mips::assembler {

using InstResult = support::Result<isa::Instruction>;

/** Most zero words one `.space` (UnitBuilder::space) appends. */
constexpr int64_t kMaxSpaceWords = int64_t{1} << 20;

/** A second source (ALU src2, branch comparand): a register or a
 *  #constant, range-checked to the 4-bit inline field when built. */
struct Operand
{
    bool is_imm = false;
    isa::Reg reg = isa::kZeroReg;
    int64_t imm = 0;

    static Operand ofReg(isa::Reg r) { return {false, r, 0}; }
    static Operand ofImm(int64_t v) { return {true, isa::kZeroReg, v}; }
};

// --- Address operands of load() and store(): disp(base), (base+index),
// (base+index>>shift) and @addr.
isa::MemPiece atDisp(int64_t disp, isa::Reg base);
isa::MemPiece atIndex(isa::Reg base, isa::Reg index);
isa::MemPiece atShift(isa::Reg base, isa::Reg index, uint8_t shift);
isa::MemPiece atAbsolute(int64_t addr);

// --- ALU
/** add, sub, rsub, and, or, xor, sll, srl, sra, xc: rs, src2, rd. */
InstResult alu(isa::AluOp op, isa::Reg rs, Operand src2, isa::Reg rd);
/** not, ic, mstep, dstep (rs, rd), mtlo (rs) and mflo (rd). */
InstResult alu(isa::AluOp op, isa::Reg rs, isa::Reg rd);
InstResult set(isa::Cond cond, isa::Reg rs, Operand src2, isa::Reg rd);
InstResult movi(int64_t value, isa::Reg rd);
/** mov rs, rd: add rs, #0, rd. */
InstResult mov(isa::Reg rs, isa::Reg rd);

// --- Memory
/** li #imm, rd: movi when it fits 8 bits, else ldi. */
InstResult li(int64_t value, isa::Reg rd);
InstResult ldi(int64_t value, isa::Reg rd);
/** la addr, rd: a long immediate holding an address. */
InstResult la(int64_t addr, isa::Reg rd);
InstResult load(isa::MemPiece address, isa::Reg rd);
InstResult store(isa::Reg rd, isa::MemPiece address);

// --- Control transfer
/** b<cond> rs, src2; bra is branch(Cond::ALWAYS). `offset` is the
 *  relative word offset when no label supplies it. */
InstResult branch(isa::Cond cond, isa::Reg rs = isa::kZeroReg,
                  Operand src2 = {}, int64_t offset = 0);
/** jmp addr, jmp (rs), call addr, link and call (rs), link, by kind. */
InstResult jump(isa::JumpKind kind, uint32_t addr,
                isa::Reg rs = isa::kZeroReg, isa::Reg link = isa::kLinkReg);
/** call addr, link. */
InstResult call(uint32_t addr, isa::Reg link);
/** jtab (base+index). */
InstResult jtab(isa::Reg base, isa::Reg index);

// --- Special
InstResult nop();
/** halt, rfe, mfs sreg, reg and mts reg, sreg. */
InstResult special(isa::SpecialOp op, isa::Reg reg = isa::kZeroReg,
                   isa::SpecialReg sreg = isa::SpecialReg::LO);
InstResult trap(int64_t code);

/** Two pieces in one packed word ("alu | mem", either order). */
InstResult pack(const isa::Instruction &a, const isa::Instruction &b);

/**
 * Appends items to a unit. Labels defined before an item attach to
 * it; labels still pending at finish() trail the unit. Each item takes
 * the builder's current `line` and `no_reorder`.
 *
 * Names enter the unit's LabelTable through intern(), once each: the
 * builder keeps the one name -> id lookup a unit ever has, and drops
 * it at finish().
 */
class UnitBuilder
{
  public:
    int line = 1;
    bool no_reorder = false;

    /** The id of `name` in the unit being built, added on first use;
     *  kNoLabel for an empty name. */
    LabelId intern(std::string_view name);

    /** Define label `id` (an intern() result) at the next item's
     *  address. */
    void label(LabelId id);
    void label(std::string_view name) { label(intern(name)); }

    /** Append an instruction word; `target` is the label it refers
     *  to, if any. */
    Item &add(isa::Instruction inst, LabelId target = kNoLabel);

    /** Append a data word: `value`, or the address of label `target`. */
    Item &data(uint32_t value, LabelId target = kNoLabel);

    /** Append `count` zero data words (.space). False, appending
     *  nothing, when `count` is negative or above kMaxSpaceWords. */
    bool space(int64_t count);

    /** Append every item of `unit`, its lines shifted to start at
     *  `line`; its trailing labels become pending. */
    void append(const Unit &unit);

    /** Address of the next item. */
    uint32_t
    next() const
    {
        return unit_.origin + static_cast<uint32_t>(unit_.items.size());
    }
    bool empty() const { return unit_.items.empty(); }
    void setOrigin(uint32_t origin) { unit_.origin = origin; }

    /** The finished unit (the builder is left empty). */
    Unit finish();

  private:
    Unit unit_;
    /** Name -> id of every name interned so far (looked up by
     *  string_view). */
    struct NameHash
    {
        using is_transparent = void;
        size_t
        operator()(std::string_view name) const
        {
            return std::hash<std::string_view>{}(name);
        }
    };
    std::unordered_map<std::string, LabelId, NameHash, std::equal_to<>>
        ids_;
    /** Labels defined since the last item: the chain's ends. */
    LabelId pending_ = kNoLabel;
    LabelId pending_last_ = kNoLabel;
};

} // namespace mips::assembler
