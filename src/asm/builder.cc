#include "asm/builder.h"

#include "support/bits.h"

namespace mips::assembler {

using isa::AluOp;
using isa::Instruction;
using isa::JumpKind;
using isa::MemMode;
using isa::MemPiece;
using isa::Reg;
using support::makeError;

namespace {

/** The 4-bit inline constant of ALU, set and branch operands. */
support::Result<isa::Src2>
src2Of(Operand op)
{
    if (!op.is_imm)
        return isa::Src2::fromReg(op.reg);
    if (op.imm < 0 || op.imm > 15) {
        return makeError("inline constant out of range 0..15 "
                         "(use reverse operators for negatives, "
                         "movi/ldi for larger values)");
    }
    return isa::Src2::fromImm(static_cast<uint8_t>(op.imm));
}

InstResult
validMem(const MemPiece &m)
{
    std::string err = isa::memValidate(m);
    if (!err.empty())
        return makeError(err);
    return Instruction::makeMem(m);
}

} // namespace

MemPiece
atDisp(int64_t disp, Reg base)
{
    return {.mode = MemMode::DISP, .base = base,
            .imm = static_cast<int32_t>(disp)};
}

MemPiece
atIndex(Reg base, Reg index)
{
    return {.mode = MemMode::BASE_INDEX, .base = base, .index = index};
}

MemPiece
atShift(Reg base, Reg index, uint8_t shift)
{
    return {.mode = MemMode::BASE_SHIFT, .base = base, .index = index,
            .shift = shift};
}

MemPiece
atAbsolute(int64_t addr)
{
    return {.mode = MemMode::ABSOLUTE, .imm = static_cast<int32_t>(addr)};
}

InstResult
alu(AluOp op, Reg rs, Operand src2, Reg rd)
{
    auto s = src2Of(src2);
    if (!s.ok())
        return s.error();
    return Instruction::makeAlu(
        {.op = op, .rd = rd, .rs = rs, .src2 = s.value()});
}

InstResult
alu(AluOp op, Reg rs, Reg rd)
{
    return Instruction::makeAlu({.op = op, .rd = rd, .rs = rs, .src2 = {}});
}

InstResult
set(isa::Cond cond, Reg rs, Operand src2, Reg rd)
{
    auto s = src2Of(src2);
    if (!s.ok())
        return s.error();
    return Instruction::makeAlu({.op = AluOp::SET, .rd = rd, .rs = rs,
                                 .src2 = s.value(), .cond = cond});
}

InstResult
movi(int64_t value, Reg rd)
{
    if (value < 0 || value > 255)
        return makeError("movi constant out of range 0..255");
    return Instruction::makeAlu({.op = AluOp::MOVI8, .rd = rd, .src2 = {},
                                 .imm8 = static_cast<uint8_t>(value)});
}

InstResult
mov(Reg rs, Reg rd)
{
    return alu(AluOp::ADD, rs, Operand::ofImm(0), rd);
}

InstResult
li(int64_t value, Reg rd)
{
    if (value >= 0 && value <= 255)
        return movi(value, rd);
    if (!support::fitsSigned(value, isa::kLongImmBits))
        return makeError("li constant exceeds 21 bits; use a .word pool");
    return ldi(value, rd);
}

InstResult
ldi(int64_t value, Reg rd)
{
    return validMem({.mode = MemMode::LONG_IMM, .rd = rd,
                     .imm = static_cast<int32_t>(value)});
}

InstResult
la(int64_t addr, Reg rd)
{
    // Unchecked, as an address resolved by link() would be: link()
    // validates the final word.
    return Instruction::makeMem({.mode = MemMode::LONG_IMM, .rd = rd,
                                 .imm = static_cast<int32_t>(addr)});
}

InstResult
load(MemPiece address, Reg rd)
{
    address.rd = rd;
    return validMem(address);
}

InstResult
store(Reg rd, MemPiece address)
{
    address.is_store = true;
    address.rd = rd;
    return validMem(address);
}

InstResult
branch(isa::Cond cond, Reg rs, Operand src2, int64_t offset)
{
    auto s = src2Of(src2);
    if (!s.ok())
        return s.error();
    return Instruction::makeBranch(
        {.cond = cond, .rs = rs, .src2 = s.value(),
         .offset = static_cast<int32_t>(offset)});
}

InstResult
jump(JumpKind kind, uint32_t addr, Reg rs, Reg link)
{
    return Instruction::makeJump({kind, addr, rs, isa::kZeroReg, link});
}

InstResult
call(uint32_t addr, Reg link)
{
    return jump(JumpKind::CALL_DIRECT, addr, isa::kZeroReg, link);
}

InstResult
jtab(Reg base, Reg index)
{
    return Instruction::makeJump(
        {JumpKind::TABLE, 0, base, index, isa::kLinkReg});
}

InstResult
nop()
{
    return Instruction::makeNop();
}

InstResult
special(isa::SpecialOp op, Reg reg, isa::SpecialReg sreg)
{
    return Instruction::makeSpecial({.op = op, .reg = reg, .sreg = sreg});
}

InstResult
trap(int64_t code)
{
    if (code < 0 || code >= (1 << isa::kTrapCodeBits))
        return makeError("bad trap code");
    return Instruction::makeTrap(static_cast<uint16_t>(code));
}

InstResult
pack(const Instruction &a, const Instruction &b)
{
    const Instruction &alu_word = a.alu() ? a : b;
    const Instruction &mem_word = a.alu() ? b : a;
    if (!alu_word.alu() || !mem_word.mem())
        return makeError("a packed word needs one ALU and one memory piece");
    Instruction packed =
        Instruction::makePacked(*alu_word.alu(), *mem_word.mem());
    std::string err = isa::validate(packed);
    if (!err.empty())
        return makeError(err);
    return packed;
}

// ------------------------------------------------------- UnitBuilder

LabelId
UnitBuilder::intern(std::string_view name)
{
    if (name.empty())
        return kNoLabel;
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    LabelId id = unit_.labels.add(name);
    ids_.emplace(name, id);
    return id;
}

void
UnitBuilder::label(LabelId id)
{
    LabelTable &labels = unit_.labels;
    // A name defined a second time gets an id of its own for that
    // definition; references keep resolving to the first.
    if (labels.defined(id))
        id = labels.redefine(id);
    labels.setItem(id, static_cast<uint32_t>(unit_.items.size()));
    if (pending_ == kNoLabel)
        pending_ = id;
    else
        labels.setNext(pending_last_, id);
    pending_last_ = id;
}

Item &
UnitBuilder::add(Instruction inst, LabelId target)
{
    Item &item = unit_.items.emplace_back();
    item.inst = inst;
    item.target = target;
    item.label = pending_;
    pending_ = pending_last_ = kNoLabel;
    item.no_reorder = no_reorder;
    item.source_line = line;
    return item;
}

Item &
UnitBuilder::data(uint32_t value, LabelId target)
{
    Item &item = add({}, target);
    item.is_data = true;
    item.data_value = value;
    return item;
}

bool
UnitBuilder::space(int64_t count)
{
    if (count < 0 || count > kMaxSpaceWords)
        return false;
    for (int64_t i = 0; i < count; ++i)
        data(0);
    return true;
}

void
UnitBuilder::append(const Unit &unit)
{
    const LabelTable &from = unit.labels;
    std::vector<LabelId> ids(from.size(), kNoLabel);
    auto idOf = [&](LabelId id) {
        if (id == kNoLabel)
            return kNoLabel;
        LabelId &mapped = ids[from.first(id)];
        if (mapped == kNoLabel)
            mapped = intern(from.name(id));
        return mapped;
    };
    for (const Item &item : unit.items) {
        for (LabelId id : from.chain(item.label))
            label(idOf(id));
        LabelId head = pending_;
        Item &copy = unit_.items.emplace_back(item);
        copy.source_line += line - 1;
        copy.target = idOf(item.target);
        copy.label = head;
        pending_ = pending_last_ = kNoLabel;
    }
    for (LabelId id : from.chain(unit.trailing))
        label(idOf(id));
}

Unit
UnitBuilder::finish()
{
    unit_.trailing = pending_;
    pending_ = pending_last_ = kNoLabel;
    ids_.clear();
    // A finished unit is long-lived (a Session caches it for the whole
    // chain), so it keeps no growth slack: up to half of a large
    // unit's item array would be unused.
    unit_.items.shrink_to_fit();
    Unit out = std::move(unit_);
    unit_ = Unit{};
    return out;
}

} // namespace mips::assembler
