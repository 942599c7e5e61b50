#include "isa/encoding.h"

#include "support/bits.h"
#include "support/logging.h"

namespace mips::isa {

using support::bits;
using support::insertBits;
using support::sext;

namespace {

constexpr uint32_t kFmtSpecial = 0;
constexpr uint32_t kFmtAlu = 1;
constexpr uint32_t kFmtMem = 2;
constexpr uint32_t kFmtPacked = 3;
constexpr uint32_t kFmtBranch = 4;
constexpr uint32_t kFmtJump = 5;

/** Mapping of packable ALU ops onto the 3-bit packed opcode field. */
constexpr AluOp kPackedOps[8] = {
    AluOp::ADD, AluOp::SUB, AluOp::AND, AluOp::OR,
    AluOp::XOR, AluOp::SLL, AluOp::XC, AluOp::IC,
};

int
packedOpIndex(AluOp op)
{
    for (int i = 0; i < 8; ++i)
        if (kPackedOps[i] == op)
            return i;
    return -1;
}

uint32_t
encodeAluFields(const AluPiece &a, uint32_t word)
{
    word = insertBits(word, 28, 23, static_cast<uint32_t>(a.op));
    word = insertBits(word, 22, 19, a.rd);
    word = insertBits(word, 18, 15, a.rs);
    if (a.op == AluOp::MOVI8) {
        word = insertBits(word, 13, 6, a.imm8);
    } else {
        word = insertBits(word, 14, 14, a.src2.is_imm ? 1 : 0);
        word = insertBits(word, 13, 10,
                          a.src2.is_imm ? a.src2.imm4 : a.src2.reg);
        word = insertBits(word, 9, 6, static_cast<uint32_t>(a.cond));
    }
    return word;
}

support::Result<Instruction>
decodeSpecial(uint32_t word)
{
    SpecialPiece p;
    uint32_t sub = bits(word, 28, 25);
    switch (sub) {
      case 0:
        // All-zero payload is the canonical no-op; a plain NOP word
        // decodes to an empty instruction.
        return Instruction::makeNop();
      case 1:
        p.op = SpecialOp::TRAP;
        p.trap_code = static_cast<uint16_t>(bits(word, 24, 13));
        break;
      case 2:
        p.op = SpecialOp::RFE;
        break;
      case 3:
      case 4:
        p.op = sub == 3 ? SpecialOp::MFS : SpecialOp::MTS;
        p.reg = static_cast<Reg>(bits(word, 24, 21));
        if (bits(word, 20, 18) >= kNumSpecialRegs)
            return support::makeError("bad special register");
        p.sreg = static_cast<SpecialReg>(bits(word, 20, 18));
        break;
      case 15:
        p.op = SpecialOp::HALT;
        break;
      default:
        return support::makeError("bad special subcode");
    }
    return Instruction::makeSpecial(p);
}

support::Result<Instruction>
decodeAlu(uint32_t word)
{
    if (bits(word, 28, 23) >= kNumAluOps)
        return support::makeError("bad ALU opcode");
    AluPiece a;
    a.op = static_cast<AluOp>(bits(word, 28, 23));
    a.rd = static_cast<Reg>(bits(word, 22, 19));
    a.rs = static_cast<Reg>(bits(word, 18, 15));
    if (a.op == AluOp::MOVI8) {
        a.imm8 = static_cast<uint8_t>(bits(word, 13, 6));
    } else {
        uint8_t field = static_cast<uint8_t>(bits(word, 13, 10));
        a.src2 = bits(word, 14, 14) ? Src2::fromImm(field)
                                    : Src2::fromReg(field);
        a.cond = static_cast<Cond>(bits(word, 9, 6));
    }
    return Instruction::makeAlu(a);
}

support::Result<Instruction>
decodeMem(uint32_t word)
{
    if (bits(word, 28, 26) > static_cast<uint32_t>(MemMode::BASE_SHIFT))
        return support::makeError("bad memory mode");
    MemPiece m;
    m.mode = static_cast<MemMode>(bits(word, 28, 26));
    m.is_store = bits(word, 25, 25);
    m.rd = static_cast<Reg>(bits(word, 24, 21));
    switch (m.mode) {
      case MemMode::LONG_IMM:
        if (m.is_store)
            return support::makeError("long-immediate store");
        m.imm = static_cast<int32_t>(sext(bits(word, 20, 0),
                                          kLongImmBits));
        break;
      case MemMode::ABSOLUTE:
        m.imm = static_cast<int32_t>(bits(word, 20, 0));
        break;
      case MemMode::DISP:
        m.base = static_cast<Reg>(bits(word, 20, 17));
        m.imm = static_cast<int32_t>(sext(bits(word, 16, 0), kDispBits));
        break;
      case MemMode::BASE_INDEX:
        m.base = static_cast<Reg>(bits(word, 20, 17));
        m.index = static_cast<Reg>(bits(word, 16, 13));
        break;
      case MemMode::BASE_SHIFT:
        m.base = static_cast<Reg>(bits(word, 20, 17));
        m.index = static_cast<Reg>(bits(word, 16, 13));
        m.shift = static_cast<uint8_t>(bits(word, 12, 10));
        break;
    }
    return Instruction::makeMem(m);
}

support::Result<Instruction>
decodePacked(uint32_t word)
{
    MemPiece m;
    m.mode = MemMode::DISP;
    m.is_store = bits(word, 28, 28);
    m.rd = static_cast<Reg>(bits(word, 27, 24));
    m.base = static_cast<Reg>(bits(word, 23, 20));
    m.imm = static_cast<int32_t>(bits(word, 19, 16));

    AluPiece a;
    a.op = kPackedOps[bits(word, 15, 13)];
    a.rd = static_cast<Reg>(bits(word, 12, 9));
    a.rs = static_cast<Reg>(bits(word, 8, 5));
    uint8_t field = static_cast<uint8_t>(bits(word, 3, 0));
    a.src2 = bits(word, 4, 4) ? Src2::fromImm(field)
                              : Src2::fromReg(field);
    return Instruction::makePacked(a, m);
}

support::Result<Instruction>
decodeBranch(uint32_t word)
{
    BranchPiece b;
    b.cond = static_cast<Cond>(bits(word, 28, 25));
    b.rs = static_cast<Reg>(bits(word, 24, 21));
    uint8_t field = static_cast<uint8_t>(bits(word, 19, 16));
    b.src2 = bits(word, 20, 20) ? Src2::fromImm(field)
                                : Src2::fromReg(field);
    b.offset = static_cast<int32_t>(sext(bits(word, 15, 0),
                                         kBranchOffsetBits));
    return Instruction::makeBranch(b);
}

support::Result<Instruction>
decodeJump(uint32_t word)
{
    JumpPiece j;
    j.kind = static_cast<JumpKind>(bits(word, 28, 27));
    // The INDIRECT sub-code carries a discriminator: bit 22 set means
    // the table-dispatch form (plain indirect words leave it clear).
    if (j.kind == JumpKind::INDIRECT && bits(word, 22, 22))
        j.kind = JumpKind::TABLE;
    switch (j.kind) {
      case JumpKind::DIRECT:
        j.target_addr = static_cast<uint32_t>(bits(word, 23, 0));
        break;
      case JumpKind::INDIRECT:
        j.target_reg = static_cast<Reg>(bits(word, 26, 23));
        break;
      case JumpKind::TABLE:
        j.target_reg = static_cast<Reg>(bits(word, 26, 23));
        j.index = static_cast<Reg>(bits(word, 21, 18));
        break;
      case JumpKind::CALL_DIRECT:
        j.link = static_cast<Reg>(bits(word, 26, 23));
        j.target_addr = static_cast<uint32_t>(bits(word, 22, 0));
        break;
      case JumpKind::CALL_INDIRECT:
        j.link = static_cast<Reg>(bits(word, 26, 23));
        j.target_reg = static_cast<Reg>(bits(word, 22, 19));
        break;
    }
    return Instruction::makeJump(j);
}

} // namespace

uint32_t
encode(const Instruction &inst)
{
    std::string err = validate(inst);
    if (!err.empty())
        support::panic("encode: invalid instruction: %s", err.c_str());

    uint32_t word = 0;

    if (inst.isNop())
        return insertBits(0, 31, 29, kFmtSpecial);

    if (inst.alu() && inst.mem()) {
        const AluPiece &a = *inst.alu();
        const MemPiece &m = *inst.mem();
        word = insertBits(word, 31, 29, kFmtPacked);
        word = insertBits(word, 28, 28, m.is_store ? 1 : 0);
        word = insertBits(word, 27, 24, m.rd);
        word = insertBits(word, 23, 20, m.base);
        word = insertBits(word, 19, 16, static_cast<uint32_t>(m.imm));
        word = insertBits(word, 15, 13,
                          static_cast<uint32_t>(packedOpIndex(a.op)));
        word = insertBits(word, 12, 9, a.rd);
        word = insertBits(word, 8, 5, a.rs);
        word = insertBits(word, 4, 4, a.src2.is_imm ? 1 : 0);
        word = insertBits(word, 3, 0,
                          a.src2.is_imm ? a.src2.imm4 : a.src2.reg);
        return word;
    }

    if (inst.alu()) {
        word = insertBits(word, 31, 29, kFmtAlu);
        return encodeAluFields(*inst.alu(), word);
    }

    if (inst.mem()) {
        const MemPiece &m = *inst.mem();
        word = insertBits(word, 31, 29, kFmtMem);
        word = insertBits(word, 28, 26, static_cast<uint32_t>(m.mode));
        word = insertBits(word, 25, 25, m.is_store ? 1 : 0);
        word = insertBits(word, 24, 21, m.rd);
        switch (m.mode) {
          case MemMode::LONG_IMM:
          case MemMode::ABSOLUTE:
            word = insertBits(word, 20, 0, static_cast<uint32_t>(m.imm));
            break;
          case MemMode::DISP:
            word = insertBits(word, 20, 17, m.base);
            word = insertBits(word, 16, 0, static_cast<uint32_t>(m.imm));
            break;
          case MemMode::BASE_INDEX:
            word = insertBits(word, 20, 17, m.base);
            word = insertBits(word, 16, 13, m.index);
            break;
          case MemMode::BASE_SHIFT:
            word = insertBits(word, 20, 17, m.base);
            word = insertBits(word, 16, 13, m.index);
            word = insertBits(word, 12, 10, m.shift);
            break;
        }
        return word;
    }

    if (inst.branch()) {
        const BranchPiece &b = *inst.branch();
        word = insertBits(word, 31, 29, kFmtBranch);
        word = insertBits(word, 28, 25, static_cast<uint32_t>(b.cond));
        word = insertBits(word, 24, 21, b.rs);
        word = insertBits(word, 20, 20, b.src2.is_imm ? 1 : 0);
        word = insertBits(word, 19, 16,
                          b.src2.is_imm ? b.src2.imm4 : b.src2.reg);
        word = insertBits(word, 15, 0, static_cast<uint32_t>(b.offset));
        return word;
    }

    if (inst.jump()) {
        const JumpPiece &j = *inst.jump();
        word = insertBits(word, 31, 29, kFmtJump);
        word = insertBits(word, 28, 27,
                          j.kind == JumpKind::TABLE
                              ? static_cast<uint32_t>(JumpKind::INDIRECT)
                              : static_cast<uint32_t>(j.kind));
        switch (j.kind) {
          case JumpKind::DIRECT:
            word = insertBits(word, 23, 0, j.target_addr);
            break;
          case JumpKind::INDIRECT:
            word = insertBits(word, 26, 23, j.target_reg);
            break;
          case JumpKind::TABLE:
            word = insertBits(word, 26, 23, j.target_reg);
            word = insertBits(word, 22, 22, 1);
            word = insertBits(word, 21, 18, j.index);
            break;
          case JumpKind::CALL_DIRECT:
            word = insertBits(word, 26, 23, j.link);
            word = insertBits(word, 22, 0, j.target_addr);
            break;
          case JumpKind::CALL_INDIRECT:
            word = insertBits(word, 26, 23, j.link);
            word = insertBits(word, 22, 19, j.target_reg);
            break;
        }
        return word;
    }

    // Special piece.
    const SpecialPiece &p = *inst.special();
    word = insertBits(word, 31, 29, kFmtSpecial);
    switch (p.op) {
      case SpecialOp::NOP:
        break;
      case SpecialOp::TRAP:
        word = insertBits(word, 28, 25, 1);
        word = insertBits(word, 24, 13, p.trap_code);
        break;
      case SpecialOp::RFE:
        word = insertBits(word, 28, 25, 2);
        break;
      case SpecialOp::MFS:
      case SpecialOp::MTS:
        word = insertBits(word, 28, 25, p.op == SpecialOp::MFS ? 3 : 4);
        word = insertBits(word, 24, 21, p.reg);
        word = insertBits(word, 20, 18, static_cast<uint32_t>(p.sreg));
        break;
      case SpecialOp::HALT:
        word = insertBits(word, 28, 25, 15);
        break;
    }
    return word;
}

support::Result<Instruction>
decode(uint32_t word)
{
    switch (bits(word, 31, 29)) {
      case kFmtSpecial: return decodeSpecial(word);
      case kFmtAlu:     return decodeAlu(word);
      case kFmtMem:     return decodeMem(word);
      case kFmtPacked:  return decodePacked(word);
      case kFmtBranch:  return decodeBranch(word);
      case kFmtJump:    return decodeJump(word);
      default:
        return support::makeError("reserved instruction format");
    }
}

} // namespace mips::isa
