#include "isa/disasm.h"

#include "support/logging.h"

namespace mips::isa {

using support::strprintf;

namespace {

std::string
src2Str(const Src2 &s)
{
    if (s.is_imm)
        return strprintf("#%d", s.imm4);
    return regName(s.reg);
}

} // namespace

std::string
disasmAlu(const AluPiece &p)
{
    switch (p.op) {
      case AluOp::MOVI8:
        return strprintf("movi #%d, %s", p.imm8, regName(p.rd).c_str());
      case AluOp::SET:
        return strprintf("set%s %s, %s, %s", condName(p.cond).c_str(),
                         regName(p.rs).c_str(), src2Str(p.src2).c_str(),
                         regName(p.rd).c_str());
      case AluOp::NOT:
        return strprintf("not %s, %s", regName(p.rs).c_str(),
                         regName(p.rd).c_str());
      case AluOp::MTLO:
        return strprintf("mtlo %s", regName(p.rs).c_str());
      case AluOp::MFLO:
        return strprintf("mflo %s", regName(p.rd).c_str());
      case AluOp::IC:
        return strprintf("ic %s, %s", regName(p.rs).c_str(),
                         regName(p.rd).c_str());
      case AluOp::MSTEP:
      case AluOp::DSTEP:
        return strprintf("%s %s, %s", aluOpName(p.op).c_str(),
                         regName(p.rs).c_str(), regName(p.rd).c_str());
      default:
        return strprintf("%s %s, %s, %s", aluOpName(p.op).c_str(),
                         regName(p.rs).c_str(), src2Str(p.src2).c_str(),
                         regName(p.rd).c_str());
    }
}

std::string
disasmMem(const MemPiece &p)
{
    const char *op = p.is_store ? "st" : "ld";
    std::string data = regName(p.rd);
    switch (p.mode) {
      case MemMode::LONG_IMM:
        return strprintf("ldi #%d, %s", p.imm, data.c_str());
      case MemMode::ABSOLUTE:
        if (p.is_store)
            return strprintf("st %s, @%d", data.c_str(), p.imm);
        return strprintf("ld @%d, %s", p.imm, data.c_str());
      case MemMode::DISP:
        if (p.is_store) {
            return strprintf("st %s, %d(%s)", data.c_str(), p.imm,
                             regName(p.base).c_str());
        }
        return strprintf("ld %d(%s), %s", p.imm,
                         regName(p.base).c_str(), data.c_str());
      case MemMode::BASE_INDEX:
        if (p.is_store) {
            return strprintf("st %s, (%s+%s)", data.c_str(),
                             regName(p.base).c_str(),
                             regName(p.index).c_str());
        }
        return strprintf("ld (%s+%s), %s", regName(p.base).c_str(),
                         regName(p.index).c_str(), data.c_str());
      case MemMode::BASE_SHIFT:
        if (p.is_store) {
            return strprintf("st %s, (%s+%s>>%d)", data.c_str(),
                             regName(p.base).c_str(),
                             regName(p.index).c_str(), p.shift);
        }
        return strprintf("ld (%s+%s>>%d), %s", regName(p.base).c_str(),
                         regName(p.index).c_str(), p.shift,
                         data.c_str());
    }
    support::panic("disasmMem: bad mode (op %s)", op);
}

std::string
disasm(const Instruction &inst, uint32_t pc)
{
    if (inst.isNop())
        return "nop";

    std::string out;
    if (inst.alu())
        out = disasmAlu(*inst.alu());

    if (inst.mem()) {
        std::string mem = disasmMem(*inst.mem());
        out = out.empty() ? mem : out + " | " + mem;
    } else if (inst.branch()) {
        const BranchPiece &b = *inst.branch();
        uint32_t target = pc + 1 + static_cast<uint32_t>(b.offset);
        if (b.cond == Cond::ALWAYS) {
            out = strprintf("bra %u", target);
        } else {
            out = strprintf("b%s %s, %s, %u", condName(b.cond).c_str(),
                            regName(b.rs).c_str(),
                            src2Str(b.src2).c_str(), target);
        }
    } else if (inst.jump()) {
        const JumpPiece &j = *inst.jump();
        switch (j.kind) {
          case JumpKind::DIRECT:
            out = strprintf("jmp %u", j.target_addr);
            break;
          case JumpKind::INDIRECT:
            out = strprintf("jmp (%s)", regName(j.target_reg).c_str());
            break;
          case JumpKind::CALL_DIRECT:
            out = strprintf("call %u, %s", j.target_addr,
                            regName(j.link).c_str());
            break;
          case JumpKind::CALL_INDIRECT:
            out = strprintf("call (%s), %s",
                            regName(j.target_reg).c_str(),
                            regName(j.link).c_str());
            break;
          case JumpKind::TABLE:
            out = strprintf("jtab (%s+%s)",
                            regName(j.target_reg).c_str(),
                            regName(j.index).c_str());
            break;
        }
    } else if (inst.special()) {
        const SpecialPiece &p = *inst.special();
        switch (p.op) {
          case SpecialOp::NOP:
            out = "nop";
            break;
          case SpecialOp::TRAP:
            out = strprintf("trap #%d", p.trap_code);
            break;
          case SpecialOp::RFE:
            out = "rfe";
            break;
          case SpecialOp::MFS:
            out = strprintf("mfs %s, %s",
                            specialRegName(p.sreg).c_str(),
                            regName(p.reg).c_str());
            break;
          case SpecialOp::MTS:
            out = strprintf("mts %s, %s", regName(p.reg).c_str(),
                            specialRegName(p.sreg).c_str());
            break;
          case SpecialOp::HALT:
            out = "halt";
            break;
        }
    }
    return out;
}

} // namespace mips::isa
