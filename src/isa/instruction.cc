#include "isa/instruction.h"

#include "support/bits.h"
#include "support/logging.h"

namespace mips::isa {

bool
specialRequiresPrivilege(const SpecialPiece &piece)
{
    switch (piece.op) {
      case SpecialOp::MTS:
        return true; // all special-register writes are privileged
      case SpecialOp::MFS:
        // LO and the saved return addresses are user-readable.
        return piece.sreg == SpecialReg::SURPRISE ||
               piece.sreg == SpecialReg::SEG_BITS ||
               piece.sreg == SpecialReg::SEG_PID ||
               piece.sreg == SpecialReg::FAULT;
      case SpecialOp::RFE:
        return true;
      default:
        return false;
    }
}

bool
Instruction::isControlTransfer() const
{
    if (branch() || jump())
        return true;
    if (const SpecialPiece *s = special()) {
        switch (s->op) {
          case SpecialOp::TRAP:
          case SpecialOp::RFE:
          case SpecialOp::HALT:
            return true;
          default:
            break;
        }
    }
    return false;
}

bool
Instruction::referencesMemory() const
{
    // A table-dispatch jump fetches its target word over the data
    // interface, so it occupies the data port exactly like a load.
    if (jump() && jumpIsTable(jump()->kind))
        return true;
    return mem() && memReferencesMemory(*mem());
}

bool
Instruction::isStore() const
{
    return mem() && mem()->is_store;
}

bool
Instruction::isLoad() const
{
    return mem() && !mem()->is_store && memReferencesMemory(*mem());
}

bool
Instruction::operator==(const Instruction &other) const
{
    if (pieces_ != other.pieces_)
        return false;
    if (has(kAlu) && !(alu_ == other.alu_))
        return false;
    switch (pieces_ & ~kAlu) {
      case kMem:
        return xfer_.mem == other.xfer_.mem;
      case kBranch:
        return xfer_.branch == other.xfer_.branch;
      case kJump:
        return xfer_.jump == other.xfer_.jump;
      case kSpecial:
        return xfer_.special == other.xfer_.special;
      default:
        return true;
    }
}

Instruction
Instruction::makeNop()
{
    return Instruction{};
}

Instruction
Instruction::makeAlu(AluPiece p)
{
    Instruction i;
    i.setAlu(p);
    return i;
}

Instruction
Instruction::makeMem(MemPiece p)
{
    Instruction i;
    i.setMem(p);
    return i;
}

Instruction
Instruction::makePacked(AluPiece a, MemPiece m)
{
    Instruction i;
    i.setAlu(a);
    i.setMem(m);
    return i;
}

Instruction
Instruction::makeBranch(BranchPiece p)
{
    Instruction i;
    i.setBranch(p);
    return i;
}

Instruction
Instruction::makeJump(JumpPiece p)
{
    Instruction i;
    i.setJump(p);
    return i;
}

Instruction
Instruction::makeSpecial(SpecialPiece p)
{
    Instruction i;
    i.setSpecial(p);
    return i;
}

Instruction
Instruction::makeHalt()
{
    SpecialPiece p;
    p.op = SpecialOp::HALT;
    return makeSpecial(p);
}

Instruction
Instruction::makeTrap(uint16_t code)
{
    SpecialPiece p;
    p.op = SpecialOp::TRAP;
    p.trap_code = code;
    return makeSpecial(p);
}

namespace {

void
markRead(RegUse *use, Reg r)
{
    if (r != kZeroReg)
        use->gpr_reads |= static_cast<uint16_t>(1u << r);
}

void
markWrite(RegUse *use, Reg r)
{
    if (r != kZeroReg)
        use->gpr_writes |= static_cast<uint16_t>(1u << r);
}

} // namespace

RegUse
regUseAlu(const AluPiece &p)
{
    RegUse use;
    if (aluReadsRs(p.op))
        markRead(&use, p.rs);
    if (aluReadsSrc2(p.op) && !p.src2.is_imm)
        markRead(&use, p.src2.reg);
    if (aluReadsRdOld(p.op))
        markRead(&use, p.rd);
    if (aluWritesRd(p.op))
        markWrite(&use, p.rd);
    use.reads_lo = aluReadsLo(p.op);
    use.writes_lo = aluWritesLo(p.op);
    return use;
}

RegUse
regUseMem(const MemPiece &p)
{
    RegUse use;
    if (memReadsBase(p))
        markRead(&use, p.base);
    if (memReadsIndex(p))
        markRead(&use, p.index);
    if (p.is_store) {
        markRead(&use, p.rd);
        use.writes_memory = true;
    } else {
        markWrite(&use, p.rd);
        use.reads_memory = memReferencesMemory(p);
    }
    return use;
}

RegUse
regUse(const Instruction &inst)
{
    RegUse use;
    auto merge = [&use](const RegUse &other) {
        use.gpr_reads |= other.gpr_reads;
        use.gpr_writes |= other.gpr_writes;
        use.reads_lo |= other.reads_lo;
        use.writes_lo |= other.writes_lo;
        use.touches_system_state |= other.touches_system_state;
        use.reads_memory |= other.reads_memory;
        use.writes_memory |= other.writes_memory;
    };

    if (inst.alu())
        merge(regUseAlu(*inst.alu()));
    if (inst.mem())
        merge(regUseMem(*inst.mem()));
    if (inst.branch()) {
        markRead(&use, inst.branch()->rs);
        if (!inst.branch()->src2.is_imm)
            markRead(&use, inst.branch()->src2.reg);
    }
    if (inst.jump()) {
        if (jumpIsIndirect(inst.jump()->kind))
            markRead(&use, inst.jump()->target_reg);
        if (jumpIsTable(inst.jump()->kind)) {
            markRead(&use, inst.jump()->target_reg);
            markRead(&use, inst.jump()->index);
            use.reads_memory = true;
        }
        if (jumpIsCall(inst.jump()->kind))
            markWrite(&use, inst.jump()->link);
    }
    if (inst.special()) {
        switch (inst.special()->op) {
          case SpecialOp::NOP:
            break;
          case SpecialOp::MFS:
            markWrite(&use, inst.special()->reg);
            if (inst.special()->sreg == SpecialReg::LO)
                use.reads_lo = true;
            else
                use.touches_system_state = true;
            break;
          case SpecialOp::MTS:
            markRead(&use, inst.special()->reg);
            if (inst.special()->sreg == SpecialReg::LO)
                use.writes_lo = true;
            else
                use.touches_system_state = true;
            break;
          default:
            use.touches_system_state = true;
            break;
        }
    }
    return use;
}

bool
aluOpPackable(AluOp op)
{
    switch (op) {
      case AluOp::ADD:
      case AluOp::SUB:
      case AluOp::AND:
      case AluOp::OR:
      case AluOp::XOR:
      case AluOp::SLL:
      case AluOp::XC:
      case AluOp::IC:
        return true;
      default:
        return false;
    }
}

bool
canPack(const AluPiece &a, const MemPiece &m)
{
    if (!aluOpPackable(a.op))
        return false;
    if (m.mode != MemMode::DISP)
        return false;
    if (m.imm < 0 ||
        !support::fitsUnsigned(static_cast<uint64_t>(m.imm),
                               kPackedDispBits)) {
        return false;
    }
    return true;
}

std::string
validate(const Instruction &inst)
{
    if (inst.alu() && inst.hasTransfer() && !inst.mem())
        return "an ALU piece may share a word only with a memory piece";
    if (inst.alu() && inst.mem() && !canPack(*inst.alu(), *inst.mem()))
        return "ALU/memory combination does not fit the packed format";
    if (inst.mem()) {
        std::string err = memValidate(*inst.mem());
        if (!err.empty())
            return err;
    }
    if (inst.branch()) {
        if (!support::fitsSigned(inst.branch()->offset, kBranchOffsetBits))
            return "branch offset out of range";
    }
    if (inst.jump()) {
        if (inst.jump()->kind == JumpKind::DIRECT &&
            !support::fitsUnsigned(inst.jump()->target_addr, kJumpAddrBits))
            return "jump target out of range";
        if (inst.jump()->kind == JumpKind::CALL_DIRECT &&
            !support::fitsUnsigned(inst.jump()->target_addr, kCallAddrBits))
            return "call target out of range";
    }
    if (inst.special() && inst.special()->op == SpecialOp::TRAP &&
        inst.special()->trap_code >= (1u << kTrapCodeBits)) {
        return "trap code out of range";
    }
    return "";
}

} // namespace mips::isa
