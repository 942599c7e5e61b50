#include "sim/functional.h"

#include "isa/encoding.h"
#include "support/logging.h"

namespace mips::sim {

using isa::Instruction;
using isa::MemMode;
using isa::Reg;

FunctionalCpu::FunctionalCpu(PhysMemory &memory)
    : mem_(memory), memo_(kMemoSlots, MemoSlot{0, isa::decode(0).take()})
{
}

void
FunctionalCpu::reset(uint32_t pc)
{
    regs_.fill(0);
    lo_ = 0;
    pc_ = pc;
    halted_ = false;
    instructions_ = 0;
    overflows_ = 0;
    error_.clear();
}

void
FunctionalCpu::setReg(Reg r, uint32_t value)
{
    if (r != isa::kZeroReg)
        regs_[r] = value;
}

StopReason
FunctionalCpu::step()
{
    if (halted_)
        return error_.empty() ? StopReason::HALT : StopReason::SIM_ERROR;

    if (pc_ >= mem_.size()) {
        error_ = support::strprintf("fetch out of range at %u", pc_);
        halted_ = true;
        return StopReason::SIM_ERROR;
    }

    uint32_t word = mem_.read(pc_);
    MemoSlot &slot = memo_[pc_ & (kMemoSlots - 1)];
    if (slot.word != word) {
        auto decoded = isa::decode(word);
        if (!decoded.ok()) {
            error_ = support::strprintf("illegal instruction at %u", pc_);
            halted_ = true;
            return StopReason::SIM_ERROR;
        }
        slot = {word, decoded.take()};
    }
    const Instruction &inst = slot.inst;
    ++instructions_;
    uint32_t next_pc = pc_ + 1;

    if (inst.alu()) {
        const isa::AluPiece &a = *inst.alu();
        isa::AluInputs in;
        in.rs = regs_[a.rs];
        in.src2 = a.src2.is_imm ? a.src2.imm4 : regs_[a.src2.reg];
        in.rd_old = regs_[a.rd];
        in.lo = lo_;
        isa::AluOutputs out = isa::evalAlu(a, in);
        if (out.overflow)
            ++overflows_;
        if (out.writes_rd)
            setReg(a.rd, out.rd);
        if (out.writes_lo)
            lo_ = out.lo;
    }

    if (inst.mem()) {
        const isa::MemPiece &m = *inst.mem();
        if (m.mode == MemMode::LONG_IMM) {
            setReg(m.rd, static_cast<uint32_t>(m.imm));
        } else {
            uint32_t ea = isa::memEffectiveAddress(m, regs_[m.base],
                                                   regs_[m.index]);
            if (ea >= mem_.size()) {
                error_ = support::strprintf(
                    "data reference out of range at %u (ea %u)", pc_, ea);
                halted_ = true;
                return StopReason::SIM_ERROR;
            }
            if (m.is_store)
                mem_.write(ea, regs_[m.rd]);
            else
                setReg(m.rd, mem_.read(ea));
        }
    }

    if (inst.branch()) {
        const isa::BranchPiece &b = *inst.branch();
        uint32_t src2 = b.src2.is_imm ? b.src2.imm4 : regs_[b.src2.reg];
        if (isa::evalCond(b.cond, regs_[b.rs], src2))
            next_pc = pc_ + 1 + static_cast<uint32_t>(b.offset);
    } else if (inst.jump()) {
        const isa::JumpPiece &j = *inst.jump();
        if (isa::jumpIsCall(j.kind))
            setReg(j.link, pc_ + 1);
        if (isa::jumpIsTable(j.kind)) {
            // The target comes from memory: one data-port access at
            // base + index, exactly like a word load.
            uint32_t ea = regs_[j.target_reg] + regs_[j.index];
            if (ea >= mem_.size()) {
                error_ = support::strprintf(
                    "jump-table reference out of range at %u (ea %u)",
                    pc_, ea);
                halted_ = true;
                return StopReason::SIM_ERROR;
            }
            next_pc = mem_.read(ea);
        } else {
            next_pc = isa::jumpIsIndirect(j.kind) ? regs_[j.target_reg]
                                                  : j.target_addr;
        }
    } else if (inst.special()) {
        switch (inst.special()->op) {
          case isa::SpecialOp::TRAP:
            if (!trap_handler_ || !trap_handler_(inst.special()->trap_code)) {
                halted_ = true;
                pc_ = next_pc;
                return StopReason::HALT;
            }
            break;
          case isa::SpecialOp::HALT:
            halted_ = true;
            return StopReason::HALT;
          case isa::SpecialOp::MFS:
            if (inst.special()->sreg == isa::SpecialReg::LO)
                setReg(inst.special()->reg, lo_);
            break;
          case isa::SpecialOp::MTS:
            if (inst.special()->sreg == isa::SpecialReg::LO)
                lo_ = regs_[inst.special()->reg];
            break;
          default:
            // System instructions have no meaning on the reference
            // machine; they execute as no-ops.
            break;
        }
    }

    pc_ = next_pc;
    return StopReason::RUNNING;
}

StopReason
FunctionalCpu::run(uint64_t max_cycles)
{
    uint64_t budget = max_cycles;
    while (budget-- > 0) {
        StopReason reason = step();
        if (reason != StopReason::RUNNING)
            return reason;
    }
    return StopReason::CYCLE_LIMIT;
}

} // namespace mips::sim
