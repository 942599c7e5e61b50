#include "plc/optimize.h"

#include <map>
#include <optional>

#include "isa/instruction.h"

namespace mips::plc {

using assembler::Item;
using isa::MemMode;
using isa::Reg;

namespace {

/** A tracked memory location: frame/base slot or absolute/global. */
struct Location
{
    bool absolute = false;
    Reg base = 0;        ///< DISP base register
    int32_t disp = 0;    ///< displacement or absolute address
    assembler::LabelId symbol = assembler::kNoLabel; ///< symbolic target

    bool
    operator<(const Location &other) const
    {
        return std::tie(absolute, base, disp, symbol) <
               std::tie(other.absolute, other.base, other.disp,
                        other.symbol);
    }
};

/** Extract a trackable location from a memory piece, if any. */
std::optional<Location>
locationOf(const Item &item)
{
    if (!item.inst.mem())
        return std::nullopt;
    const isa::MemPiece &m = *item.inst.mem();
    Location loc;
    switch (m.mode) {
      case MemMode::DISP:
        loc.base = m.base;
        loc.disp = m.imm;
        return loc;
      case MemMode::ABSOLUTE:
        loc.absolute = true;
        loc.disp = m.imm;
        loc.symbol = item.target;
        return loc;
      default:
        return std::nullopt; // indexed/shifted: address not static
    }
}

} // namespace

PeepholeStats
eliminateRedundantLoads(assembler::Unit *unit)
{
    PeepholeStats stats;

    // Known location -> register currently holding its value.
    std::map<Location, Reg> known;

    auto invalidateReg = [&known](Reg r) {
        if (r == isa::kZeroReg)
            return;
        for (auto it = known.begin(); it != known.end();) {
            if (it->second == r ||
                (!it->first.absolute && it->first.base == r)) {
                it = known.erase(it);
            } else {
                ++it;
            }
        }
    };

    for (Item &item : unit->items) {
        // Block and region boundaries reset all knowledge.
        if (item.label != assembler::kNoLabel || item.is_data ||
            item.no_reorder) {
            known.clear();
            if (item.is_data || item.no_reorder)
                continue;
        }
        if (item.inst.isControlTransfer()) {
            known.clear();
            continue;
        }
        isa::RegUse use = isa::regUse(item.inst);
        if (use.touches_system_state) {
            known.clear();
            continue;
        }

        // Try to satisfy a plain load from a known register. A packed
        // word's load shares the word with an ALU piece, so only
        // stand-alone loads are rewritten.
        if (item.inst.isLoad() && !item.inst.alu()) {
            auto loc = locationOf(item);
            if (loc) {
                auto it = known.find(*loc);
                if (it != known.end()) {
                    Reg rd = item.inst.mem()->rd;
                    isa::AluPiece copy;
                    copy.op = isa::AluOp::ADD;
                    copy.rs = it->second;
                    copy.src2 = isa::Src2::fromImm(0);
                    copy.rd = rd;
                    item.inst = isa::Instruction::makeAlu(copy);
                    item.target = assembler::kNoLabel;
                    item.ref_size = 0;
                    item.ref_is_char = false;
                    ++stats.loads_eliminated;
                    invalidateReg(rd);
                    if (rd != isa::kZeroReg && copy.rs != rd)
                        known[*loc] = rd;
                    continue;
                }
            }
        }

        // Record what this instruction teaches or destroys.
        if (item.inst.mem()) {
            const isa::MemPiece &m = *item.inst.mem();
            auto loc = locationOf(item);
            if (m.is_store) {
                if (loc) {
                    // Another slot may alias only if its static
                    // address differs yet points to the same word —
                    // impossible for same-base displacements and for
                    // absolute addresses, but a store to base A may
                    // alias a tracked slot of base B. Be conservative:
                    // drop entries with a *different* base kind.
                    for (auto it = known.begin(); it != known.end();) {
                        bool same_family =
                            it->first.absolute == loc->absolute &&
                            (loc->absolute ||
                             it->first.base == loc->base);
                        if (!same_family || !(it->first < *loc ||
                                              *loc < it->first)) {
                            it = known.erase(it);
                        } else {
                            ++it;
                        }
                    }
                    known[*loc] = m.rd;
                } else {
                    known.clear(); // unknown store address
                }
            } else if (isa::memReferencesMemory(m)) {
                // A load teaches us the slot's value register.
                invalidateReg(m.rd);
                if (loc && m.rd != isa::kZeroReg)
                    known[*loc] = m.rd;
                // Fall through for the ALU piece of a packed word.
            } else {
                // LONG_IMM writes a register.
                invalidateReg(m.rd);
            }
        }
        if (item.inst.alu()) {
            uint16_t writes = isa::regUseAlu(*item.inst.alu()).gpr_writes;
            for (Reg r = 1; r < isa::kNumRegs; ++r)
                if ((writes >> r) & 1)
                    invalidateReg(r);
        }
    }
    return stats;
}

} // namespace mips::plc
