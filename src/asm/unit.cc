#include "asm/unit.h"

#include <algorithm>

#include "isa/disasm.h"
#include "support/bits.h"
#include "support/logging.h"

namespace mips::assembler {

uint32_t
Program::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        support::panic("Program::symbol: undefined symbol '%s'",
                       name.c_str());
    return it->second;
}

LabelIndex::LabelIndex(const Unit &unit)
{
    for (size_t i = 0; i < unit.items.size(); ++i)
        for (const std::string &label : unit.items[i].labels)
            entries_.emplace_back(label, i);
    for (const std::string &label : unit.trailing_labels)
        entries_.emplace_back(label, unit.items.size());
    // Pairs sort by name, then by index: the last pair of each name is
    // its latest definition.
    std::sort(entries_.begin(), entries_.end());
    size_t kept = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
        if (i + 1 < entries_.size() &&
            entries_[i + 1].first == entries_[i].first)
            continue;
        entries_[kept++] = entries_[i];
    }
    entries_.resize(kept);
}

size_t
LabelIndex::find(std::string_view label) const
{
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), label,
        [](const auto &entry, std::string_view name) {
            return entry.first < name;
        });
    return it != entries_.end() && it->first == label ? it->second
                                                      : kNone;
}

support::Result<Program>
link(const Unit &unit)
{
    Program prog;
    prog.origin = unit.origin;

    // Pass 1: assign addresses to labels.
    uint32_t addr = unit.origin;
    for (const Item &item : unit.items) {
        for (const std::string &label : item.labels) {
            if (prog.symbols.count(label)) {
                return support::makeError(
                    "duplicate label '" + label + "'", item.source_line);
            }
            prog.symbols[label] = addr;
        }
        ++addr;
    }
    for (const std::string &label : unit.trailing_labels) {
        if (prog.symbols.count(label)) {
            return support::makeError("duplicate label '" + label + "'");
        }
        prog.symbols[label] = addr;
    }

    // Pass 2: resolve targets and encode.
    addr = unit.origin;
    for (const Item &item : unit.items) {
        if (item.is_data) {
            uint32_t value = item.data_value;
            if (!item.target.empty()) {
                // Jump-table entry: relocate the label's address into
                // the data word.
                auto it = prog.symbols.find(item.target);
                if (it == prog.symbols.end()) {
                    return support::makeError(
                        "undefined label '" + item.target + "'",
                        item.source_line);
                }
                value = it->second;
            }
            prog.image.push_back(value);
            ++addr;
            continue;
        }

        isa::Instruction inst = item.inst;
        if (!item.target.empty()) {
            auto it = prog.symbols.find(item.target);
            if (it == prog.symbols.end()) {
                return support::makeError(
                    "undefined label '" + item.target + "'",
                    item.source_line);
            }
            uint32_t target = it->second;
            if (inst.branch) {
                int64_t offset = static_cast<int64_t>(target) -
                                 (static_cast<int64_t>(addr) + 1);
                if (!support::fitsSigned(offset, isa::kBranchOffsetBits)) {
                    return support::makeError(
                        "branch to '" + item.target + "' out of range",
                        item.source_line);
                }
                inst.branch->offset = static_cast<int32_t>(offset);
            } else if (inst.jump) {
                inst.jump->target_addr = target;
            } else if (inst.mem &&
                       (inst.mem->mode == isa::MemMode::ABSOLUTE ||
                        inst.mem->mode == isa::MemMode::LONG_IMM)) {
                // Absolute reference or load-address: the label's
                // address becomes the immediate.
                inst.mem->imm = static_cast<int32_t>(target);
            } else {
                return support::makeError(
                    "label operand on a non-transfer instruction",
                    item.source_line);
            }
        }

        std::string err = isa::validate(inst);
        if (!err.empty())
            return support::makeError(err, item.source_line);

        prog.image.push_back(isa::encode(inst));
        ++addr;
    }
    return prog;
}

std::string
listUnit(const Unit &unit)
{
    std::string out;
    uint32_t addr = unit.origin;
    for (const Item &item : unit.items) {
        for (const std::string &label : item.labels)
            out += label + ":\n";
        if (item.is_data) {
            if (!item.target.empty())
                out += "    .word " + item.target + "\n";
            else
                out += support::strprintf("    .word %u\n",
                                          item.data_value);
        } else if (!item.target.empty()) {
            // Print with the symbolic target in place of the number.
            std::string text;
            if (item.inst.jump &&
                isa::jumpIsCall(item.inst.jump->kind)) {
                text = support::strprintf(
                    "call %s, %s", item.target.c_str(),
                    isa::regName(item.inst.jump->link).c_str());
            } else if (item.inst.jump &&
                       isa::jumpIsTable(item.inst.jump->kind)) {
                text = isa::disasm(item.inst, addr) + ", " + item.target;
            } else if (item.inst.mem) {
                // A long immediate with a label is `la`; any other
                // memory piece with one is an absolute load or store.
                const isa::MemPiece &mp = *item.inst.mem;
                std::string rd = isa::regName(mp.rd);
                if (mp.is_store)
                    text = "st " + rd + ", @" + item.target;
                else if (mp.mode == isa::MemMode::LONG_IMM)
                    text = "la " + item.target + ", " + rd;
                else
                    text = "ld @" + item.target + ", " + rd;
            } else {
                text = isa::disasm(item.inst, addr);
                size_t pos = text.find_last_of(' ');
                text = text.substr(0, pos + 1) + item.target;
            }
            out += "    " + text + "\n";
        } else {
            out += "    " + isa::disasm(item.inst, addr) + "\n";
        }
        ++addr;
    }
    for (const std::string &label : unit.trailing_labels)
        out += label + ":\n";
    return out;
}

} // namespace mips::assembler
