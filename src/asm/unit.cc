#include "asm/unit.h"

#include "isa/disasm.h"
#include "support/bits.h"
#include "support/logging.h"

namespace mips::assembler {

LabelId
LabelTable::add(std::string_view name)
{
    auto id = static_cast<LabelId>(entries_.size());
    Entry &e = entries_.emplace_back();
    e.name_begin = static_cast<uint32_t>(names_.size());
    e.name_size = static_cast<uint32_t>(name.size());
    e.first = id;
    names_ += name;
    return id;
}

LabelId
LabelTable::redefine(LabelId id)
{
    auto again = static_cast<LabelId>(entries_.size());
    Entry e = entries_[id]; // shares the name's characters and first
    e.item = kUndefined;
    e.next = kNoLabel;
    entries_.push_back(e);
    return again;
}

LabelId
LabelTable::find(std::string_view label) const
{
    // A redefinition follows the id it redefines.
    for (LabelId id = 0; id < size(); ++id)
        if (name(id) == label)
            return id;
    return kNoLabel;
}

bool
LabelTable::extends(const LabelTable &prefix) const
{
    if (prefix.size() > size())
        return false;
    for (LabelId id = 0; id < prefix.size(); ++id)
        if (name(id) != prefix.name(id) || first(id) != prefix.first(id))
            return false;
    return true;
}

void
locateLabels(Unit *unit)
{
    LabelTable &labels = unit->labels;
    for (LabelId id = 0; id < labels.size(); ++id)
        labels.setItem(id, LabelTable::kUndefined);
    auto n = static_cast<uint32_t>(unit->items.size());
    for (uint32_t i = 0; i < n; ++i)
        for (LabelId id : labels.chain(unit->items[i].label))
            labels.setItem(id, i);
    for (LabelId id : labels.chain(unit->trailing))
        labels.setItem(id, n);
}

uint32_t
Program::symbol(std::string_view name) const
{
    LabelId id = labels.find(name);
    if (id == kNoLabel || !labels.defined(id))
        support::panic("Program::symbol: undefined symbol '%.*s'",
                       static_cast<int>(name.size()), name.data());
    return origin + labels.item(id);
}

support::Result<Program>
link(const Unit &unit)
{
    Program prog;
    prog.origin = unit.origin;
    const LabelTable &labels = unit.labels;
    auto quoted = [&](LabelId id) {
        std::string text = "'";
        text += labels.name(id);
        text += '\'';
        return text;
    };

    // Pass 1: every name once. A later definition of a name has an id
    // of its own (LabelTable::redefine); the first one in address
    // order is the error.
    for (const Item &item : unit.items) {
        for (LabelId id : labels.chain(item.label)) {
            if (labels.first(id) != id) {
                return support::makeError(
                    "duplicate label " + quoted(id), item.source_line);
            }
        }
    }
    for (LabelId id : labels.chain(unit.trailing)) {
        if (labels.first(id) != id)
            return support::makeError("duplicate label " + quoted(id));
    }

    // Pass 2: resolve targets and encode.
    uint32_t addr = unit.origin;
    prog.image.reserve(unit.items.size());
    for (const Item &item : unit.items) {
        if (item.target != kNoLabel && !labels.defined(item.target)) {
            return support::makeError(
                "undefined label " + quoted(item.target), item.source_line);
        }
        uint32_t target = item.target == kNoLabel
                              ? 0
                              : unit.origin + labels.item(item.target);
        if (item.is_data) {
            // A jump-table entry relocates the label's address into
            // the data word.
            prog.image.push_back(item.target == kNoLabel ? item.data_value
                                                         : target);
            ++addr;
            continue;
        }

        isa::Instruction inst = item.inst;
        if (item.target != kNoLabel) {
            if (inst.branch()) {
                int64_t offset = static_cast<int64_t>(target) -
                                 (static_cast<int64_t>(addr) + 1);
                if (!support::fitsSigned(offset, isa::kBranchOffsetBits)) {
                    return support::makeError(
                        "branch to " + quoted(item.target) +
                            " out of range",
                        item.source_line);
                }
                inst.branch()->offset = static_cast<int32_t>(offset);
            } else if (inst.jump()) {
                inst.jump()->target_addr = target;
            } else if (inst.mem() &&
                       (inst.mem()->mode == isa::MemMode::ABSOLUTE ||
                        inst.mem()->mode == isa::MemMode::LONG_IMM)) {
                // Absolute reference or load-address: the label's
                // address becomes the immediate.
                inst.mem()->imm = static_cast<int32_t>(target);
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
    prog.labels = labels;
    return prog;
}

std::string
listUnit(const Unit &unit)
{
    std::string out;
    uint32_t addr = unit.origin;
    for (const Item &item : unit.items) {
        for (LabelId id : unit.labels.chain(item.label)) {
            out += unit.labels.name(id);
            out += ":\n";
        }
        std::string target;
        if (item.target != kNoLabel)
            target = unit.labels.name(item.target);
        if (item.is_data) {
            if (!target.empty())
                out += "    .word " + target + "\n";
            else
                out += support::strprintf("    .word %u\n",
                                          item.data_value);
        } else if (!target.empty()) {
            // Print with the symbolic target in place of the number.
            std::string text;
            if (item.inst.jump() &&
                isa::jumpIsCall(item.inst.jump()->kind)) {
                text = support::strprintf(
                    "call %s, %s", target.c_str(),
                    isa::regName(item.inst.jump()->link).c_str());
            } else if (item.inst.jump() &&
                       isa::jumpIsTable(item.inst.jump()->kind)) {
                text = isa::disasm(item.inst, addr) + ", " + target;
            } else if (item.inst.mem()) {
                // A long immediate with a label is `la`; any other
                // memory piece with one is an absolute load or store.
                const isa::MemPiece &mp = *item.inst.mem();
                std::string rd = isa::regName(mp.rd);
                if (mp.is_store)
                    text = "st " + rd + ", @" + target;
                else if (mp.mode == isa::MemMode::LONG_IMM)
                    text = "la " + target + ", " + rd;
                else
                    text = "ld @" + target + ", " + rd;
            } else {
                text = isa::disasm(item.inst, addr);
                size_t pos = text.find_last_of(' ');
                text = text.substr(0, pos + 1) + target;
            }
            out += "    " + text + "\n";
        } else {
            out += "    " + isa::disasm(item.inst, addr) + "\n";
        }
        ++addr;
    }
    for (LabelId id : unit.labels.chain(unit.trailing)) {
        out += unit.labels.name(id);
        out += ":\n";
    }
    return out;
}

} // namespace mips::assembler
