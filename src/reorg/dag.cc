#include "reorg/dag.h"

#include <algorithm>

#include "isa/instruction.h"

namespace mips::reorg {

using assembler::Item;
using isa::MemMode;
using isa::MemPiece;
using isa::RegUse;

bool
Dag::mayAlias(const MemPiece &a, const MemPiece &b, uint16_t block_written,
              const AliasOptions &alias)
{
    if (!isa::memReferencesMemory(a) || !isa::memReferencesMemory(b))
        return false;

    auto isVolatile = [&alias](const MemPiece &m) {
        return m.mode == MemMode::ABSOLUTE &&
               static_cast<uint32_t>(m.imm) >= alias.volatile_base;
    };
    if (isVolatile(a) || isVolatile(b))
        return true;

    // Distinct absolute addresses never alias.
    if (a.mode == MemMode::ABSOLUTE && b.mode == MemMode::ABSOLUTE)
        return a.imm == b.imm;

    // Same never-redefined base with distinct displacements cannot
    // alias; everything else is conservatively assumed to.
    if (a.mode == MemMode::DISP && b.mode == MemMode::DISP &&
        a.base == b.base &&
        ((block_written >> a.base) & 1) == 0) {
        return a.imm == b.imm;
    }
    return true;
}

Dag::Dag(const std::vector<Item> &items, const AliasOptions &alias,
         bool assume_no_alias)
{
    std::vector<RegUse> uses;
    uses.reserve(items.size());
    for (const Item &item : items)
        uses.push_back(item.is_data ? RegUse{} : isa::regUse(item.inst));
    build(items, uses, alias, assume_no_alias);
}

void
Dag::build(std::span<const Item> items, std::span<const RegUse> uses,
           const AliasOptions &alias, bool assume_no_alias)
{
    items_ = items;
    nodes_.assign(items.size(), DagNode{});
    succ_list_.clear();

    // Registers written anywhere in the block (for alias analysis).
    uint16_t block_written = 0;
    for (const RegUse &u : uses)
        block_written |= u.gpr_writes;

    // A table-dispatch jump loads its target word through the data
    // interface but carries no MemPiece to compare.
    auto tableJump = [](const Item &it) {
        return !it.is_data && it.inst.jump() &&
               isa::jumpIsTable(it.inst.jump()->kind);
    };

    // Each pair is visited once, from its earlier node, so successors
    // land in ascending order and no edge repeats.
    const int n = static_cast<int>(items.size());
    for (int i = 0; i < n; ++i) {
        nodes_[i].succ_begin = static_cast<uint32_t>(succ_list_.size());
        for (int j = i + 1; j < n; ++j) {
            const RegUse &u = uses[i];
            const RegUse &v = uses[j];
            bool dep = false;

            // Data items are immovable relative to everything.
            if (items[i].is_data || items[j].is_data)
                dep = true;

            // Register dependences: RAW, WAR, WAW.
            if ((u.gpr_writes & v.gpr_reads) ||
                (u.gpr_reads & v.gpr_writes) ||
                (u.gpr_writes & v.gpr_writes)) {
                dep = true;
            }

            // The LO byte selector behaves like a register.
            if ((u.writes_lo && (v.reads_lo || v.writes_lo)) ||
                (u.reads_lo && v.writes_lo)) {
                dep = true;
            }

            // System state is a full barrier.
            if (u.touches_system_state || v.touches_system_state)
                dep = true;

            // Memory: conservative aliasing, stores never commute.
            if (!dep && !assume_no_alias && items[i].inst.mem() &&
                items[j].inst.mem()) {
                bool either_store = items[i].inst.mem()->is_store ||
                                    items[j].inst.mem()->is_store;
                if (either_store &&
                    mayAlias(*items[i].inst.mem(), *items[j].inst.mem(),
                             block_written, alias)) {
                    dep = true;
                }
            }

            // Every store is conservatively ordered against a table
            // dispatch (a store moved into its delay slots would
            // commit after the table fetch).
            if (!dep &&
                ((tableJump(items[i]) && items[j].inst.isStore()) ||
                 (tableJump(items[j]) && items[i].inst.isStore()))) {
                dep = true;
            }

            // Everything before a control transfer that it depends on
            // is covered above; additionally a transfer must not move
            // before anything (it is the terminator), which the
            // scheduler enforces positionally.

            if (dep) {
                succ_list_.push_back(j);
                ++nodes_[j].pred_count;
            }
        }
        nodes_[i].succ_end = static_cast<uint32_t>(succ_list_.size());
    }
}

bool
Dag::hasEdge(int from, int to) const
{
    std::span<const int> s = succs(from);
    return std::binary_search(s.begin(), s.end(), to);
}

} // namespace mips::reorg
