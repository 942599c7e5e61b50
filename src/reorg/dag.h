/**
 * @file
 * Machine-level dependence DAG over one basic block.
 *
 * "Read in a basic block and create a machine-level dag that
 * represents the dependencies between individual instruction pieces"
 * (Section 4.2.1). Edges order pairs of instructions whose exchange
 * would change sequential semantics: register RAW/WAR/WAW, the LO byte
 * selector, system state (surprise/segmentation registers, traps), and
 * loads/stores that might be aliased.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "asm/unit.h"

namespace mips::reorg {

/** One DAG node: the dependence bookkeeping of one item. Node `id`
 *  is the block's item `id` (Dag::item). */
struct DagNode
{
    uint32_t succ_begin = 0; ///< successors: Dag::succs(id)
    uint32_t succ_end = 0;
    int pred_count = 0;      ///< unscheduled-predecessor counter
};

/** Alias-analysis configuration. */
struct AliasOptions
{
    /**
     * Absolute addresses at or above this are treated as volatile
     * (device registers): they conflict with every other memory
     * reference. Matches the simulator's MMIO window by default.
     */
    uint32_t volatile_base = 0x000ff000;
};

/** The DAG for one basic block. */
class Dag
{
  public:
    Dag() = default;

    /**
     * Build from the block's items (terminator included, if any),
     * which must outlive the DAG. `assume_no_alias` drops every
     * memory-alias edge — test-only fault injection
     * (ReorgBugs::alias_blind); never set otherwise.
     */
    Dag(const std::vector<assembler::Item> &items,
        const AliasOptions &alias = AliasOptions{},
        bool assume_no_alias = false);

    /**
     * Rebuild over `items`, whose register uses are `uses` (one per
     * item), reusing this DAG's storage. The DAG refers to `items`,
     * which must outlive it; `uses` is read only here.
     */
    void build(std::span<const assembler::Item> items,
               std::span<const isa::RegUse> uses, const AliasOptions &alias,
               bool assume_no_alias);

    std::vector<DagNode> &nodes() { return nodes_; }
    const std::vector<DagNode> &nodes() const { return nodes_; }

    /** The item node `id` stands for. */
    const assembler::Item &item(int id) const { return items_[id]; }

    /** Nodes that must come after node `id`, ascending. */
    std::span<const int>
    succs(int id) const
    {
        const DagNode &n = nodes_[id];
        return {succ_list_.data() + n.succ_begin,
                succ_list_.data() + n.succ_end};
    }

    /** True if `from` must precede `to` (direct edge). */
    bool hasEdge(int from, int to) const;

    /**
     * True if the two memory pieces might reference the same location
     * (at least one being a store is the caller's concern).
     * `block_written` is the set of GPRs written anywhere in the block
     * (as a bitmask); displacement-based disambiguation is only sound
     * when the shared base register is never redefined.
     */
    static bool mayAlias(const isa::MemPiece &a, const isa::MemPiece &b,
                         uint16_t block_written,
                         const AliasOptions &alias);

  private:
    std::span<const assembler::Item> items_;
    std::vector<DagNode> nodes_;
    std::vector<int> succ_list_; ///< every node's successors, by node
};

} // namespace mips::reorg
