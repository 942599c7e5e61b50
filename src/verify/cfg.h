/**
 * @file
 * Delay-slot-aware control-flow graph over an assembled Unit.
 *
 * The pipeline transfers control only *after* a taken branch or jump
 * has executed its delay slots (one for branches and direct jumps, two
 * for indirect jumps — Section 4.2.1 / 3.3 of the paper). The graph
 * therefore hangs a transfer's outgoing edges off its **last delay
 * slot**, not off the transfer word itself: node i's successors are
 * exactly the words that can execute on the cycle after word i. That
 * is the edge relation every hazard check needs, because the load
 * delay and the taken-transfer shadow are both expressed in *cycles*,
 * not in static program order.
 *
 * Edges the analysis cannot follow (indirect jumps, calls, traps, RFE,
 * falling off the unit) are recorded as `unknown_succ` rather than
 * dropped, so downstream dataflow stays conservative.
 */
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "asm/unit.h"
#include "isa/instruction.h"
#include "verify/diagnostics.h"

namespace mips::verify {

/** What kind of delay shadow covers an item, if any. */
enum class ShadowKind : uint8_t
{
    NONE = 0,
    BRANCH,   ///< slot of a branch or direct jump/call (1 slot)
    INDIRECT, ///< shadow of an indirect jump/call (2 slots)
};

/** Per-item CFG flags. The edges live in Cfg's flat arrays. */
struct CfgNode
{
    /** The next executed word is statically unknown (call/indirect
     *  target, trap handler, or execution fell off the unit). */
    bool unknown_succ = false;
    /** Control can arrive here from statically unknown code (the item
     *  is labeled and not every reference is a resolved local branch,
     *  follows a call's delay slots, or follows a trap). */
    bool unknown_pred = false;
    /** Delay shadow this item sits in (for the no-transfer-in-slot
     *  rule); owner is the transfer word that created the shadow. */
    ShadowKind shadow = ShadowKind::NONE;
    size_t shadow_owner = kNoItem;
};

/** One recovered jump table (the successor set of a table dispatch).
 *  Entries are the contiguous `.word LABEL` data items starting at the
 *  label the `jtab` names; targets are the arm items they relocate to. */
struct JumpTable
{
    size_t first_entry = kNoItem; ///< item index of the first entry
    std::vector<size_t> entries;  ///< entry item indices, in order
    std::vector<size_t> targets;  ///< resolved arm item indices
};

/**
 * The graph for one unit; labels resolve through the unit's table.
 * Edges are stored flat (compressed sparse rows): item i's successors
 * are `succ_list[succ_begin[i] .. succ_begin[i + 1])`, ascending and
 * unique, and its predecessors, the inverse relation, are laid out
 * the same way in `pred_begin` / `pred_list`, also ascending. Read
 * them through succs() and preds().
 */
struct Cfg
{
    const assembler::Unit *unit = nullptr;
    std::vector<CfgNode> nodes;
    std::vector<uint32_t> succ_begin, succ_list;
    std::vector<uint32_t> pred_begin, pred_list;
    /** isa::regUse of each instruction item, computed once by
     *  buildCfg (all zero for data items). */
    std::vector<isa::RegUse> uses;
    /** Well-formed jump tables, keyed by the dispatch item's index.
     *  A table dispatch absent from this map could not be recovered
     *  (VF003/VF004) and contributes `unknown_succ` instead. */
    std::map<size_t, JumpTable> tables;

    size_t size() const { return nodes.size(); }

    /** The item a reference to label `id` resolves to, the label's
     *  first definition; kNoItem when that lies past the last item (a
     *  trailing label) or the unit never defines the name. */
    size_t
    labelItem(assembler::LabelId id) const
    {
        uint32_t at = unit->labels.item(id);
        return at < nodes.size() ? at : kNoItem;
    }

    /** Items that can execute on the cycle after item i. */
    std::span<const uint32_t>
    succs(size_t i) const
    {
        return {succ_list.data() + succ_begin[i],
                succ_list.data() + succ_begin[i + 1]};
    }

    /** Items that can execute on the cycle before item i. */
    std::span<const uint32_t>
    preds(size_t i) const
    {
        return {pred_list.data() + pred_begin[i],
                pred_list.data() + pred_begin[i + 1]};
    }
};

/**
 * Build the execution CFG. Structural problems found along the way —
 * invalid instruction words (VF001), undefined label operands
 * (VF002), malformed jump tables (VF003), table entries that escape
 * the unit's code (VF004), and labels defined more than once (VF005,
 * at each later definition) — are reported to `diags` (which may be
 * null to skip them); the offending edges become `unknown_succ`.
 * A table dispatch whose table is well formed contributes one edge
 * per entry instead of an unknown successor.
 */
Cfg buildCfg(const assembler::Unit &unit, DiagnosticEngine *diags);

} // namespace mips::verify
