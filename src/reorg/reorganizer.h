/**
 * @file
 * The code reorganizer: the paper's software replacement for pipeline
 * interlock hardware (Section 4.2.1).
 *
 * Input is *legal code*: a Unit whose instructions assume sequential
 * (interlocked-machine) semantics — every instruction sees the results
 * of all earlier ones and control transfers act immediately. Output is
 * a Unit that executes equivalently on the interlock-free pipeline:
 *
 *  1. **Reorganization** — within each basic block, instructions are
 *     list-scheduled over a dependence DAG so that load-delay hazards
 *     are covered by useful instructions where possible; no-ops are
 *     inserted only when nothing can be moved.
 *  2. **Packing** — an ALU piece and a memory piece with no dependence
 *     between them share one 32-bit word when the packed format allows.
 *  3. **Branch-delay filling** — the three schemes of Section 4.2.1:
 *     (1) move an independent instruction from before the branch into
 *     the slot; (2) for an unconditional branch, duplicate the target
 *     instruction and retarget past it; (3) for a conditional branch,
 *     hoist the fall-through successor into the slot when its results
 *     are dead on the taken path (computed by a global liveness pass).
 *
 * Each stage can be toggled independently, which is how the Table 11
 * experiment measures the cumulative improvements. `.noreorder`
 * regions pass through untouched ("the front end ... emits a pseudo-op
 * which tells the reorganizer that this sequence is not to be
 * touched").
 *
 * Correctness contract (tested differentially): for any legal unit U,
 * running link(U) on the functional machine and link(reorganize(U))
 * on the pipeline machine yields the same architectural results.
 */
#pragma once

#include <vector>

#include "asm/unit.h"
#include "reorg/dag.h"

namespace mips::reorg {

/**
 * Test-only fault-injection switches. Each flag, when set, disables
 * exactly one safety check inside one reorganizer stage, turning it
 * into a known-buggy reorganizer. The translation-validation mutation
 * suite (tests/tv_test.cc) flips each flag on a program designed to
 * trigger it and asserts the validator reports a TV0xx error. All
 * flags default to off; production callers never set them.
 */
struct ReorgBugs
{
    /** Packing ignores the resident→candidate dependence edge. */
    bool pack_dependent = false;
    /** Scheme 3 hoists without checking taken-path liveness. */
    bool hoist_blind = false;
    /** The dependence DAG assumes no two memory references alias. */
    bool alias_blind = false;
    /** Scheme 1 moves a word into the slot ignoring dependences. */
    bool slot_overwritten_def = false;
    /** The scheduler drops the no-op that covers a load delay. */
    bool drop_load_noop = false;
    /** The scheduler drops a branch-delay-slot no-op outright. */
    bool drop_branch_noop = false;
    /** Scheme 2 fills the slot but forgets to retarget the branch. */
    bool retarget_same_target = false;
    /** Scheme 2 retargets past *two* words while duplicating one. */
    bool dup_skip_second = false;

    bool
    any() const
    {
        return pack_dependent || hoist_blind || alias_blind ||
               slot_overwritten_def || drop_load_noop ||
               drop_branch_noop || retarget_same_target ||
               dup_skip_second;
    }
};

/** Which stages run; defaults are the full reorganizer. */
struct ReorgOptions
{
    bool reorder = true;    ///< schedule instead of pure no-op insertion
    bool pack = true;       ///< ALU/memory piece packing
    bool fill_delay = true; ///< branch-delay schemes 1-3
    AliasOptions alias;     ///< memory disambiguation configuration
    ReorgBugs bugs;         ///< test-only fault injection (see above)
};

/**
 * Provenance record for one scheme-2 duplication: the transfer that
 * used to target `orig_label` now targets `dup_label`, and the
 * `words` output words starting at `orig_label` were duplicated into
 * the delay slot. The translation validator consumes these hints to
 * prove retargeted exits equivalent (it replays the words between the
 * two labels on the input side and compares full states). Both are
 * ids in the output's label table, which extends the input's.
 */
struct DupHint
{
    /** The original transfer target. */
    assembler::LabelId orig_label = assembler::kNoLabel;
    /** The new target, past the duplication. */
    assembler::LabelId dup_label = assembler::kNoLabel;
    size_t words = 1; ///< duplicated word count (currently 1)
};

/** Static counters describing one reorganization. */
struct ReorgStats
{
    size_t input_words = 0;
    size_t output_words = 0;
    size_t noops_inserted = 0;       ///< no-ops present in the output
    size_t packed_words = 0;         ///< words carrying two pieces
    size_t slots_filled_move = 0;    ///< scheme 1
    size_t slots_filled_dup = 0;     ///< scheme 2
    size_t slots_filled_hoist = 0;   ///< scheme 3

    /** Static improvement over `baseline` output size. */
    double
    improvementOver(const ReorgStats &baseline) const
    {
        if (baseline.output_words == 0)
            return 0.0;
        return 1.0 - static_cast<double>(output_words) /
                     static_cast<double>(baseline.output_words);
    }
};

/** The GPR live-in mask of one basic block of a legal unit. */
struct BlockLiveIn
{
    uint32_t start = 0; ///< item index of the block's first item
    uint16_t mask = 0;  ///< bit r set: r is live into the block

    bool operator==(const BlockLiveIn &) const = default;
};

/** Output of the reorganizer. */
struct ReorgResult
{
    /** The reorganized unit. Its label table starts as a copy of the
     *  input's, so every input label keeps its id; scheme-2 labels
     *  follow with ids of their own. */
    assembler::Unit unit;
    ReorgStats stats;
    /** Scheme-2 provenance, for the translation validator. */
    std::vector<DupHint> hints;
    /** Live-in masks of the input's blocks (blockLiveIn of the input),
     *  for the translation validator. */
    std::vector<BlockLiveIn> live_in;
};

/**
 * Reorganize a legal-code unit for the interlock-free pipeline.
 *
 * All control transfers in `legal` must use symbolic targets (the
 * reorganizer moves code, so pre-resolved numeric branch offsets
 * cannot be preserved); violations panic.
 */
ReorgResult reorganize(const assembler::Unit &legal,
                       const ReorgOptions &opts = ReorgOptions{});

/**
 * Per-register liveness at block granularity: for each basic block, in
 * item order, the GPR live-in mask (conservatively all-ones for blocks
 * reached by indirect control flow or falling off the unit). The same
 * masks as ReorgResult::live_in, for callers that did not reorganize
 * the unit themselves.
 */
std::vector<BlockLiveIn> blockLiveIn(const assembler::Unit &unit);

} // namespace mips::reorg
