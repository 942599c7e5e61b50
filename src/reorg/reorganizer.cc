#include "reorg/reorganizer.h"

#include <algorithm>
#include <array>
#include <span>
#include <string>

#include "isa/instruction.h"
#include "support/logging.h"

namespace mips::reorg {

using assembler::Item;
using assembler::kNoLabel;
using assembler::LabelId;
using assembler::LabelTable;
using assembler::Unit;
using isa::Cond;
using isa::Instruction;
using isa::JumpKind;
using isa::RegUse;

namespace {

// ------------------------------------------------------------ Blocks

/**
 * A basic block of the legal unit: its items [begin, end) and, once
 * scheduled, its output words [out_begin, out_end). The labels at
 * block entry are those of its first item.
 */
struct Block
{
    uint32_t begin = 0;
    uint32_t end = 0;
    uint32_t out_begin = 0;
    uint32_t out_end = 0;
    bool no_reorder = false;
    bool is_data = false;
    /** A no-op follows the block's words (cross-block load delay). */
    bool trailing_nop = false;

    size_t outSize() const { return out_end - out_begin; }
};

bool
isTransfer(const Item &item)
{
    return !item.is_data && item.inst.isControlTransfer();
}

/** Delay slots a terminator exposes on the pipeline (0 for traps,
 *  RFE and HALT, which redirect without executing successors). */
int
delaySlots(const Item &term)
{
    if (term.inst.branch())
        return isa::kBranchDelay;
    if (term.inst.jump())
        return isa::jumpDelay(term.inst.jump()->kind);
    return 0;
}

/** Split a unit into basic blocks. */
std::vector<Block>
splitBlocks(const Unit &unit)
{
    std::vector<Block> blocks;
    bool force_new = true;
    for (uint32_t i = 0; i < unit.items.size(); ++i) {
        const Item &item = unit.items[i];
        if (force_new || item.label != kNoLabel || blocks.empty() ||
            blocks.back().no_reorder != item.no_reorder ||
            blocks.back().is_data != item.is_data) {
            Block b;
            b.begin = i;
            b.no_reorder = item.no_reorder;
            b.is_data = item.is_data;
            blocks.push_back(b);
        }
        blocks.back().end = i + 1;
        force_new = isTransfer(item);
    }
    return blocks;
}

/** Register use of every item, computed once per reorganization. */
std::vector<RegUse>
itemUses(const Unit &unit)
{
    std::vector<RegUse> uses;
    uses.reserve(unit.items.size());
    for (const Item &item : unit.items)
        uses.push_back(item.is_data ? RegUse{} : isa::regUse(item.inst));
    return uses;
}

/** Label id -> index of the block it starts (every label starts
 *  one). A reference resolves to its label's first definition. */
class BlockLabels
{
  public:
    BlockLabels(const Unit &unit, const std::vector<Block> &blocks)
        : block_(unit.labels.size(), -1)
    {
        for (size_t b = 0; b < blocks.size(); ++b)
            for (LabelId id :
                 unit.labels.chain(unit.items[blocks[b].begin].label))
                block_[id] = static_cast<long>(b);
    }

    /** The block `label` starts, or -1 (undefined or trailing). */
    long find(LabelId label) const { return block_[label]; }

  private:
    std::vector<long> block_;
};

// ---------------------------------------------------------- Liveness

constexpr uint16_t kAllRegs = 0xfffe; // r0 excluded (never live)

/**
 * Compute the GPR live-in mask of every block. Conservative: any edge
 * the analysis cannot follow (indirect jumps, numeric targets, calls,
 * traps, falling off the unit) contributes an all-live live-out.
 */
std::vector<uint16_t>
computeLiveness(const Unit &unit, const std::vector<Block> &blocks,
                const std::vector<RegUse> &uses, const BlockLabels &labels)
{
    /** A block's transfer function and its (at most two) successors. */
    struct Flow
    {
        uint16_t use = 0;
        uint16_t def = 0;
        std::array<size_t, 2> succs{};
        uint8_t num_succs = 0;
        bool unknown_succ = false;
    };
    size_t n = blocks.size();
    std::vector<Flow> flow(n);

    for (size_t i = 0; i < n; ++i) {
        const Block &b = blocks[i];
        Flow &f = flow[i];
        if (b.is_data || b.no_reorder) {
            // Untouched regions: treat as using everything.
            f.use = kAllRegs;
        } else {
            for (uint32_t k = b.begin; k < b.end; ++k) {
                f.use |= uses[k].gpr_reads & ~f.def;
                f.def |= uses[k].gpr_writes;
            }
        }

        const Item &last = unit.items[b.end - 1];
        const Item *term = isTransfer(last) ? &last : nullptr;
        auto addLabelSucc = [&](LabelId target) {
            long s = labels.find(target);
            if (s >= 0)
                f.succs[f.num_succs++] = static_cast<size_t>(s);
            else
                f.unknown_succ = true;
        };
        auto addFallThrough = [&] {
            if (i + 1 < n)
                f.succs[f.num_succs++] = i + 1;
            else
                f.unknown_succ = true;
        };

        if (!term) {
            addFallThrough();
        } else if (term->inst.branch()) {
            Cond c = term->inst.branch()->cond;
            if (term->target == kNoLabel)
                f.unknown_succ = true; // numeric target
            else if (c != Cond::NEVER)
                addLabelSucc(term->target);
            if (c != Cond::ALWAYS)
                addFallThrough();
        } else if (term->inst.jump()) {
            const isa::JumpPiece &j = *term->inst.jump();
            if (isa::jumpIsCall(j.kind)) {
                // The callee may use and define anything.
                f.unknown_succ = true;
            } else if (j.kind == JumpKind::DIRECT) {
                if (term->target == kNoLabel)
                    f.unknown_succ = true;
                else
                    addLabelSucc(term->target);
            } else {
                f.unknown_succ = true; // indirect
            }
        } else if (term->inst.special()) {
            switch (term->inst.special()->op) {
              case isa::SpecialOp::HALT:
                break; // no successors: nothing live
              default:
                // TRAP continues after the handler; RFE goes anywhere.
                f.unknown_succ = true;
                break;
            }
        }
    }

    std::vector<uint16_t> live_in(n, 0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t ri = n; ri-- > 0;) {
            const Flow &f = flow[ri];
            uint16_t out = f.unknown_succ ? kAllRegs : 0;
            for (uint8_t k = 0; k < f.num_succs; ++k)
                out |= live_in[f.succs[k]];
            uint16_t in = f.use | (out & ~f.def);
            if (in != live_in[ri]) {
                live_in[ri] = in;
                changed = true;
            }
        }
    }
    return live_in;
}

/** Live-in masks keyed by block start, as ReorgResult reports them. */
std::vector<BlockLiveIn>
liveInByStart(const std::vector<Block> &blocks,
              const std::vector<uint16_t> &live_in)
{
    std::vector<BlockLiveIn> out;
    out.reserve(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i)
        out.push_back(BlockLiveIn{blocks[i].begin, live_in[i]});
    return out;
}

// ------------------------------------------------------ Scheduling

/** GPRs written by load pieces of a word (the delayed writes). */
uint16_t
loadDelayWrites(const Item &item)
{
    if (item.is_data || !item.inst.isLoad() ||
        item.inst.mem()->rd == isa::kZeroReg) {
        return 0;
    }
    return static_cast<uint16_t>(1u << item.inst.mem()->rd);
}

/** True if `cand` placed right after `prev` would read a stale value. */
bool
loadHazard(const Item &prev, const RegUse &cand_use)
{
    return (loadDelayWrites(prev) & cand_use.gpr_reads) != 0;
}

Item
makeNopItem()
{
    Item item;
    item.inst = Instruction::makeNop();
    return item;
}

bool
isNopItem(const Item &item)
{
    return !item.is_data && item.inst.isNop();
}

/** `item` without its labels: a block's labels go on its first output
 *  word, whichever item that turns out to be. */
Item
unlabeled(const Item &item)
{
    Item copy = item;
    copy.label = kNoLabel;
    return copy;
}

/**
 * One output word: the item, its register use, and the DAG nodes it
 * holds while its block is being scheduled (-1 for none: an inserted
 * no-op holds none, a packed word two).
 */
struct Word
{
    Item item;
    RegUse use;
    std::array<int, 2> nodes{-1, -1};
};

Word
nopWord()
{
    return Word{makeNopItem(), RegUse{}, {-1, -1}};
}

/**
 * The per-block scheduler. One instance serves every block of a
 * reorganization: it appends each block's words to one shared output
 * and reuses its DAG and work lists from block to block.
 */
class BlockScheduler
{
  public:
    BlockScheduler(const Unit &legal, const std::vector<RegUse> &uses,
                   const ReorgOptions &opts, ReorgStats *stats,
                   std::vector<Word> *words)
        : legal_(legal), uses_(uses), opts_(opts), stats_(stats),
          words_(*words)
    {}

    /** Schedule `b`, appending its words and recording their range. */
    void run(Block &b);

  private:
    void schedule(const Block &b);
    size_t emitted() const { return words_.size() - base_; }
    Word &word(size_t pos) { return words_[base_ + pos]; }
    void emitCopy(uint32_t index);
    void emitNop();
    void emitNode(int id);
    void release(int id);
    bool tryPack(int id);
    bool hazardFreeAtEnd(const RegUse &use) const;
    void scheduleBody(int term_id);
    void fillSlotsByMoving(int nslots);

    const Unit &legal_;
    const std::vector<RegUse> &uses_;
    const ReorgOptions &opts_;
    ReorgStats *stats_;
    std::vector<Word> &words_;

    size_t base_ = 0;    ///< first output word of the current block
    uint32_t first_ = 0; ///< its first legal item (DAG node 0)
    Dag dag_;
    std::vector<int> ready_;
    std::vector<int> height_;
};

void
BlockScheduler::run(Block &b)
{
    base_ = words_.size();
    first_ = b.begin;
    schedule(b);
    b.out_begin = static_cast<uint32_t>(base_);
    b.out_end = static_cast<uint32_t>(words_.size());
}

bool
BlockScheduler::hazardFreeAtEnd(const RegUse &use) const
{
    if (words_.size() == base_)
        return true;
    return !loadHazard(words_.back().item, use);
}

void
BlockScheduler::emitCopy(uint32_t index)
{
    words_.push_back(
        Word{unlabeled(legal_.items[index]), uses_[index], {-1, -1}});
}

void
BlockScheduler::emitNop()
{
    words_.push_back(nopWord());
    ++stats_->noops_inserted;
}

void
BlockScheduler::emitNode(int id)
{
    emitCopy(first_ + static_cast<uint32_t>(id));
    words_.back().nodes[0] = id;
    release(id);
}

/** Node `id` is placed: its successors may become ready. */
void
BlockScheduler::release(int id)
{
    for (int succ : dag_.succs(id)) {
        if (--dag_.nodes()[succ].pred_count == 0)
            ready_.push_back(succ);
    }
    ready_.erase(std::remove(ready_.begin(), ready_.end(), id),
                 ready_.end());
}

/**
 * Try to merge node `id` into the last emitted word (packing). The
 * merge is legal when the formats combine, there is no dependence from
 * the resident node to the candidate, and the candidate has no load
 * hazard at the *last word's* position.
 */
bool
BlockScheduler::tryPack(int id)
{
    if (!opts_.pack || emitted() == 0)
        return false;
    Word &last = words_.back();
    if (last.nodes[0] < 0 || last.nodes[1] >= 0)
        return false; // an inserted no-op, or already packed
    const Item &cand = dag_.item(id);
    if (last.item.is_data || cand.is_data || cand.target != kNoLabel)
        return false;

    const Instruction &a = last.item.inst;
    const Instruction &b = cand.inst;
    const isa::AluPiece *alu;
    const isa::MemPiece *mem;
    if (a.alu() && !a.mem() && b.mem() && !b.alu()) {
        alu = a.alu();
        mem = b.mem();
    } else if (a.mem() && !a.alu() && b.alu() && !b.hasTransfer()) {
        alu = b.alu();
        mem = a.mem();
    } else {
        return false;
    }
    if (!isa::canPack(*alu, *mem))
        return false;

    if (!opts_.bugs.pack_dependent && dag_.hasEdge(last.nodes[0], id))
        return false;

    // The candidate now executes one position earlier: recheck the
    // load hazard against the word before the last one.
    if (emitted() >= 2 &&
        loadHazard(word(emitted() - 2).item, uses_[first_ + id]))
        return false;

    // The reference annotation travels with the memory piece.
    const Item &mem_item = a.mem() ? last.item : cand;
    last.item.ref_size = mem_item.ref_size;
    last.item.ref_is_char = mem_item.ref_is_char;
    last.item.inst = Instruction::makePacked(*alu, *mem);
    last.use = isa::regUse(last.item.inst);
    last.nodes[1] = id;
    release(id);
    ++stats_->packed_words;
    return true;
}

void
BlockScheduler::scheduleBody(int term_id)
{
    const int n = static_cast<int>(dag_.nodes().size());

    // Longest-path heights for the critical-path heuristic.
    height_.assign(static_cast<size_t>(n), 1);
    for (int i = n - 1; i >= 0; --i)
        for (int succ : dag_.succs(i))
            height_[i] = std::max(height_[i], 1 + height_[succ]);

    ready_.clear();
    for (int i = 0; i < n; ++i)
        if (dag_.nodes()[i].pred_count == 0)
            ready_.push_back(i);

    size_t body_remaining = static_cast<size_t>(n) - (term_id >= 0 ? 1 : 0);
    while (body_remaining > 0) {
        // Packing first: it is free.
        bool packed = false;
        for (int id : ready_) {
            if (id != term_id && tryPack(id)) {
                packed = true;
                --body_remaining;
                break;
            }
        }
        if (packed)
            continue;

        int best = -1;
        auto better = [&](int a, int b) {
            // Critical path first; then fan-out (nodes with more
            // dependents unblock more of the block, and in particular
            // schedule loads consumed by the terminator early enough
            // to keep the delay slots fillable); then stability.
            if (height_[a] != height_[b])
                return height_[a] > height_[b];
            if (dag_.succs(a).size() != dag_.succs(b).size())
                return dag_.succs(a).size() > dag_.succs(b).size();
            return a < b;
        };
        for (int id : ready_) {
            if (id == term_id)
                continue;
            if (!hazardFreeAtEnd(uses_[first_ + id]))
                continue;
            if (best < 0 || better(id, best))
                best = id;
        }
        if (best < 0 && opts_.bugs.drop_load_noop) {
            // Fault injection: emit the best *hazardous* candidate
            // instead of covering the load delay with a no-op.
            for (int id : ready_) {
                if (id != term_id && (best < 0 || better(id, best)))
                    best = id;
            }
        }
        if (best < 0) {
            emitNop();
            continue;
        }
        emitNode(best);
        --body_remaining;
    }
}

/** Scheme 1: move trailing independent words into the delay slots. */
void
BlockScheduler::fillSlotsByMoving(int nslots)
{
    // The terminator is the last emitted word; candidates sit just
    // before it. Each successful move relocates one word after the
    // terminator (preserving their mutual order).
    for (int filled = 0; filled < nslots; ++filled) {
        // Position of the terminator word in the block.
        size_t term_pos = emitted() - 1 - static_cast<size_t>(filled);
        if (term_pos == 0)
            break;

        // Search backward for a movable word (the paper's scheme 1).
        // A candidate at position p may hop over the words between it
        // and the terminator only if it has no dependence edge to any
        // of them.
        size_t found = term_pos; // sentinel: nothing found
        size_t lowest = term_pos > 8 ? term_pos - 8 : 0;
        if (opts_.bugs.slot_overwritten_def) {
            // Fault injection: take the *first* plausible word from
            // the front, hopping it over later dependent words.
            for (size_t p = lowest; p < term_pos; ++p) {
                const Item &cand = word(p).item;
                if (isNopItem(cand) || cand.is_data)
                    continue;
                if (loadDelayWrites(cand) != 0)
                    continue;
                found = p;
                break;
            }
        } else {
            for (size_t p = term_pos; p-- > lowest;) {
                const Item &cand = word(p).item;
                if (isNopItem(cand) || cand.is_data)
                    continue;
                if (loadDelayWrites(cand) != 0)
                    continue; // loads never sit in delay slots
                // The move hops the candidate over everything after
                // it — the intervening words, the terminator, and any
                // slot words already placed — so it must have no
                // dependence edge to any of them.
                bool dep = false;
                for (int node_id : word(p).nodes) {
                    for (size_t q = p + 1; q < emitted() && !dep; ++q)
                        for (int other : word(q).nodes)
                            dep = dep || (node_id >= 0 && other >= 0 &&
                                          dag_.hasEdge(node_id, other));
                }
                if (dep)
                    continue;
                // Removing the candidate creates two new adjacencies:
                // word p-1 with word p+1, and (when adjacent to the
                // terminator) the terminator with its new predecessor.
                if (p > 0 && loadHazard(word(p - 1).item, word(p + 1).use))
                    continue;
                found = p;
                break;
            }
        }
        if (found == term_pos)
            break;

        std::rotate(words_.begin() + static_cast<long>(base_ + found),
                    words_.begin() + static_cast<long>(base_ + found) + 1,
                    words_.end());
        ++stats_->slots_filled_move;
    }
}

void
BlockScheduler::schedule(const Block &b)
{
    // Untouchable blocks pass through verbatim.
    if (b.no_reorder || b.is_data) {
        for (uint32_t k = b.begin; k < b.end; ++k)
            emitCopy(k);
        return;
    }

    const Item &last = legal_.items[b.end - 1];
    const Item *term = isTransfer(last) ? &last : nullptr;

    if (!opts_.reorder) {
        // No reorganizer at all: the code generator knows nothing
        // about the pipeline, so the only safe lowering pads every
        // load with a delay no-op and every transfer with its delay
        // slots. Removing the unnecessary ones requires dependence
        // analysis — which is exactly the reorganization stage.
        for (uint32_t k = b.begin; k < b.end; ++k) {
            emitCopy(k);
            if (loadDelayWrites(legal_.items[k]) != 0)
                emitNop();
        }
        if (term) {
            for (int i = 0; i < delaySlots(*term); ++i)
                emitNop();
        }
        return;
    }

    size_t size = b.end - b.begin;
    dag_.build(std::span(legal_.items).subspan(b.begin, size),
               std::span(uses_).subspan(b.begin, size), opts_.alias,
               opts_.bugs.alias_blind);
    int term_id = term ? static_cast<int>(size) - 1 : -1;

    scheduleBody(term_id);

    if (term) {
        if (!hazardFreeAtEnd(uses_[b.end - 1]) &&
            !opts_.bugs.drop_load_noop)
            emitNop();
        emitNode(term_id);

        int nslots = delaySlots(*term);
        size_t before = stats_->slots_filled_move;
        if (opts_.fill_delay)
            fillSlotsByMoving(nslots);
        int filled = static_cast<int>(stats_->slots_filled_move - before);
        if (opts_.bugs.drop_branch_noop && filled < nslots)
            ++filled; // fault injection: one slot no-op dropped
        for (int i = filled; i < nslots; ++i)
            emitNop();
    }
}

// ------------------------------------------- Cross-block slot filling

/** True when `item` is safe as a delay-slot occupant. */
bool
slotSafe(const Item &item)
{
    if (item.is_data || isNopItem(item))
        return false;
    if (item.inst.isControlTransfer())
        return false;
    if (loadDelayWrites(item) != 0 || item.inst.isLoad())
        return false;
    return true;
}

/**
 * Names for scheme-2 labels, L$dup0, L$dup1, ..., skipping any name
 * the unit's table already holds.
 */
class DupNames
{
  public:
    explicit DupNames(const LabelTable &labels)
    {
        for (LabelId id = 0; id < labels.size(); ++id)
            if (labels.name(id).starts_with(kPrefix))
                taken_.emplace_back(labels.name(id));
    }

    std::string
    mint()
    {
        for (;;) {
            std::string name = support::strprintf("%s%d", kPrefix, next_++);
            if (std::find(taken_.begin(), taken_.end(), name) ==
                taken_.end())
                return name;
        }
    }

  private:
    static constexpr const char *kPrefix = "L$dup";
    std::vector<std::string> taken_;
    int next_ = 0;
};

/**
 * Scheme 2: for an unconditional direct transfer whose slot is still a
 * no-op, duplicate the first instruction of the target block into the
 * slot and retarget the transfer past it. New labels go into `table`,
 * the output's.
 */
void
fillSlotsByDuplication(std::vector<Block> &blocks,
                       const BlockLabels &labels, std::vector<Word> &words,
                       const ReorgOptions &opts, ReorgStats *stats,
                       LabelTable *table, std::vector<DupHint> *hints)
{
    DupNames names(*table);
    for (Block &b : blocks) {
        if (b.no_reorder || b.is_data || b.outSize() < 2)
            continue;
        // Terminator followed by exactly one no-op slot.
        size_t slot = b.out_end - 1;
        if (!isNopItem(words[slot].item))
            continue;
        Item &term = words[slot - 1].item;
        if (term.is_data || term.target == kNoLabel)
            continue;
        bool unconditional =
            (term.inst.branch() && term.inst.branch()->cond == Cond::ALWAYS) ||
            (term.inst.jump() &&
             (term.inst.jump()->kind == JumpKind::DIRECT ||
              term.inst.jump()->kind == JumpKind::CALL_DIRECT));
        if (!unconditional || delaySlots(term) != 1)
            continue;

        long t = labels.find(term.target);
        if (t < 0)
            continue;
        const Block &target = blocks[static_cast<size_t>(t)];
        if (target.no_reorder || target.is_data || target.outSize() < 2)
            continue;
        const Word &w = words[target.out_begin];
        if (!slotSafe(w.item) || w.item.inst.isStore())
            continue;

        Word copy = w;
        copy.item.label = kNoLabel;

        if (opts.bugs.retarget_same_target) {
            // Fault injection: fill the slot but keep the original
            // target, so the duplicated word executes twice.
            words[slot] = std::move(copy);
            ++stats->slots_filled_dup;
            continue;
        }

        // Retarget past the duplicated instruction(s). With the
        // dup_skip_second fault injected, the retarget skips one word
        // more than was duplicated.
        size_t skip = opts.bugs.dup_skip_second ? 2u : 1u;
        if (target.outSize() <= skip)
            continue;
        Item &resume = words[target.out_begin + skip].item;
        if (resume.label == kNoLabel) {
            // The word now begins a block conceptually; reassembly
            // keeps per-word labels.
            resume.label = table->add(names.mint());
        }
        LabelId new_label = resume.label;
        if (hints)
            hints->push_back(DupHint{term.target, new_label, 1});
        term.target = new_label;
        words[slot] = std::move(copy);
        ++stats->slots_filled_dup;
    }
}

/**
 * Scheme 3: for a conditional branch whose slot is still a no-op,
 * hoist the fall-through successor's first instruction into the slot
 * when its results are dead on the taken path.
 */
void
fillSlotsByHoisting(const Unit &legal, std::vector<Block> &blocks,
                    const BlockLabels &labels, std::vector<Word> &words,
                    const std::vector<uint16_t> &live_in,
                    const ReorgOptions &opts, ReorgStats *stats)
{
    for (size_t i = 0; i + 1 < blocks.size(); ++i) {
        Block &b = blocks[i];
        if (b.no_reorder || b.is_data || b.outSize() < 2)
            continue;
        size_t slot = b.out_end - 1;
        if (!isNopItem(words[slot].item))
            continue;
        const Item &term = words[slot - 1].item;
        if (term.is_data || !term.inst.branch() || term.target == kNoLabel)
            continue;
        Cond c = term.inst.branch()->cond;
        if (c == Cond::ALWAYS || c == Cond::NEVER)
            continue;

        Block &next = blocks[i + 1];
        if (next.no_reorder || next.is_data ||
            legal.items[next.begin].label != kNoLabel ||
            next.outSize() == 0) {
            continue; // must be a pure fall-through block
        }
        Word &w = words[next.out_begin];
        if (!slotSafe(w.item) || !w.item.inst.alu() || w.item.inst.mem())
            continue; // ALU-only: no memory effects on the taken path
        if (w.use.writes_lo || w.use.touches_system_state)
            continue;

        long t = labels.find(term.target);
        if (t < 0)
            continue;
        uint16_t live_at_target = live_in[static_cast<size_t>(t)];
        if (!opts.bugs.hoist_blind &&
            (w.use.gpr_writes & live_at_target) != 0) {
            continue; // visible on the taken path
        }

        w.item.label = kNoLabel;
        words[slot] = std::move(w);
        ++next.out_begin;
        ++stats->slots_filled_hoist;
    }
}

} // namespace

std::vector<BlockLiveIn>
blockLiveIn(const Unit &unit)
{
    std::vector<Block> blocks = splitBlocks(unit);
    return liveInByStart(blocks,
                         computeLiveness(unit, blocks, itemUses(unit),
                                         BlockLabels(unit, blocks)));
}

ReorgResult
reorganize(const Unit &legal, const ReorgOptions &opts)
{
    // Symbolic-target requirement (code motion invalidates numeric
    // branch offsets).
    for (const Item &item : legal.items) {
        if (!item.is_data && !item.no_reorder && item.inst.branch() &&
            item.target == kNoLabel && item.inst.branch()->offset != 0) {
            support::panic("reorganize: branch at source line %d has a "
                           "numeric target; use a label",
                           item.source_line);
        }
    }

    std::vector<Block> blocks = splitBlocks(legal);
    std::vector<RegUse> uses = itemUses(legal);
    BlockLabels labels(legal, blocks);
    std::vector<uint16_t> live_in =
        computeLiveness(legal, blocks, uses, labels);

    ReorgResult result;
    result.stats.input_words = legal.items.size();
    Unit &out = result.unit;
    out.labels = legal.labels;

    // Per-block scheduling (covers scheme 1 when filling is enabled).
    // Every block's words go to one vector, each item copied once. The
    // output is about as long as the input (no-ops in, packed pieces
    // out); a larger reserve sent more pages through glibc's heap
    // trimming and raised the page faults of a fuzz run.
    std::vector<Word> words;
    words.reserve(legal.items.size());
    BlockScheduler scheduler(legal, uses, opts, &result.stats, &words);
    for (Block &b : blocks)
        scheduler.run(b);

    if (opts.fill_delay) {
        fillSlotsByDuplication(blocks, labels, words, opts, &result.stats,
                               &out.labels, &result.hints);
        fillSlotsByHoisting(legal, blocks, labels, words, live_in, opts,
                            &result.stats);
    }

    // Cross-block load-delay fixup: a fall-through block whose last
    // word is a load needs a no-op when the next block's first word
    // reads the loaded register.
    size_t trailing_nops = 0;
    for (size_t i = 0; i + 1 < blocks.size(); ++i) {
        Block &b = blocks[i];
        if (b.outSize() == 0 || isTransfer(words[b.out_end - 1].item))
            continue;
        uint16_t delayed = loadDelayWrites(words[b.out_end - 1].item);
        if (!delayed)
            continue;
        const Block &next = blocks[i + 1];
        if (next.outSize() == 0 || words[next.out_begin].item.is_data)
            continue;
        if (delayed & words[next.out_begin].use.gpr_reads) {
            b.trailing_nop = true;
            ++trailing_nops;
            ++result.stats.noops_inserted;
        }
    }

    // Reassemble: move the words out, block labels on each block's
    // first word. The labels keep their chains; only their items move.
    out.origin = legal.origin;
    out.trailing = legal.trailing;
    out.items.reserve(words.size() + trailing_nops);
    for (const Block &b : blocks) {
        if (b.outSize() == 0) {
            // Emptied by hoisting; it had no labels by construction.
            continue;
        }
        for (uint32_t k = b.out_begin; k < b.out_end; ++k) {
            Item &item = words[k].item;
            // Scheme 2 labels words past a block's first, so the
            // block's own labels are its first word's only ones.
            if (k == b.out_begin)
                item.label = legal.items[b.begin].label;
            out.items.push_back(std::move(item));
        }
        if (b.trailing_nop)
            out.items.push_back(makeNopItem());
    }
    assembler::locateLabels(&out);
    result.stats.output_words = out.items.size();
    result.live_in = liveInByStart(blocks, live_in);
    return result;
}

} // namespace mips::reorg
