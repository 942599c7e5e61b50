#include "verify/tv.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

#include "isa/branch.h"
#include "isa/instruction.h"
#include "isa/registers.h"
#include "obs/catalog.h"
#include "support/strings.h"

namespace mips::verify {

namespace {

using assembler::Item;
using assembler::kNoLabel;
using assembler::LabelId;
using assembler::Unit;

constexpr uint16_t kAllRegs = 0xfffe; // r0 is never compared

/** Fenced runs in ordinal order, as [first, last] item ranges. */
std::vector<std::pair<size_t, size_t>>
fenceRuns(const RegionMap &map)
{
    std::vector<std::pair<size_t, size_t>> runs;
    for (size_t i = 0; i < map.fence.size(); ++i) {
        if (map.fence[i] < 0)
            continue;
        if (static_cast<size_t>(map.fence[i]) == runs.size())
            runs.emplace_back(i, i);
        else
            runs.back().second = i;
    }
    return runs;
}

const char *
exitKindName(SymExitKind k)
{
    switch (k) {
      case SymExitKind::FALL_LABEL: return "fall-through to a label";
      case SymExitKind::FALL_FENCE:
        return "fall-through into a fenced run";
      case SymExitKind::FALL_END: return "fall off the end of the unit";
      case SymExitKind::BRANCH: return "conditional branch";
      case SymExitKind::GOTO: return "unconditional transfer";
      case SymExitKind::CALL: return "call";
      case SymExitKind::JUMP_INDIRECT: return "indirect jump";
      case SymExitKind::TRAP: return "trap";
      case SymExitKind::RFE: return "return from exception";
      case SymExitKind::HALT: return "halt";
      case SymExitKind::JUMP_TABLE: return "table dispatch";
    }
    return "?";
}

/** Item index of label `id`'s first definition in `unit` (one past
 *  the last item for a trailing label), or kNoItem when the unit does
 *  not define it. */
size_t
labelAt(const Unit &unit, LabelId id)
{
    if (id >= unit.labels.size() || !unit.labels.defined(id))
        return kNoItem;
    return unit.labels.item(id);
}

/** Target-label sequence of the dispatch table at `label`: the
 *  contiguous run of relocated .word entries from the label. Empty
 *  optional when the table cannot be located. */
std::optional<std::vector<LabelId>>
tableEntryLabels(const Unit &unit, LabelId label)
{
    if (label == kNoLabel)
        return std::nullopt;
    size_t at = labelAt(unit, label);
    if (at == kNoItem)
        return std::nullopt;
    std::vector<LabelId> out;
    for (size_t i = at; i < unit.items.size(); ++i) {
        const Item &item = unit.items[i];
        if (!item.is_data || item.target == kNoLabel)
            break;
        out.push_back(item.target);
    }
    if (out.empty())
        return std::nullopt;
    return out;
}

/**
 * One validation run: pairs regions of the input and output units,
 * symbolically executes both sides of every pair, and reports any
 * divergence (TV001-TV006) or unproven region (TV090).
 */
class Validator
{
  public:
    Validator(const Unit &input, const Unit &output,
              const std::vector<reorg::DupHint> &hints,
              const std::vector<reorg::BlockLiveIn> &live_in,
              const TvOptions &opts)
        : input_(input), output_(output), hints_(hints), opts_(opts),
          engine_(&output), live_in_(input.items.size() + 1, kAllRegs),
          arena_(opts.alias)
    {
        arena_.setLabels(&output.labels);
        for (const reorg::BlockLiveIn &block : live_in) {
            if (block.start < live_in_.size())
                live_in_[block.start] = block.mask;
        }
    }

    VerifyReport run();

  private:
    /** Where a region entry comes from; names it in diagnostics. */
    enum class EntryKind : uint8_t
    {
        UNIT,        ///< the unit entry
        AFTER_FENCE, ///< past fenced run `ref`
        REGION,      ///< input label `ref`
        DUPLICATE,   ///< the continuation of scheme-2 hint `ref`
        CALL_RETURN, ///< after the call at output word `ref`
        TRAP_RETURN, ///< after the trap at output word `ref`
    };

    /** One paired region entry. `pre_*` replays scheme-2 duplicated
     *  output words on the output entry state before the run. */
    struct Entry
    {
        EntryKind kind = EntryKind::UNIT;
        size_t ref = 0;
        size_t in_at = 0;
        size_t out_at = 0;
        bool has_pre = false;
        size_t pre_start = 0;
        size_t pre_count = 0;
    };

    std::string name(const Entry &e) const;
    void compareFences();
    void seedEntries();
    void validateEntry(const Entry &e);
    void compareExit(const Entry &e, const SymExit &a, const SymExit &b);
    bool compareStates(const Entry &e, size_t at, const SymState &a,
                       const SymState &b, uint16_t mask, const char *where);
    uint16_t liveAtLabel(LabelId label) const;
    const reorg::DupHint *findHint(LabelId orig, LabelId dup) const;

    /** A label's name; the output's table holds every id. */
    std::string
    labelName(LabelId id) const
    {
        return id < output_.labels.size()
                   ? std::string(output_.labels.name(id))
                   : std::string("?");
    }
    void enqueue(const Entry &e);

    size_t
    outSite(size_t at) const
    {
        return at < output_.items.size() ? at : kNoItem;
    }

    void
    note(size_t at, std::string msg)
    {
        engine_.report(Code::TV090, Severity::NOTE, at, std::move(msg));
    }

    const Unit &input_;
    const Unit &output_;
    const std::vector<reorg::DupHint> &hints_;
    TvOptions opts_;
    DiagnosticEngine engine_;

    /** Input item -> live-in mask of the block it starts (kAllRegs
     *  where no block starts); one past the end for trailing labels. */
    std::vector<uint16_t> live_in_;
    RegionMap in_map_, out_map_;
    std::vector<Entry> work_;
    /** Sorted (in_at, out_at, has_pre) keys of every entry in work_. */
    std::vector<uint64_t> seen_;

    /** One arena for every region; reset before each. */
    ExprArena arena_;
    SymRun in_run_, out_run_;
};

std::string
Validator::name(const Entry &e) const
{
    switch (e.kind) {
      case EntryKind::UNIT:
        return "the unit entry";
      case EntryKind::AFTER_FENCE:
        return support::strprintf("after fenced run %zu", e.ref);
      case EntryKind::REGION:
        return support::strprintf(
            "region '%s'", labelName(static_cast<LabelId>(e.ref)).c_str());
      case EntryKind::DUPLICATE: {
        const reorg::DupHint &h = hints_[e.ref];
        return support::strprintf("region '%s' (duplicated from '%s')",
                                  labelName(h.dup_label).c_str(),
                                  labelName(h.orig_label).c_str());
      }
      case EntryKind::CALL_RETURN:
        return support::strprintf(
            "the return point of the call at output word %zu", e.ref);
      case EntryKind::TRAP_RETURN:
        return support::strprintf(
            "the continuation of the trap at output word %zu", e.ref);
    }
    return "?";
}

void
Validator::enqueue(const Entry &e)
{
    uint64_t key = static_cast<uint64_t>(e.in_at) << 32 |
                   static_cast<uint64_t>(e.out_at) << 1 |
                   (e.has_pre ? 1u : 0u);
    auto it = std::lower_bound(seen_.begin(), seen_.end(), key);
    if (it != seen_.end() && *it == key)
        return;
    seen_.insert(it, key);
    work_.push_back(e);
}

uint16_t
Validator::liveAtLabel(LabelId label) const
{
    size_t at = labelAt(input_, label);
    return at == kNoItem ? kAllRegs : live_in_[at];
}

const reorg::DupHint *
Validator::findHint(LabelId orig, LabelId dup) const
{
    for (const reorg::DupHint &h : hints_) {
        if (h.orig_label == orig && h.dup_label == dup)
            return &h;
    }
    return nullptr;
}

void
Validator::compareFences()
{
    auto in_runs = fenceRuns(in_map_);
    auto out_runs = fenceRuns(out_map_);
    if (in_runs.size() != out_runs.size()) {
        engine_.report(
            Code::TV005, Severity::ERROR, kNoItem,
            support::strprintf(
                "input has %zu fenced (.noreorder/data) run(s) but the "
                "output has %zu",
                in_runs.size(), out_runs.size()));
    }
    size_t n = std::min(in_runs.size(), out_runs.size());
    for (size_t r = 0; r < n; ++r) {
        size_t in_len = in_runs[r].second - in_runs[r].first + 1;
        size_t out_len = out_runs[r].second - out_runs[r].first + 1;
        if (in_len != out_len) {
            engine_.report(
                Code::TV005, Severity::ERROR, out_runs[r].first,
                support::strprintf(
                    "fenced run %zu changed length: %zu word(s) in, "
                    "%zu out", r, in_len, out_len));
            continue;
        }
        for (size_t k = 0; k < in_len; ++k) {
            const Item &a = input_.items[in_runs[r].first + k];
            const Item &b = output_.items[out_runs[r].first + k];
            bool same = a.is_data == b.is_data && a.target == b.target;
            if (same && a.is_data)
                same = a.data_value == b.data_value;
            if (same && !a.is_data)
                same = a.inst == b.inst;
            if (!same) {
                engine_.report(
                    Code::TV005, Severity::ERROR,
                    out_runs[r].first + k,
                    support::strprintf(
                        "fenced run %zu word %zu differs from the "
                        "input (fenced code must pass through "
                        "verbatim)", r, k));
            }
        }
        // Execution resumes past the run on both sides; prove the
        // continuation like any other region pair.
        Entry e;
        e.kind = EntryKind::AFTER_FENCE;
        e.ref = r;
        e.in_at = in_runs[r].second + 1;
        e.out_at = out_runs[r].second + 1;
        enqueue(e);
    }
}

void
Validator::seedEntries()
{
    enqueue(Entry{});

    // One region per input label name, in name order: the order
    // decides which of an item's labels names its region.
    const assembler::LabelTable &in_labels = input_.labels;
    std::vector<LabelId> labels;
    for (LabelId id = 0; id < in_labels.size(); ++id)
        if (in_labels.first(id) == id && in_labels.defined(id))
            labels.push_back(id);
    std::sort(labels.begin(), labels.end(), [&](LabelId a, LabelId b) {
        return in_labels.name(a) < in_labels.name(b);
    });
    for (LabelId label : labels) {
        size_t in_at = in_labels.item(label);
        size_t out_at = labelAt(output_, label);
        std::string_view name = in_labels.name(label);
        if (out_at == kNoItem) {
            engine_.report(
                Code::TV005, Severity::ERROR, kNoItem,
                support::strprintf(
                    "input label '%.*s' does not exist in the output",
                    static_cast<int>(name.size()), name.data()));
            continue;
        }
        bool in_fenced = in_at < input_.items.size() &&
                         in_map_.fence[in_at] >= 0;
        bool out_fenced = out_at < output_.items.size() &&
                          out_map_.fence[out_at] >= 0;
        if (in_fenced != out_fenced) {
            engine_.report(
                Code::TV005, Severity::ERROR, outSite(out_at),
                support::strprintf(
                    "label '%.*s' is %sside a fenced run in the input "
                    "but %sside one in the output",
                    static_cast<int>(name.size()), name.data(),
                    in_fenced ? "in" : "out", out_fenced ? "in" : "out"));
            continue;
        }
        if (in_fenced)
            continue; // covered by the verbatim fence comparison
        Entry e;
        e.kind = EntryKind::REGION;
        e.ref = label;
        e.in_at = in_at;
        e.out_at = out_at;
        enqueue(e);
    }

    // Scheme-2 provenance: prove the retargeted continuation. Input
    // runs from the original target; the output entry state is first
    // advanced over the duplicated words (which the transfer's delay
    // slot executed on the way in), then the output runs from the new
    // target.
    for (size_t k = 0; k < hints_.size(); ++k) {
        const reorg::DupHint &h = hints_[k];
        size_t in_orig = labelAt(input_, h.orig_label);
        size_t out_orig = labelAt(output_, h.orig_label);
        size_t out_dup = labelAt(output_, h.dup_label);
        if (in_orig == kNoItem || out_orig == kNoItem ||
            out_dup == kNoItem || out_dup <= out_orig) {
            engine_.report(
                Code::TV005, Severity::ERROR, kNoItem,
                support::strprintf(
                    "scheme-2 hint '%s' -> '%s' does not name a "
                    "forward label pair present in both units",
                    labelName(h.orig_label).c_str(),
                    labelName(h.dup_label).c_str()));
            continue;
        }
        Entry e;
        e.kind = EntryKind::DUPLICATE;
        e.ref = k;
        e.in_at = in_orig;
        e.out_at = out_dup;
        e.has_pre = true;
        e.pre_start = out_orig;
        e.pre_count = out_dup - out_orig;
        enqueue(e);
    }
}

bool
Validator::compareStates(const Entry &e, size_t at, const SymState &a,
                         const SymState &b, uint16_t mask,
                         const char *where)
{
    bool clean = true;
    uint16_t bad = 0;
    for (int r = 1; r < isa::kNumRegs; ++r) {
        if ((mask & (1u << r)) && a.regs[r] != b.regs[r])
            bad |= static_cast<uint16_t>(1u << r);
    }
    if (bad) {
        int first = 1;
        while (!(bad & (1u << first)))
            ++first;
        engine_.report(
            Code::TV001, Severity::ERROR, at,
            support::strprintf(
                "%s, %s: %s diverge(s); r%d is %s sequentially but %s "
                "on the pipeline",
                name(e).c_str(), where, regListNames(bad).c_str(), first,
                arena_.str(a.regs[first]).c_str(),
                arena_.str(b.regs[first]).c_str()));
        clean = false;
    }
    if (a.lo != b.lo) {
        engine_.report(
            Code::TV006, Severity::ERROR, at,
            support::strprintf(
                "%s, %s: LO diverges; %s sequentially but %s on the "
                "pipeline",
                name(e).c_str(), where, arena_.str(a.lo).c_str(),
                arena_.str(b.lo).c_str()));
        clean = false;
    }
    if (a.sys != b.sys) {
        engine_.report(
            Code::TV006, Severity::ERROR, at,
            support::strprintf(
                "%s, %s: the system-state effect log diverges; %s "
                "sequentially but %s on the pipeline",
                name(e).c_str(), where, arena_.str(a.sys).c_str(),
                arena_.str(b.sys).c_str()));
        clean = false;
    }
    if (a.mem != b.mem) {
        engine_.report(
            Code::TV002, Severity::ERROR, at,
            support::strprintf(
                "%s, %s: the memory store log diverges; %s "
                "sequentially but %s on the pipeline",
                name(e).c_str(), where, arena_.str(a.mem, 3).c_str(),
                arena_.str(b.mem, 3).c_str()));
        clean = false;
    }
    return clean;
}

void
Validator::compareExit(const Entry &e, const SymExit &a, const SymExit &b)
{
    size_t at = outSite(b.at);
    if (a.kind != b.kind) {
        engine_.report(
            Code::TV003, Severity::ERROR, at,
            support::strprintf(
                "%s: paired exits disagree in kind: %s sequentially "
                "but %s on the pipeline",
                name(e).c_str(), exitKindName(a.kind),
                exitKindName(b.kind)));
        return;
    }

    bool states_compared = false;
    switch (a.kind) {
      case SymExitKind::FALL_END:
        break;
      case SymExitKind::HALT:
      case SymExitKind::RFE:
        break;
      case SymExitKind::TRAP:
        if (a.trap_code != b.trap_code) {
            engine_.report(
                Code::TV003, Severity::ERROR, at,
                support::strprintf(
                    "%s: trap codes differ: %u sequentially but %u on "
                    "the pipeline",
                    name(e).c_str(), a.trap_code, b.trap_code));
        }
        break;
      case SymExitKind::FALL_FENCE:
        if (a.ordinal != b.ordinal) {
            engine_.report(
                Code::TV003, Severity::ERROR, at,
                support::strprintf(
                    "%s: control falls into fenced run %zu "
                    "sequentially but run %zu on the pipeline",
                    name(e).c_str(), a.ordinal, b.ordinal));
        }
        break;
      case SymExitKind::JUMP_TABLE: {
        // TV007: the fetched entry term covers both the fetch address
        // (base + index) and the memory it reads from — any divergence
        // means the two sides can dispatch to different places.
        if (a.target != b.target) {
            engine_.report(
                Code::TV007, Severity::ERROR, at,
                support::strprintf(
                    "%s: table dispatch fetches %s sequentially but %s "
                    "on the pipeline",
                    name(e).c_str(), arena_.str(a.target).c_str(),
                    arena_.str(b.target).c_str()));
        }
        // TV008: the tables themselves must resolve to the same
        // entry-label sequence — a swapped or dropped entry changes
        // where an in-bounds index lands even when the fetch terms
        // agree symbolically.
        auto in_entries = tableEntryLabels(input_, a.label);
        auto out_entries = tableEntryLabels(output_, b.label);
        if (!in_entries || !out_entries) {
            note(at, name(e) + ": cannot resolve the dispatch table for "
                     "the entry-sequence comparison");
            break;
        }
        if (*in_entries != *out_entries) {
            size_t k = 0;
            while (k < in_entries->size() && k < out_entries->size() &&
                   (*in_entries)[k] == (*out_entries)[k])
                ++k;
            std::string what;
            if (k >= in_entries->size() || k >= out_entries->size()) {
                what = support::strprintf(
                    "the input table has %zu entr%s but the output has "
                    "%zu",
                    in_entries->size(),
                    in_entries->size() == 1 ? "y" : "ies",
                    out_entries->size());
            } else {
                what = support::strprintf(
                    "entry %zu targets '%s' in the input but '%s' in "
                    "the output",
                    k, labelName((*in_entries)[k]).c_str(),
                    labelName((*out_entries)[k]).c_str());
            }
            engine_.report(
                Code::TV008, Severity::ERROR, at,
                support::strprintf("%s: dispatch tables differ: %s",
                                   name(e).c_str(), what.c_str()));
        }
        break;
      }
      case SymExitKind::JUMP_INDIRECT:
        if (a.target != b.target) {
            engine_.report(
                Code::TV003, Severity::ERROR, at,
                support::strprintf(
                    "%s: indirect targets differ: %s sequentially but "
                    "%s on the pipeline",
                    name(e).c_str(), arena_.str(a.target).c_str(),
                    arena_.str(b.target).c_str()));
        }
        break;
      case SymExitKind::FALL_LABEL:
      case SymExitKind::BRANCH:
      case SymExitKind::GOTO:
      case SymExitKind::CALL: {
        if (a.kind == SymExitKind::CALL && a.target != b.target) {
            engine_.report(
                Code::TV003, Severity::ERROR, at,
                support::strprintf(
                    "%s: indirect call targets differ: %s sequentially "
                    "but %s on the pipeline",
                    name(e).c_str(), arena_.str(a.target).c_str(),
                    arena_.str(b.target).c_str()));
            break;
        }
        if (a.kind == SymExitKind::BRANCH && a.cond != b.cond) {
            engine_.report(
                Code::TV004, Severity::ERROR, at,
                support::strprintf(
                    "%s: branch conditions differ: %s sequentially but "
                    "%s on the pipeline",
                    name(e).c_str(), arena_.str(a.cond).c_str(),
                    arena_.str(b.cond).c_str()));
        }
        if (a.label != kNoLabel && b.label != kNoLabel) {
            if (a.label != b.label) {
                const reorg::DupHint *hint =
                    (a.kind == SymExitKind::GOTO ||
                     a.kind == SymExitKind::CALL)
                        ? findHint(a.label, b.label)
                        : nullptr;
                if (!hint) {
                    engine_.report(
                        Code::TV003, Severity::ERROR, at,
                        support::strprintf(
                            "%s: transfer targets '%s' sequentially "
                            "but '%s' on the pipeline",
                            name(e).c_str(), labelName(a.label).c_str(),
                            labelName(b.label).c_str()));
                    break;
                }
                // Scheme-2 retarget: the pipeline already executed the
                // duplicated words in the delay slot. Replay them on
                // the sequential side and the states must agree fully.
                size_t out_orig = labelAt(output_, a.label);
                size_t out_dup = labelAt(output_, b.label);
                if (out_orig == kNoItem || out_dup == kNoItem ||
                    out_dup <= out_orig) {
                    note(at, name(e) + ": cannot locate the duplicated "
                             "words for the retargeted exit");
                    break;
                }
                SymState adv = a.state;
                if (!advanceSequential(arena_, output_, out_orig,
                                       out_dup - out_orig, &adv)) {
                    note(at,
                         name(e) + ": cannot replay the duplicated "
                                  "words for the retargeted exit");
                    break;
                }
                compareStates(e, at, adv, b.state, kAllRegs,
                              "at the retargeted exit");
                states_compared = true;
            }
        } else if (a.has_addr && b.has_addr) {
            if (a.addr != b.addr) {
                engine_.report(
                    Code::TV003, Severity::ERROR, at,
                    support::strprintf(
                        "%s: transfer targets address %u sequentially "
                        "but %u on the pipeline",
                        name(e).c_str(), a.addr, b.addr));
                break;
            }
        } else if (a.label != kNoLabel || b.label != kNoLabel ||
                   a.has_addr || b.has_addr) {
            note(at, name(e) + ": cannot compare a symbolic transfer "
                     "target against a numeric one");
            return;
        }
        break;
      }
    }

    if (!states_compared) {
        // Conditional side exits are compared modulo the registers
        // live at the taken target — this is exactly what licenses
        // scheme-3 hoisting (dead-on-taken-path writes may differ).
        uint16_t mask = kAllRegs;
        const char *where = "at the region exit";
        if (a.kind == SymExitKind::BRANCH) {
            where = "on the taken path";
            if (a.label != kNoLabel)
                mask = liveAtLabel(a.label);
        }
        compareStates(e, at, a.state, b.state, mask, where);
    }

    // Control returns after calls and traps; prove the continuation.
    if (a.kind == SymExitKind::CALL) {
        int delay = isa::kBranchDelay;
        if (b.at < output_.items.size() &&
            output_.items[b.at].inst.jump()) {
            delay = isa::jumpDelay(output_.items[b.at].inst.jump()->kind);
        }
        Entry next;
        next.kind = EntryKind::CALL_RETURN;
        next.ref = b.at;
        next.in_at = a.at + 1;
        next.out_at = b.at + 1 + static_cast<size_t>(delay);
        enqueue(next);
    } else if (a.kind == SymExitKind::TRAP) {
        Entry next;
        next.kind = EntryKind::TRAP_RETURN;
        next.ref = b.at;
        next.in_at = a.at + 1;
        next.out_at = b.at + 1;
        enqueue(next);
    }
}

void
Validator::validateEntry(const Entry &e)
{
    arena_.reset();
    SymState in_entry = entryState(arena_);
    SymState out_entry = entryState(arena_);
    if (e.has_pre &&
        !advanceSequential(arena_, output_, e.pre_start, e.pre_count,
                           &out_entry)) {
        note(outSite(e.out_at),
             name(e) + ": cannot replay the duplicated words feeding "
                       "this region entry");
        return;
    }

    runSequential(arena_, input_, in_map_, e.in_at, in_entry,
                  opts_.limits, &in_run_);
    runPipeline(arena_, output_, out_map_, e.out_at, out_entry,
                opts_.limits, &out_run_);
    if (!in_run_.ok) {
        note(outSite(e.out_at),
             name(e) + " is not proven: sequential side: " + in_run_.why);
        return;
    }
    if (!out_run_.ok) {
        note(outSite(out_run_.fail_at),
             name(e) + " is not proven: pipeline side: " + out_run_.why);
        return;
    }
    if (in_run_.exits.size() != out_run_.exits.size()) {
        engine_.report(
            Code::TV005, Severity::ERROR, outSite(e.out_at),
            support::strprintf(
                "%s: the sequential side has %zu exit(s) but the "
                "pipeline side has %zu; the regions cannot be paired",
                name(e).c_str(), in_run_.exits.size(),
                out_run_.exits.size()));
        return;
    }
    for (size_t i = 0; i < in_run_.exits.size(); ++i)
        compareExit(e, in_run_.exits[i], out_run_.exits[i]);
}

VerifyReport
Validator::run()
{
    in_map_ = buildRegionMap(input_, nullptr);
    out_map_ = buildRegionMap(output_, &input_.labels);

    if (!output_.labels.extends(input_.labels)) {
        engine_.report(Code::TV005, Severity::ERROR, kNoItem,
                       "the output's label table does not extend the "
                       "input's, so their labels cannot be paired");
    } else {
        compareFences();
        seedEntries();
    }
    for (size_t i = 0; i < work_.size(); ++i) { // grows as exits derive
        if (i >= 4096) {
            note(kNoItem, "region worklist budget exhausted; remaining "
                          "regions are not proven");
            break;
        }
        validateEntry(Entry(work_[i])); // a copy: work_ may grow
    }

    engine_.sort();
    VerifyReport report;
    report.errors = engine_.errorCount();
    report.warnings = engine_.warningCount();
    report.notes = engine_.noteCount();
    report.diagnostics = engine_.diagnostics();
    return report;
}

} // namespace

VerifyReport
validateTranslation(const assembler::Unit &input,
                    const assembler::Unit &output,
                    const std::vector<reorg::DupHint> &hints,
                    const std::vector<reorg::BlockLiveIn> &live_in,
                    const TvOptions &options)
{
    Validator validator(input, output, hints, live_in, options);
    VerifyReport report = validator.run();

    // Proof-outcome metrics: every run is exactly one of proved /
    // refuted / not_proven, and TV diagnostics join the per-code
    // verify.diag.* counts alongside the hazard verifier's.
    obs::TvMetrics &tm = obs::tvMetrics();
    tm.units->add();
    if (report.errors > 0)
        tm.refuted->add();
    else if (report.countOf(Code::TV090) > 0)
        tm.not_proven->add();
    else
        tm.proved->add();
    obs::VerifyMetrics &vm = obs::verifyMetrics();
    for (const Diagnostic &d : report.diagnostics)
        vm.diag[static_cast<size_t>(d.code)]->add();
    return report;
}

} // namespace mips::verify
