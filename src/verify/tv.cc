#include "verify/tv.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "isa/branch.h"
#include "isa/instruction.h"
#include "isa/registers.h"
#include "obs/catalog.h"
#include "support/strings.h"

namespace mips::verify {

namespace {

using assembler::Item;
using assembler::Unit;

constexpr uint16_t kAllRegs = 0xfffe; // r0 is never compared

/** Label -> item index (trailing labels map to items.size()). */
std::map<std::string, size_t>
labelIndex(const Unit &unit)
{
    std::map<std::string, size_t> map;
    for (size_t i = 0; i < unit.items.size(); ++i)
        for (const std::string &label : unit.items[i].labels)
            map[label] = i;
    for (const std::string &label : unit.trailing_labels)
        map[label] = unit.items.size();
    return map;
}

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

/** Target-label sequence of the dispatch table at `label`: the
 *  contiguous run of relocated .word entries from the label. Empty
 *  optional when the table cannot be located. */
std::optional<std::vector<std::string>>
tableEntryLabels(const Unit &unit,
                 const std::map<std::string, size_t> &labels,
                 const std::string &label)
{
    if (label.empty())
        return std::nullopt;
    auto it = labels.find(label);
    if (it == labels.end())
        return std::nullopt;
    std::vector<std::string> out;
    for (size_t i = it->second; i < unit.items.size(); ++i) {
        const Item &item = unit.items[i];
        if (!item.is_data || item.target.empty())
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
              const TvOptions &opts)
        : input_(input), output_(output), hints_(hints), opts_(opts),
          engine_(&output)
    {}

    VerifyReport run();

  private:
    /** One paired region entry. `pre_*` replays scheme-2 duplicated
     *  output words on the output entry state before the run. */
    struct Entry
    {
        size_t in_at = 0;
        size_t out_at = 0;
        std::string name;
        bool has_pre = false;
        size_t pre_start = 0;
        size_t pre_count = 0;
    };

    void compareFences();
    void seedEntries();
    void validateEntry(const Entry &e);
    void compareExit(ExprArena &arena, const Entry &e, const SymExit &a,
                     const SymExit &b);
    bool compareStates(ExprArena &arena, const Entry &e, size_t at,
                       const SymState &a, const SymState &b,
                       uint16_t mask, const char *where);
    uint16_t liveAtLabel(const std::string &label) const;
    const reorg::DupHint *findHint(const std::string &orig,
                                   const std::string &dup) const;
    void enqueue(Entry e);

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

    std::map<std::string, size_t> in_labels_, out_labels_;
    RegionMap in_map_, out_map_;
    std::map<size_t, uint16_t> live_in_; ///< input block start -> mask
    std::vector<Entry> work_;
    std::set<std::tuple<size_t, size_t, bool>> seen_;
};

void
Validator::enqueue(Entry e)
{
    if (!seen_.emplace(e.in_at, e.out_at, e.has_pre).second)
        return;
    work_.push_back(std::move(e));
}

uint16_t
Validator::liveAtLabel(const std::string &label) const
{
    auto it = in_labels_.find(label);
    if (it == in_labels_.end())
        return kAllRegs;
    auto lv = live_in_.find(it->second);
    return lv == live_in_.end() ? kAllRegs : lv->second;
}

const reorg::DupHint *
Validator::findHint(const std::string &orig, const std::string &dup) const
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
        enqueue(Entry{in_runs[r].second + 1, out_runs[r].second + 1,
                      support::strprintf("after fenced run %zu", r),
                      false, 0, 0});
    }
}

void
Validator::seedEntries()
{
    enqueue(Entry{0, 0, "the unit entry", false, 0, 0});

    for (const auto &[label, in_at] : in_labels_) {
        auto it = out_labels_.find(label);
        if (it == out_labels_.end()) {
            engine_.report(
                Code::TV005, Severity::ERROR, kNoItem,
                support::strprintf(
                    "input label '%s' does not exist in the output",
                    label.c_str()));
            continue;
        }
        size_t out_at = it->second;
        bool in_fenced = in_at < input_.items.size() &&
                         in_map_.fence[in_at] >= 0;
        bool out_fenced = out_at < output_.items.size() &&
                          out_map_.fence[out_at] >= 0;
        if (in_fenced != out_fenced) {
            engine_.report(
                Code::TV005, Severity::ERROR, outSite(out_at),
                support::strprintf(
                    "label '%s' is %sside a fenced run in the input "
                    "but %sside one in the output",
                    label.c_str(), in_fenced ? "in" : "out",
                    out_fenced ? "in" : "out"));
            continue;
        }
        if (in_fenced)
            continue; // covered by the verbatim fence comparison
        enqueue(Entry{in_at, out_at, "region '" + label + "'", false, 0,
                      0});
    }

    // Scheme-2 provenance: prove the retargeted continuation. Input
    // runs from the original target; the output entry state is first
    // advanced over the duplicated words (which the transfer's delay
    // slot executed on the way in), then the output runs from the new
    // target.
    for (const reorg::DupHint &h : hints_) {
        auto in_orig = in_labels_.find(h.orig_label);
        auto out_orig = out_labels_.find(h.orig_label);
        auto out_dup = out_labels_.find(h.dup_label);
        if (in_orig == in_labels_.end() ||
            out_orig == out_labels_.end() ||
            out_dup == out_labels_.end() ||
            out_dup->second <= out_orig->second) {
            engine_.report(
                Code::TV005, Severity::ERROR, kNoItem,
                support::strprintf(
                    "scheme-2 hint '%s' -> '%s' does not name a "
                    "forward label pair present in both units",
                    h.orig_label.c_str(), h.dup_label.c_str()));
            continue;
        }
        Entry e;
        e.in_at = in_orig->second;
        e.out_at = out_dup->second;
        e.name = "region '" + h.dup_label + "' (duplicated from '" +
                 h.orig_label + "')";
        e.has_pre = true;
        e.pre_start = out_orig->second;
        e.pre_count = out_dup->second - out_orig->second;
        enqueue(std::move(e));
    }
}

bool
Validator::compareStates(ExprArena &arena, const Entry &e, size_t at,
                         const SymState &a, const SymState &b,
                         uint16_t mask, const char *where)
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
                e.name.c_str(), where, regListNames(bad).c_str(), first,
                arena.str(a.regs[first]).c_str(),
                arena.str(b.regs[first]).c_str()));
        clean = false;
    }
    if (a.lo != b.lo) {
        engine_.report(
            Code::TV006, Severity::ERROR, at,
            support::strprintf(
                "%s, %s: LO diverges; %s sequentially but %s on the "
                "pipeline",
                e.name.c_str(), where, arena.str(a.lo).c_str(),
                arena.str(b.lo).c_str()));
        clean = false;
    }
    if (a.sys != b.sys) {
        engine_.report(
            Code::TV006, Severity::ERROR, at,
            support::strprintf(
                "%s, %s: the system-state effect log diverges; %s "
                "sequentially but %s on the pipeline",
                e.name.c_str(), where, arena.str(a.sys).c_str(),
                arena.str(b.sys).c_str()));
        clean = false;
    }
    if (a.mem != b.mem) {
        engine_.report(
            Code::TV002, Severity::ERROR, at,
            support::strprintf(
                "%s, %s: the memory store log diverges; %s "
                "sequentially but %s on the pipeline",
                e.name.c_str(), where, arena.str(a.mem, 3).c_str(),
                arena.str(b.mem, 3).c_str()));
        clean = false;
    }
    return clean;
}

void
Validator::compareExit(ExprArena &arena, const Entry &e,
                       const SymExit &a, const SymExit &b)
{
    size_t at = outSite(b.at);
    if (a.kind != b.kind) {
        engine_.report(
            Code::TV003, Severity::ERROR, at,
            support::strprintf(
                "%s: paired exits disagree in kind: %s sequentially "
                "but %s on the pipeline",
                e.name.c_str(), exitKindName(a.kind),
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
                    e.name.c_str(), a.trap_code, b.trap_code));
        }
        break;
      case SymExitKind::FALL_FENCE:
        if (a.ordinal != b.ordinal) {
            engine_.report(
                Code::TV003, Severity::ERROR, at,
                support::strprintf(
                    "%s: control falls into fenced run %zu "
                    "sequentially but run %zu on the pipeline",
                    e.name.c_str(), a.ordinal, b.ordinal));
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
                    e.name.c_str(), arena.str(a.target).c_str(),
                    arena.str(b.target).c_str()));
        }
        // TV008: the tables themselves must resolve to the same
        // entry-label sequence — a swapped or dropped entry changes
        // where an in-bounds index lands even when the fetch terms
        // agree symbolically.
        auto in_entries = tableEntryLabels(input_, in_labels_, a.label);
        auto out_entries =
            tableEntryLabels(output_, out_labels_, b.label);
        if (!in_entries || !out_entries) {
            note(at, e.name + ": cannot resolve the dispatch table for "
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
                    k, (*in_entries)[k].c_str(),
                    (*out_entries)[k].c_str());
            }
            engine_.report(
                Code::TV008, Severity::ERROR, at,
                support::strprintf("%s: dispatch tables differ: %s",
                                   e.name.c_str(), what.c_str()));
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
                    e.name.c_str(), arena.str(a.target).c_str(),
                    arena.str(b.target).c_str()));
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
                    e.name.c_str(), arena.str(a.target).c_str(),
                    arena.str(b.target).c_str()));
            break;
        }
        if (a.kind == SymExitKind::BRANCH && a.cond != b.cond) {
            engine_.report(
                Code::TV004, Severity::ERROR, at,
                support::strprintf(
                    "%s: branch conditions differ: %s sequentially but "
                    "%s on the pipeline",
                    e.name.c_str(), arena.str(a.cond).c_str(),
                    arena.str(b.cond).c_str()));
        }
        if (!a.label.empty() && !b.label.empty()) {
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
                            e.name.c_str(), a.label.c_str(),
                            b.label.c_str()));
                    break;
                }
                // Scheme-2 retarget: the pipeline already executed the
                // duplicated words in the delay slot. Replay them on
                // the sequential side and the states must agree fully.
                auto out_orig = out_labels_.find(a.label);
                auto out_dup = out_labels_.find(b.label);
                if (out_orig == out_labels_.end() ||
                    out_dup == out_labels_.end() ||
                    out_dup->second <= out_orig->second) {
                    note(at, e.name + ": cannot locate the duplicated "
                             "words for the retargeted exit");
                    break;
                }
                SymState adv = a.state;
                size_t k = out_dup->second - out_orig->second;
                if (!advanceSequential(arena, output_,
                                       out_orig->second, k, &adv)) {
                    note(at,
                         e.name + ": cannot replay the duplicated "
                                  "words for the retargeted exit");
                    break;
                }
                compareStates(arena, e, at, adv, b.state, kAllRegs,
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
                        e.name.c_str(), a.addr, b.addr));
                break;
            }
        } else if (!a.label.empty() || !b.label.empty() || a.has_addr ||
                   b.has_addr) {
            note(at, e.name + ": cannot compare a symbolic transfer "
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
            if (!a.label.empty())
                mask = liveAtLabel(a.label);
        }
        compareStates(arena, e, at, a.state, b.state, mask, where);
    }

    // Control returns after calls and traps; prove the continuation.
    if (a.kind == SymExitKind::CALL) {
        int delay = isa::kBranchDelay;
        if (b.at < output_.items.size() &&
            output_.items[b.at].inst.jump) {
            delay = isa::jumpDelay(output_.items[b.at].inst.jump->kind);
        }
        enqueue(Entry{a.at + 1, b.at + 1 + static_cast<size_t>(delay),
                      support::strprintf("the return point of the call "
                                         "at output word %zu", b.at),
                      false, 0, 0});
    } else if (a.kind == SymExitKind::TRAP) {
        enqueue(Entry{a.at + 1, b.at + 1,
                      support::strprintf("the continuation of the trap "
                                         "at output word %zu", b.at),
                      false, 0, 0});
    }
}

void
Validator::validateEntry(const Entry &e)
{
    ExprArena arena(opts_.alias);
    SymState in_entry = entryState(arena);
    SymState out_entry = entryState(arena);
    if (e.has_pre &&
        !advanceSequential(arena, output_, e.pre_start, e.pre_count,
                           &out_entry)) {
        note(outSite(e.out_at),
             e.name + ": cannot replay the duplicated words feeding "
                      "this region entry");
        return;
    }

    SymRun in_run = runSequential(arena, input_, in_map_, e.in_at,
                                  in_entry, opts_.limits);
    SymRun out_run = runPipeline(arena, output_, out_map_, e.out_at,
                                 out_entry, opts_.limits);
    if (!in_run.ok) {
        note(outSite(e.out_at),
             e.name + " is not proven: sequential side: " + in_run.why);
        return;
    }
    if (!out_run.ok) {
        note(outSite(out_run.fail_at),
             e.name + " is not proven: pipeline side: " + out_run.why);
        return;
    }
    if (in_run.exits.size() != out_run.exits.size()) {
        engine_.report(
            Code::TV005, Severity::ERROR, outSite(e.out_at),
            support::strprintf(
                "%s: the sequential side has %zu exit(s) but the "
                "pipeline side has %zu; the regions cannot be paired",
                e.name.c_str(), in_run.exits.size(),
                out_run.exits.size()));
        return;
    }
    for (size_t i = 0; i < in_run.exits.size(); ++i)
        compareExit(arena, e, in_run.exits[i], out_run.exits[i]);
}

VerifyReport
Validator::run()
{
    in_labels_ = labelIndex(input_);
    out_labels_ = labelIndex(output_);
    in_map_ = buildRegionMap(input_, nullptr);
    out_map_ = buildRegionMap(output_, &in_labels_);
    for (const auto &[start, mask] : reorg::blockLiveIn(input_))
        live_in_[start] = mask;

    compareFences();
    seedEntries();
    for (size_t i = 0; i < work_.size(); ++i) { // grows as exits derive
        if (i >= 4096) {
            note(kNoItem, "region worklist budget exhausted; remaining "
                          "regions are not proven");
            break;
        }
        validateEntry(work_[i]);
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
                    const TvOptions &options)
{
    Validator validator(input, output, hints, options);
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
