#include "verify/cfg.h"

#include <algorithm>

#include "isa/branch.h"
#include "support/strings.h"

namespace mips::verify {

using assembler::Item;
using assembler::kNoLabel;
using assembler::LabelId;
using assembler::LabelTable;
using assembler::Unit;
using isa::Cond;
using isa::JumpKind;

namespace {

/** Terminator classification used while wiring edges. */
struct Transfer
{
    bool is_transfer = false;
    int delay = 0;           ///< delay slots exposed (0: immediate)
    bool conditional = false;///< fall-through also possible
    bool target_known = false;
    size_t target = kNoItem; ///< item index when target_known
    bool to_unknown = false; ///< callee / indirect / trap / RFE
    /** Table-dispatch successor set (one per table entry). */
    const std::vector<size_t> *multi_targets = nullptr;
    ShadowKind shadow = ShadowKind::NONE;
};

/** VF002 at item `i`: `label` is referenced but never defined. */
void
reportUndefined(const Cfg &cfg, size_t i, LabelId label,
                DiagnosticEngine *diags)
{
    diags->report(Code::VF002, Severity::ERROR, i,
                  support::strprintf(
                      "undefined label '%s'",
                      std::string(cfg.unit->labels.name(label)).c_str()));
}

/** Resolve a label or numeric control-transfer target to an item
 *  index. Returns kNoItem when it cannot be resolved statically
 *  (undefined label was already reported, or address outside the
 *  unit). `next` is the address of the word after the transfer. */
size_t
resolveIndex(const Cfg &cfg, int64_t index)
{
    if (index < 0 || index >= static_cast<int64_t>(cfg.size()))
        return kNoItem;
    return static_cast<size_t>(index);
}

/** Classify item `i`'s control behaviour. */
Transfer
classify(const Cfg &cfg, size_t i, DiagnosticEngine *diags)
{
    const Item &item = cfg.unit->items[i];
    Transfer t;
    if (item.is_data)
        return t;

    auto lookupLabel = [&](LabelId label) -> size_t {
        if (cfg.unit->labels.defined(label))
            return cfg.labelItem(label);
        if (diags)
            reportUndefined(cfg, i, label, diags);
        return kNoItem;
    };

    if (item.inst.branch()) {
        const isa::BranchPiece &b = *item.inst.branch();
        if (b.cond == Cond::NEVER)
            return t; // never taken: plain fall-through word
        t.is_transfer = true;
        t.delay = isa::kBranchDelay;
        t.conditional = b.cond != Cond::ALWAYS;
        t.shadow = ShadowKind::BRANCH;
        size_t target = item.target == kNoLabel
            ? resolveIndex(cfg, static_cast<int64_t>(i) + 1 + b.offset)
            : lookupLabel(item.target);
        t.target_known = target != kNoItem;
        t.target = target;
        if (!t.target_known)
            t.to_unknown = true;
        return t;
    }
    if (item.inst.jump()) {
        const isa::JumpPiece &j = *item.inst.jump();
        t.is_transfer = true;
        t.delay = isa::jumpDelay(j.kind);
        t.shadow = isa::jumpIsIndirect(j.kind) || isa::jumpIsTable(j.kind)
                       ? ShadowKind::INDIRECT
                       : ShadowKind::BRANCH;
        if (isa::jumpIsTable(j.kind)) {
            // The successor set comes from the recovered table (built
            // before classification); a dispatch whose table could not
            // be recovered goes anywhere.
            auto it = cfg.tables.find(i);
            if (it == cfg.tables.end())
                t.to_unknown = true;
            else
                t.multi_targets = &it->second.targets;
            return t;
        }
        if (isa::jumpIsCall(j.kind) || isa::jumpIsIndirect(j.kind)) {
            // Callee or register target: not statically followable
            // (calls also because the callee may go anywhere before
            // returning past the delay slots).
            if (item.target != kNoLabel && j.kind == JumpKind::CALL_DIRECT)
                lookupLabel(item.target); // still check it resolves
            t.to_unknown = true;
            return t;
        }
        size_t target = item.target == kNoLabel
            ? resolveIndex(cfg, static_cast<int64_t>(j.target_addr) -
                                    cfg.unit->origin)
            : lookupLabel(item.target);
        t.target_known = target != kNoItem;
        t.target = target;
        if (!t.target_known)
            t.to_unknown = true;
        return t;
    }
    if (item.inst.special()) {
        switch (item.inst.special()->op) {
          case isa::SpecialOp::TRAP:
          case isa::SpecialOp::RFE:
            // Redirect with no delay slots into the handler / the
            // saved stream: the next executed word is unknown.
            t.is_transfer = true;
            t.delay = 0;
            t.to_unknown = true;
            return t;
          case isa::SpecialOp::HALT:
            t.is_transfer = true;
            t.delay = 0;
            return t; // no successors at all
          default:
            break;
        }
    }
    return t;
}

/**
 * Report every later definition of a label name (VF005), since the
 * linker rejects the unit. References resolve to the name's first
 * definition; a later one, on an item or among the trailing labels,
 * has an id of its own in the unit's table.
 */
void
reportRedefinitions(const Cfg &cfg, DiagnosticEngine *diags)
{
    const Unit &unit = *cfg.unit;
    const LabelTable &labels = unit.labels;
    auto check = [&](LabelId head, size_t i) {
        for (LabelId id : labels.chain(head)) {
            if (labels.first(id) == id)
                continue;
            diags->report(Code::VF005, Severity::ERROR, i,
                          support::strprintf(
                              "duplicate label '%s' (first defined at "
                              "%u); the unit does not link",
                              std::string(labels.name(id)).c_str(),
                              unit.origin +
                                  labels.item(labels.first(id))));
        }
    };
    for (size_t i = 0; i < unit.items.size(); ++i)
        check(unit.items[i].label, i);
    check(unit.trailing, kNoItem); // defined, but past the end
}

/**
 * Recover every table dispatch's jump table from the unit: the label
 * the `jtab` names must start a contiguous run of `.word LABEL` data
 * items, each relocating to an instruction word in the unit. Only
 * fully well-formed tables enter `cfg.tables`; the rest are reported
 * (VF003 for a missing/malformed table, VF004 per escaping entry) and
 * their dispatches fall back to an unknown successor.
 */
void
resolveTables(Cfg &cfg, DiagnosticEngine *diags)
{
    const Unit &unit = *cfg.unit;
    size_t n = unit.items.size();
    for (size_t i = 0; i < n; ++i) {
        const Item &item = unit.items[i];
        if (item.is_data || !item.inst.jump() ||
            !isa::jumpIsTable(item.inst.jump()->kind))
            continue;
        if (item.target == kNoLabel) {
            if (diags) {
                diags->report(Code::VF003, Severity::ERROR, i,
                              "table-dispatch jump names no table "
                              "label; its successors are unknown");
            }
            continue;
        }
        if (!unit.labels.defined(item.target)) {
            if (diags)
                reportUndefined(cfg, i, item.target, diags);
            continue;
        }
        JumpTable tbl;
        tbl.first_entry = cfg.labelItem(item.target);
        bool bad_entry = false;
        for (size_t e = tbl.first_entry; e < n && unit.items[e].is_data &&
                                          unit.items[e].target != kNoLabel;
             ++e) {
            tbl.entries.push_back(e);
            LabelId arm = unit.items[e].target;
            size_t at = cfg.labelItem(arm);
            if (!unit.labels.defined(arm)) {
                if (diags)
                    reportUndefined(cfg, e, arm, diags);
                bad_entry = true;
            } else if (at == kNoItem || unit.items[at].is_data) {
                if (diags) {
                    diags->report(
                        Code::VF004, Severity::ERROR, e,
                        support::strprintf(
                            "jump-table entry '%s' resolves outside "
                            "the unit's code",
                            std::string(unit.labels.name(arm)).c_str()));
                }
                bad_entry = true;
            } else {
                tbl.targets.push_back(at);
            }
        }
        if (tbl.entries.empty()) {
            if (diags) {
                diags->report(
                    Code::VF003, Severity::ERROR, i,
                    support::strprintf(
                        "table label '%s' does not start a run of "
                        ".word entries",
                        std::string(unit.labels.name(item.target))
                            .c_str()));
            }
            continue;
        }
        if (bad_entry)
            continue;
        cfg.tables.emplace(i, std::move(tbl));
    }
}

/**
 * Lay the edges out flat. Item i's successors are its fall-through
 * (when `falls[i]`) merged with the override edges leaving it;
 * `extra` holds those as (from, to) pairs and is sorted here.
 * Predecessors are the inverse, filled by a counting pass so that
 * each list comes out ascending.
 */
void
layOutEdges(Cfg &cfg, const std::vector<char> &falls,
            std::vector<std::pair<uint32_t, uint32_t>> &extra)
{
    size_t n = cfg.size();
    std::sort(extra.begin(), extra.end());
    cfg.succ_begin.resize(n + 1);
    cfg.succ_list.reserve(n + extra.size());
    size_t e = 0;
    for (size_t i = 0; i < n; ++i) {
        size_t begin = cfg.succ_list.size();
        cfg.succ_begin[i] = static_cast<uint32_t>(begin);
        // Everything arrives in ascending order: dropping repeats of
        // the last edge dedups (overlapping overrides on erroneous
        // code can double up).
        auto push = [&](uint32_t s) {
            if (cfg.succ_list.size() == begin || cfg.succ_list.back() != s)
                cfg.succ_list.push_back(s);
        };
        uint32_t next = static_cast<uint32_t>(i + 1);
        bool fall = falls[i];
        for (; e < extra.size() && extra[e].first == i; ++e) {
            if (fall && next <= extra[e].second) {
                push(next);
                fall = false;
            }
            push(extra[e].second);
        }
        if (fall)
            push(next);
    }
    cfg.succ_begin[n] = static_cast<uint32_t>(cfg.succ_list.size());

    cfg.pred_begin.assign(n + 1, 0);
    for (uint32_t s : cfg.succ_list)
        ++cfg.pred_begin[s + 1];
    for (size_t i = 0; i < n; ++i)
        cfg.pred_begin[i + 1] += cfg.pred_begin[i];
    cfg.pred_list.resize(cfg.succ_list.size());
    std::vector<uint32_t> cursor(cfg.pred_begin.begin(),
                                 cfg.pred_begin.end() - 1);
    for (size_t i = 0; i < n; ++i)
        for (uint32_t s : cfg.succs(i))
            cfg.pred_list[cursor[s]++] = static_cast<uint32_t>(i);
}

} // namespace

Cfg
buildCfg(const Unit &unit, DiagnosticEngine *diags)
{
    Cfg cfg;
    cfg.unit = &unit;
    size_t n = unit.items.size();
    cfg.nodes.resize(n);
    cfg.uses.resize(n);

    if (diags)
        reportRedefinitions(cfg, diags);

    // Jump-table recovery (before classification, which consumes it).
    resolveTables(cfg, diags);

    // Each word's register use, then (when reported) structural
    // validation and label-operand resolution for non-transfer label
    // uses (ld @sym / st @sym / li @sym).
    for (size_t i = 0; i < n; ++i) {
        const Item &item = unit.items[i];
        if (item.is_data)
            continue;
        cfg.uses[i] = isa::regUse(item.inst);
        if (!diags)
            continue;
        std::string err = isa::validate(item.inst);
        if (!err.empty()) {
            diags->report(Code::VF001, Severity::ERROR, i,
                          "invalid instruction word: " + err);
        }
        if (item.target != kNoLabel && item.inst.mem() &&
            !unit.labels.defined(item.target))
            reportUndefined(cfg, i, item.target, diags);
    }

    // Default sequential edges, then transfer overrides hung off each
    // transfer's last delay slot.
    std::vector<char> falls(n, 0);
    std::vector<std::pair<size_t, Transfer>> delayed;
    for (size_t i = 0; i < n; ++i) {
        CfgNode &node = cfg.nodes[i];
        const Item &item = unit.items[i];
        if (item.is_data) {
            // Falling into data executes an unpredictable decode.
            node.unknown_succ = true;
            continue;
        }
        Transfer t = classify(cfg, i, diags);
        if (t.is_transfer && t.delay == 0) {
            // TRAP / RFE / HALT: redirect immediately.
            node.unknown_succ = t.to_unknown;
            continue;
        }
        if (i + 1 < n)
            falls[i] = 1;
        else
            node.unknown_succ = true; // falls off the unit
        if (t.is_transfer)
            delayed.emplace_back(i, t);
    }
    std::vector<char> overridden(n, 0);
    std::vector<std::pair<uint32_t, uint32_t>> extra;
    for (const auto &[i, t] : delayed) {
        // Mark the delay shadow.
        for (int d = 1; d <= t.delay && i + d < n; ++d) {
            CfgNode &slot = cfg.nodes[i + d];
            if (slot.shadow == ShadowKind::NONE) {
                slot.shadow = t.shadow;
                slot.shadow_owner = i;
            }
        }

        // The transfer resolves after its last slot.
        size_t last_slot = i + static_cast<size_t>(t.delay);
        if (last_slot >= n)
            continue; // slots fall off the unit; already unknown_succ
        CfgNode &slot = cfg.nodes[last_slot];
        if (!overridden[last_slot]) {
            overridden[last_slot] = 1;
            if (!t.conditional) {
                falls[last_slot] = 0;
                slot.unknown_succ = false;
            }
        }
        auto from = static_cast<uint32_t>(last_slot);
        if (t.to_unknown)
            slot.unknown_succ = true;
        else if (t.target_known)
            extra.emplace_back(from, static_cast<uint32_t>(t.target));
        if (t.multi_targets)
            for (size_t arm : *t.multi_targets)
                extra.emplace_back(from, static_cast<uint32_t>(arm));

        // A call returns past its delay slots: that resume point can
        // be entered from the callee's indirect jump.
        const Item &item = unit.items[i];
        if (item.inst.jump() && isa::jumpIsCall(item.inst.jump()->kind) &&
            last_slot + 1 < n) {
            cfg.nodes[last_slot + 1].unknown_pred = true;
        }
    }

    // Classify every label reference so labeled items whose label is
    // *only* the target of resolved local branches / direct jumps do
    // not have to be treated as reachable from unknown code. A label
    // is "locally resolved" when it has at least one reference, every
    // reference is a branch or non-call direct jump whose edge was
    // actually wired above (delay slots inside the unit), and no
    // reference takes its address (mem operand) or calls it.
    struct LabelRefs
    {
        size_t safe_refs = 0;
        bool unsafe = false;
    };
    std::vector<LabelRefs> label_refs(unit.labels.size());
    auto definesCode = [&](LabelId label) {
        return cfg.labelItem(label) != kNoItem;
    };
    for (size_t i = 0; i < n; ++i) {
        const Item &item = unit.items[i];
        if (item.is_data || item.target == kNoLabel)
            continue;
        LabelRefs &refs = label_refs[item.target];
        if (item.inst.mem()) {
            refs.unsafe = true; // address taken (li/ld/st @label)
        } else if (item.inst.branch()) {
            bool wired = item.inst.branch()->cond != Cond::NEVER &&
                         i + isa::kBranchDelay < n &&
                         definesCode(item.target);
            if (wired)
                ++refs.safe_refs;
            else
                refs.unsafe = true;
        } else if (item.inst.jump() &&
                   item.inst.jump()->kind == JumpKind::DIRECT &&
                   i + isa::kBranchDelay < n &&
                   definesCode(item.target)) {
            ++refs.safe_refs;
        } else {
            refs.unsafe = true; // call target, indirect, or off-unit
        }
    }
    auto locallyResolved = [&](size_t i) {
        for (LabelId id : unit.labels.chain(unit.items[i].label)) {
            LabelId first = unit.labels.first(id);
            const LabelRefs &refs = label_refs[first];
            if (refs.unsafe || refs.safe_refs == 0)
                return false;
            // A duplicate definition means references resolve to the
            // other item; keep this one conservative.
            if (unit.labels.item(first) != i)
                return false;
        }
        return true;
    };

    // Unknown-predecessor marking: entry, labeled items (their address
    // can be taken or reached indirectly) unless every label on the
    // item is locally resolved, and trap resume points.
    if (n > 0)
        cfg.nodes[0].unknown_pred = true;
    for (size_t i = 0; i < n; ++i) {
        if (unit.items[i].label != kNoLabel &&
            (i == 0 || !locallyResolved(i)))
            cfg.nodes[i].unknown_pred = true;
        const Item &item = unit.items[i];
        if (!item.is_data && item.inst.special() &&
            item.inst.special()->op == isa::SpecialOp::TRAP &&
            i + 1 < n) {
            cfg.nodes[i + 1].unknown_pred = true; // handler resumes here
        }
    }

    layOutEdges(cfg, falls, extra);
    return cfg;
}

} // namespace mips::verify
