#include "verify/interproc.h"

#include <algorithm>
#include <optional>
#include <set>

#include "isa/branch.h"
#include "isa/instruction.h"
#include "support/strings.h"

namespace mips::verify {

using assembler::Item;
using assembler::kNoLabel;
using assembler::LabelId;
using assembler::Unit;
using isa::JumpKind;

namespace {

/**
 * Find the unique local definition of `reg` visible at item `i` by a
 * backward straight-line scan. Fails (kNoItem) at joins (labels),
 * control transfers, and data: past any of those the definition is
 * not provably the one that executes.
 */
size_t
localDefBefore(const Cfg &cfg, size_t i, isa::Reg reg)
{
    const auto &items = cfg.unit->items;
    if (items[i].label != kNoLabel)
        return kNoItem; // control may land here past any local def
    for (size_t j = i; j-- > 0;) {
        const Item &it = items[j];
        if (it.is_data)
            return kNoItem;
        if (cfg.uses[j].writesGpr(reg))
            return j;
        if (it.inst.branch() || it.inst.jump() || it.inst.special())
            return kNoItem;
        if (it.label != kNoLabel)
            return kNoItem;
    }
    return kNoItem;
}

/** The constant `reg` provably holds at item `i`, from a straight-line
 *  MOVI8 or non-symbolic long-immediate load. */
std::optional<int32_t>
constBefore(const Cfg &cfg, size_t i, isa::Reg reg)
{
    size_t d = localDefBefore(cfg, i, reg);
    if (d == kNoItem)
        return std::nullopt;
    const Item &def = cfg.unit->items[d];
    if (def.inst.mem() && !def.inst.mem()->is_store &&
        def.inst.mem()->rd == reg) {
        if (def.inst.mem()->mode == isa::MemMode::LONG_IMM &&
            def.target == kNoLabel)
            return def.inst.mem()->imm;
        return std::nullopt; // memory load: value unknown
    }
    if (def.inst.alu() && def.inst.alu()->rd == reg &&
        def.inst.alu()->op == isa::AluOp::MOVI8)
        return static_cast<int32_t>(def.inst.alu()->imm8);
    return std::nullopt;
}

/** Resolve a call site's target to an item index (kNoItem when not
 *  provable). Direct calls resolve by label or absolute address;
 *  indirect calls by a straight-line `li @fn, rN` definition of the
 *  target register. */
size_t
resolveCallTarget(const Cfg &cfg, size_t i)
{
    const Item &item = cfg.unit->items[i];
    const isa::JumpPiece &j = *item.inst.jump();
    if (j.kind == JumpKind::CALL_DIRECT) {
        if (item.target != kNoLabel)
            return cfg.labelItem(item.target);
        int64_t index = static_cast<int64_t>(j.target_addr) -
                        cfg.unit->origin;
        if (index < 0 || index >= static_cast<int64_t>(cfg.size()))
            return kNoItem;
        return static_cast<size_t>(index);
    }
    size_t d = localDefBefore(cfg, i, j.target_reg);
    if (d == kNoItem)
        return kNoItem;
    const Item &def = cfg.unit->items[d];
    if (!def.inst.mem() || def.inst.mem()->is_store ||
        def.inst.mem()->mode != isa::MemMode::LONG_IMM ||
        def.inst.mem()->rd != j.target_reg || def.target == kNoLabel)
        return kNoItem;
    return cfg.labelItem(def.target);
}

/** Escape a name for a quoted Graphviz string. */
std::string
dotEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

// ------------------------------------------------- per-function edges

FuncEdges
makeFuncEdges(const CallGraph &g)
{
    const Cfg &cfg = *g.cfg;
    FuncEdges e;
    e.pred_begin.reserve(cfg.size() + 1);
    e.pred_list.reserve(cfg.pred_list.size());
    for (const FunctionInfo &f : g.functions) {
        for (size_t i = f.begin; i < f.end; ++i) {
            e.pred_begin.push_back(
                static_cast<uint32_t>(e.pred_list.size()));
            for (uint32_t p : cfg.preds(i))
                if (p >= f.begin && p < f.end)
                    e.pred_list.push_back(p);
        }
    }
    e.pred_begin.push_back(static_cast<uint32_t>(e.pred_list.size()));
    e.resume_from.assign(cfg.size(), kNoItem);
    for (const CallSite &s : g.sites)
        if (s.resume != kNoItem && s.resume < g.functions[s.caller].end)
            e.resume_from[s.resume] = s.last_slot;
    return e;
}

namespace {

// ----------------------------------- may-dirty masks (CC001 / CC002)

/** True if the ALU piece provably writes rd's own value back (the
 *  reorganizer emits `add rX, #0, rX` self-moves when packing): such
 *  a write preserves the register and must not mark it dirty. */
bool
identityMove(const isa::AluPiece &p)
{
    if (p.rd != p.rs)
        return false;
    bool zero2 = p.src2.is_imm ? p.src2.imm4 == 0
                               : p.src2.reg == isa::kZeroReg;
    switch (p.op) {
    case isa::AluOp::ADD:
    case isa::AluOp::SUB:
    case isa::AluOp::OR:
    case isa::AluOp::XOR:
    case isa::AluOp::SLL:
    case isa::AluOp::SRL:
    case isa::AluOp::SRA:
        return zero2;
    default:
        return false;
    }
}

/** Forward may-analysis: which registers may have been overwritten
 *  (by anything but a memory-referencing load, the restore idiom)
 *  since function entry. Union meet; unknown edges contribute
 *  nothing, keeping the analysis silent rather than alarmist. */
struct MaskSolution
{
    std::vector<uint16_t> in, out;
};

MaskSolution
solveMayDirty(const CallGraph &g, const FunctionInfo &f,
              const FuncEdges &e)
{
    const Cfg &cfg = *g.cfg;
    size_t n = f.end - f.begin;
    MaskSolution sol;
    sol.in.assign(n, 0);
    sol.out.assign(n, 0);
    std::vector<uint16_t> gen(n, 0), kill(n, 0);
    for (size_t i = f.begin; i < f.end; ++i) {
        const Item &item = cfg.unit->items[i];
        if (item.is_data)
            continue;
        size_t k = i - f.begin;
        if (item.inst.mem() && !item.inst.mem()->is_store &&
            isa::memReferencesMemory(*item.inst.mem()))
            kill[k] = static_cast<uint16_t>(1u << item.inst.mem()->rd);
        gen[k] = cfg.uses[i].gpr_writes & ~kill[k];
        if (item.inst.alu() && identityMove(*item.inst.alu())) {
            isa::Instruction rest = item.inst;
            rest.clearAlu();
            gen[k] &= static_cast<uint16_t>(
                ~(isa::regUseAlu(*item.inst.alu()).gpr_writes &
                  ~isa::regUse(rest).gpr_writes));
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t k = 0; k < n; ++k) {
            size_t i = f.begin + k;
            uint16_t edge = 0;
            for (uint32_t p : e.preds(i))
                edge |= sol.out[p - f.begin];
            if (e.resume_from[i] != kNoItem)
                edge |= sol.out[e.resume_from[i] - f.begin];
            uint16_t after =
                static_cast<uint16_t>((edge & ~kill[k]) | gen[k]);
            if (sol.in[k] != edge || sol.out[k] != after) {
                sol.in[k] = edge;
                sol.out[k] = after;
                changed = true;
            }
        }
    }
    return sol;
}

// ------------------------------------------ stack-delta lattice (CC003)

/** Net stack-pointer adjustment since function entry. */
struct Delta
{
    enum Kind : uint8_t
    {
        TOP,      ///< no path reaches here yet
        VAL,      ///< provably `d` words
        MISMATCH, ///< two provable but different adjustments joined
        GIVEUP,   ///< an untracked stack-pointer write: stay silent
    };
    Kind kind = TOP;
    int32_t d = 0;

    bool
    operator==(const Delta &o) const
    {
        return kind == o.kind && (kind != VAL || d == o.d);
    }
};

Delta
meetDelta(const Delta &a, const Delta &b)
{
    if (a.kind == Delta::GIVEUP || b.kind == Delta::GIVEUP)
        return {Delta::GIVEUP, 0};
    if (a.kind == Delta::TOP)
        return b;
    if (b.kind == Delta::TOP)
        return a;
    if (a.kind == Delta::MISMATCH || b.kind == Delta::MISMATCH)
        return {Delta::MISMATCH, 0};
    if (a.d != b.d)
        return {Delta::MISMATCH, 0};
    return a;
}

/**
 * Correction a call's resume edge applies between the last delay slot
 * and the resume point: the callee's provable net effect on the
 * caller's stack delta. SHIFT adds a known constant (zero for a
 * balanced callee entered at its primary entry; the skipped-prologue
 * adjustment for a retargeted call), SKIP drops the edge (the callee
 * provably never returns), GIVEUP poisons it (nothing provable).
 */
struct ResumeFix
{
    enum Kind : uint8_t
    {
        SKIP,
        GIVEUP,
        SHIFT,
    };
    Kind kind = GIVEUP;
    int32_t d = 0;
};

/** In/out stack-delta values for every item of one region. */
struct DeltaSolution
{
    std::vector<Delta> in, out;
};

Delta
transferDelta(const Cfg &cfg, size_t i, const Delta &in)
{
    const Item &item = cfg.unit->items[i];
    if (item.is_data || in.kind == Delta::TOP)
        return in;
    if (!cfg.uses[i].writesGpr(isa::kStackReg))
        return in;
    if (in.kind == Delta::GIVEUP)
        return in;
    const isa::AluPiece *alu = item.inst.alu();
    bool tracked = alu && alu->rd == isa::kStackReg &&
                   alu->rs == isa::kStackReg &&
                   (alu->op == isa::AluOp::ADD ||
                    alu->op == isa::AluOp::SUB) &&
                   !(item.inst.mem() && !item.inst.mem()->is_store &&
                     item.inst.mem()->rd == isa::kStackReg);
    if (!tracked)
        return {Delta::GIVEUP, 0};
    std::optional<int32_t> k;
    if (alu->src2.is_imm)
        k = static_cast<int32_t>(alu->src2.imm4);
    else
        k = constBefore(cfg, i, alu->src2.reg);
    if (!k)
        return {Delta::GIVEUP, 0};
    if (in.kind == Delta::MISMATCH)
        return in; // still divergent after a uniform adjustment
    int32_t step = alu->op == isa::AluOp::ADD ? *k : -*k;
    return {Delta::VAL, in.d + step};
}

DeltaSolution
solveStackDelta(const CallGraph &g, const FunctionInfo &f,
                const FuncEdges &e, const std::vector<ResumeFix> &fix)
{
    const Cfg &cfg = *g.cfg;
    size_t n = f.end - f.begin;
    DeltaSolution sol;
    sol.in.resize(n);
    sol.out.resize(n);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t k = 0; k < n; ++k) {
            size_t i = f.begin + k;
            Delta edge;
            if (i == f.entry)
                edge = {Delta::VAL, 0};
            for (uint32_t p : e.preds(i))
                edge = meetDelta(edge, sol.out[p - f.begin]);
            if (e.resume_from[i] != kNoItem &&
                fix[k].kind != ResumeFix::SKIP) {
                Delta via = sol.out[e.resume_from[i] - f.begin];
                if (via.kind != Delta::TOP) {
                    if (fix[k].kind == ResumeFix::GIVEUP)
                        via = {Delta::GIVEUP, 0};
                    else if (via.kind == Delta::VAL)
                        via.d += fix[k].d;
                }
                edge = meetDelta(edge, via);
            }
            Delta after = transferDelta(cfg, i, edge);
            if (!(sol.in[k] == edge) || !(sol.out[k] == after)) {
                sol.in[k] = edge;
                sol.out[k] = after;
                changed = true;
            }
        }
    }
    return sol;
}

// ---------------------------------------- must-write masks (CC004)

/** Forward must-analysis: registers definitely written on every path
 *  from the entry point `entered` (seeded with the environment
 *  assumption). One invocation enters at exactly one entry, so the
 *  solve is per entry point: items unreachable from `entered` keep
 *  the 0xffff identity and contribute no entry-read demand.
 *  Call resume points meet in 0xffff — the caller-save convention
 *  means a callee may leave any register defined, so a call never
 *  *removes* definedness; CC004 stays a zero-false-positive check. */
MaskSolution
solveMustWrite(const CallGraph &g, const FunctionInfo &f,
               const FuncEdges &e, uint16_t seed, size_t entered)
{
    const Cfg &cfg = *g.cfg;
    size_t n = f.end - f.begin;
    MaskSolution sol;
    sol.in.assign(n, 0xffff);
    sol.out.assign(n, 0xffff);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t k = 0; k < n; ++k) {
            size_t i = f.begin + k;
            uint16_t edge = 0xffff;
            if (i == entered)
                edge &= seed;
            for (uint32_t p : e.preds(i))
                edge &= sol.out[p - f.begin];
            // resume_from: a call defines everything (identity meet)
            uint16_t after =
                static_cast<uint16_t>(edge | cfg.uses[i].gpr_writes);
            if (sol.in[k] != edge || sol.out[k] != after) {
                sol.in[k] = edge;
                sol.out[k] = after;
                changed = true;
            }
        }
    }
    return sol;
}

} // namespace

// ------------------------------------------------------- construction

CallGraph
buildCallGraph(const Cfg &cfg)
{
    CallGraph g;
    g.cfg = &cfg;
    const Unit &unit = *cfg.unit;
    size_t n = unit.items.size();
    g.function_of.assign(n, kNoFunc);
    if (n == 0)
        return g;

    // Call sites and their provable target items.
    struct RawSite
    {
        size_t item;
        size_t target_item;
        bool indirect;
    };
    std::vector<RawSite> raw;
    std::vector<char> address_taken(n, 0); ///< per item
    std::vector<char> referenced(unit.labels.size(), 0); ///< per label
    auto takeAddress = [&](LabelId label) {
        size_t at = cfg.labelItem(label);
        if (at != kNoItem)
            address_taken[at] = 1;
    };
    for (size_t i = 0; i < n; ++i) {
        const Item &item = unit.items[i];
        if (item.is_data) {
            // A relocated `.word LABEL` table entry both references
            // its arm and takes its address.
            if (item.target != kNoLabel) {
                referenced[item.target] = 1;
                takeAddress(item.target);
            }
            continue;
        }
        if (item.target != kNoLabel) {
            referenced[item.target] = 1;
            if (item.inst.mem())
                takeAddress(item.target);
        }
        if (item.inst.jump() && isa::jumpIsCall(item.inst.jump()->kind))
            raw.push_back({i, resolveCallTarget(cfg, i),
                           isa::jumpIsIndirect(item.inst.jump()->kind)});
    }

    // Function entries: the unit entry, every provable call target
    // nothing falls into, every address-taken code label that cannot
    // be fallen into, and every unreferenced code label that cannot
    // be fallen into (a dead-function candidate: nothing reaches it
    // at all). Call targets *with* local predecessors — notably the
    // reorganizer's retargeted-call labels one word past a real
    // entry — stay inside the containing region as secondary entries;
    // splitting there would sever prologues from their bodies.
    std::vector<char> is_entry(n, 0); ///< per item
    is_entry[0] = 1;
    for (const RawSite &r : raw)
        if (r.target_item != kNoItem &&
            !unit.items[r.target_item].is_data &&
            cfg.preds(r.target_item).empty())
            is_entry[r.target_item] = 1;
    for (size_t i = 1; i < n; ++i) {
        const Item &item = unit.items[i];
        if (item.is_data || !cfg.preds(i).empty())
            continue;
        if (address_taken[i]) {
            is_entry[i] = 1;
            continue;
        }
        if (item.label == kNoLabel)
            continue;
        bool unreferenced = true;
        for (LabelId id : unit.labels.chain(item.label))
            if (referenced[unit.labels.first(id)])
                unreferenced = false;
        if (unreferenced)
            is_entry[i] = 1;
    }

    // Contiguous regions between entries.
    std::vector<size_t> entries;
    for (size_t i = 0; i < n; ++i)
        if (is_entry[i])
            entries.push_back(i);
    g.functions.resize(entries.size());
    for (size_t k = 0; k < entries.size(); ++k) {
        FunctionInfo &f = g.functions[k];
        f.entry = f.begin = entries[k];
        f.end = k + 1 < entries.size() ? entries[k + 1] : n;
        f.is_root = f.entry == 0;
        f.address_taken = address_taken[f.entry];
        f.entries.push_back(f.entry);
        LabelId label = unit.items[f.entry].label;
        f.name = label == kNoLabel ? std::string("<entry>")
                                   : std::string(unit.labels.name(label));
        for (size_t i = f.begin; i < f.end; ++i)
            g.function_of[i] = k;
    }

    // Finalize sites; match return sites (indirect jumps through the
    // link register).
    for (const RawSite &r : raw) {
        CallSite s;
        s.item = r.item;
        int delay = isa::jumpDelay(unit.items[r.item].inst.jump()->kind);
        s.last_slot = std::min(r.item + static_cast<size_t>(delay),
                               n - 1);
        size_t resume = r.item + static_cast<size_t>(delay) + 1;
        s.resume = resume < n ? resume : kNoItem;
        s.caller = g.function_of[r.item];
        s.indirect = r.indirect;
        if (r.target_item != kNoItem &&
            !unit.items[r.target_item].is_data) {
            s.callee = g.function_of[r.target_item];
            s.entered = r.target_item;
        }
        size_t si = g.sites.size();
        g.sites.push_back(s);
        g.functions[s.caller].sites.push_back(si);
        if (s.resolved()) {
            g.functions[s.caller].callees.push_back(s.callee);
            g.functions[s.callee].callers.push_back(s.caller);
            FunctionInfo &callee = g.functions[s.callee];
            if (std::find(callee.entries.begin(), callee.entries.end(),
                          s.entered) == callee.entries.end())
                callee.entries.push_back(s.entered);
        }
    }
    for (FunctionInfo &f : g.functions) {
        auto dedup = [](std::vector<size_t> &v) {
            std::sort(v.begin(), v.end());
            v.erase(std::unique(v.begin(), v.end()), v.end());
        };
        dedup(f.callees);
        dedup(f.callers);
        std::sort(f.entries.begin() + 1, f.entries.end());
        for (size_t i = f.begin; i < f.end; ++i) {
            const Item &item = unit.items[i];
            if (!item.is_data && item.inst.jump() &&
                item.inst.jump()->kind == JumpKind::INDIRECT &&
                item.inst.jump()->target_reg == isa::kLinkReg)
                f.returns.push_back(i);
        }
    }

    // Tarjan SCCs over resolved call edges (iterative; SCCs pop in
    // callee-first order, which is what the cost rollup wants).
    size_t fcount = g.functions.size();
    std::vector<int> index(fcount, -1), low(fcount, 0);
    std::vector<bool> on_stack(fcount, false);
    std::vector<size_t> stack;
    int next_index = 0;
    struct Frame
    {
        size_t f;
        size_t ci;
    };
    for (size_t f0 = 0; f0 < fcount; ++f0) {
        if (index[f0] != -1)
            continue;
        std::vector<Frame> frames{{f0, 0}};
        index[f0] = low[f0] = next_index++;
        stack.push_back(f0);
        on_stack[f0] = true;
        while (!frames.empty()) {
            size_t f = frames.back().f;
            size_t ci = frames.back().ci;
            if (ci < g.functions[f].callees.size()) {
                ++frames.back().ci;
                size_t c = g.functions[f].callees[ci];
                if (index[c] == -1) {
                    index[c] = low[c] = next_index++;
                    stack.push_back(c);
                    on_stack[c] = true;
                    frames.push_back({c, 0});
                } else if (on_stack[c]) {
                    low[f] = std::min(low[f], index[c]);
                }
            } else {
                if (low[f] == index[f]) {
                    size_t members = 0;
                    size_t m;
                    do {
                        m = stack.back();
                        stack.pop_back();
                        on_stack[m] = false;
                        g.functions[m].scc =
                            static_cast<int>(g.scc_count);
                        ++members;
                    } while (m != f);
                    ++g.scc_count;
                    if (members > 1) {
                        for (FunctionInfo &fn : g.functions)
                            if (fn.scc == static_cast<int>(
                                              g.scc_count - 1))
                                fn.recursive = true;
                    }
                }
                frames.pop_back();
                if (!frames.empty()) {
                    size_t parent = frames.back().f;
                    low[parent] = std::min(low[parent], low[f]);
                }
            }
        }
    }
    for (FunctionInfo &f : g.functions) {
        size_t self = static_cast<size_t>(&f - g.functions.data());
        if (std::find(f.callees.begin(), f.callees.end(), self) !=
            f.callees.end())
            f.recursive = true;
    }

    // Reachability from the roots (the unit entry and every
    // address-taken function) over resolved call edges, cross-region
    // branch edges, and call resume points that land past the region.
    std::vector<size_t> work;
    auto mark = [&](size_t f) {
        if (!g.functions[f].reachable) {
            g.functions[f].reachable = true;
            work.push_back(f);
        }
    };
    for (size_t f = 0; f < fcount; ++f)
        if (g.functions[f].is_root || g.functions[f].address_taken)
            mark(f);
    while (!work.empty()) {
        size_t f = work.back();
        work.pop_back();
        const FunctionInfo &fn = g.functions[f];
        for (size_t c : fn.callees)
            mark(c);
        for (size_t si : fn.sites) {
            const CallSite &s = g.sites[si];
            if (s.resume != kNoItem && g.function_of[s.resume] != f)
                mark(g.function_of[s.resume]);
        }
        for (size_t i = fn.begin; i < fn.end; ++i)
            for (uint32_t succ : cfg.succs(i))
                if (g.function_of[succ] != f)
                    mark(g.function_of[succ]);
    }
    return g;
}

std::string
callGraphDot(const CallGraph &g, const std::string &name)
{
    std::string out =
        support::strprintf("digraph \"%s\" {\n", dotEscape(name).c_str());
    out += "  rankdir=LR;\n";
    out += "  node [shape=box, fontname=\"monospace\"];\n";
    for (const FunctionInfo &f : g.functions) {
        std::string attrs;
        if (f.recursive)
            attrs += ", peripheries=2";
        if (!f.reachable)
            attrs += ", style=dashed";
        out += support::strprintf(
            "  \"%s\" [label=\"%s\\n[%zu, %zu)\"%s];\n",
            dotEscape(f.name).c_str(), dotEscape(f.name).c_str(),
            f.begin, f.end, attrs.c_str());
    }
    // Table-dispatch edges: one per dispatch per distinct target
    // region, dashed and labeled to distinguish them from call edges.
    // A dispatch whose table could not be recovered goes to "?".
    const Cfg &cfg = *g.cfg;
    bool unresolved = false;
    for (const CallSite &s : g.sites)
        unresolved = unresolved || !s.resolved();
    for (size_t i = 0; i < cfg.size(); ++i) {
        const assembler::Item &item = cfg.unit->items[i];
        if (!item.is_data && item.inst.jump() &&
            isa::jumpIsTable(item.inst.jump()->kind) &&
            !cfg.tables.count(i))
            unresolved = true;
    }
    if (unresolved)
        out += "  \"?\" [shape=ellipse, style=dotted];\n";
    for (const CallSite &s : g.sites) {
        const std::string &from = g.functions[s.caller].name;
        std::string to =
            s.resolved() ? g.functions[s.callee].name : std::string("?");
        out += support::strprintf(
            "  \"%s\" -> \"%s\"%s;\n", dotEscape(from).c_str(),
            dotEscape(to).c_str(), s.indirect ? " [style=dotted]" : "");
    }
    for (size_t i = 0; i < cfg.size(); ++i) {
        const assembler::Item &item = cfg.unit->items[i];
        if (item.is_data || !item.inst.jump() ||
            !isa::jumpIsTable(item.inst.jump()->kind))
            continue;
        const std::string &from =
            g.functions[g.function_of[i]].name;
        auto it = cfg.tables.find(i);
        if (it == cfg.tables.end()) {
            out += support::strprintf(
                "  \"%s\" -> \"?\" [style=dashed, label=\"table\"];\n",
                dotEscape(from).c_str());
            continue;
        }
        std::set<size_t> target_funcs;
        for (size_t arm : it->second.targets)
            target_funcs.insert(g.function_of[arm]);
        for (size_t tf : target_funcs) {
            out += support::strprintf(
                "  \"%s\" -> \"%s\" [style=dashed, "
                "label=\"table\"];\n",
                dotEscape(from).c_str(),
                dotEscape(g.functions[tf].name).c_str());
        }
    }
    out += "}\n";
    return out;
}

// ------------------------------------------------------------ checks

void
checkCallingConventions(const CallGraph &g,
                        const InterprocOptions &options,
                        DiagnosticEngine *diags)
{
    const Cfg &cfg = *g.cfg;
    uint16_t seed =
        static_cast<uint16_t>(options.assume_initialized | 1u);
    size_t fcount = g.functions.size();

    FuncEdges edges = makeFuncEdges(g);
    std::vector<MaskSolution> dirty;
    dirty.reserve(fcount);
    for (const FunctionInfo &f : g.functions)
        dirty.push_back(solveMayDirty(g, f, edges));
    // Must-write solutions are per entry point (an invocation enters
    // at exactly one of FunctionInfo::entries), indexed in parallel.
    std::vector<std::vector<MaskSolution>> must(fcount);
    for (size_t fi = 0; fi < fcount; ++fi)
        for (size_t entered : g.functions[fi].entries)
            must[fi].push_back(solveMustWrite(
                g, g.functions[fi], edges, seed, entered));
    auto entryIndex = [&](size_t fi, size_t entered) {
        const auto &es = g.functions[fi].entries;
        return static_cast<size_t>(
            std::find(es.begin(), es.end(), entered) - es.begin());
    };

    // CC001 / CC002: callee-saved and return-address discipline at
    // every return site. The unit entry is nobody's callee, so it
    // owes no convention at its (pseudo-)returns.
    for (size_t fi = 0; fi < fcount; ++fi) {
        const FunctionInfo &f = g.functions[fi];
        if (f.is_root)
            continue;
        for (size_t r : f.returns) {
            size_t last = std::min(
                r + static_cast<size_t>(isa::kIndirectJumpDelay),
                f.end - 1);
            uint16_t clobbered =
                dirty[fi].out[last - f.begin] &
                static_cast<uint16_t>(options.callee_saved & ~1u);
            if (clobbered && diags) {
                diags->report(
                    Code::CC001, Severity::ERROR, r,
                    support::strprintf(
                        "'%s' returns with callee-saved register(s) "
                        "%s possibly clobbered (written after entry "
                        "with no restoring load on some path)",
                        f.name.c_str(),
                        regListNames(clobbered).c_str()));
            }
            isa::Reg link =
                cfg.unit->items[r].inst.jump()->target_reg;
            if ((dirty[fi].in[r - f.begin] >> link) & 1) {
                if (diags) {
                    diags->report(
                        Code::CC002, Severity::ERROR, r,
                        support::strprintf(
                            "'%s' returns through %s, but the return "
                            "address in it may have been overwritten "
                            "(nested call or explicit write) without "
                            "a restoring load",
                            f.name.c_str(),
                            isa::regName(link).c_str()));
                }
            }
        }
    }

    // CC003: stack discipline. Returns must balance the frame;
    // provably different adjustments must never join at a call or a
    // return. Untracked stack writes make the analysis stay silent.
    //
    // Functions solve callee-first (ascending SCC id — Tarjan pops
    // callees before callers) so every call's resume edge can apply
    // the callee's provable net effect: a balanced callee entered at
    // its primary entry shifts the caller's delta by zero, and a
    // retargeted call into a secondary entry shifts it by exactly the
    // skipped prologue's adjustment (which the caller performed in
    // the call's delay slot). Recursion and unprovable callees poison
    // the resume edge instead of guessing.
    std::vector<size_t> topo(fcount);
    for (size_t i = 0; i < fcount; ++i)
        topo[i] = i;
    std::sort(topo.begin(), topo.end(), [&](size_t a, size_t b) {
        return g.functions[a].scc < g.functions[b].scc;
    });
    std::vector<DeltaSolution> delta(fcount);
    std::vector<Delta> ret(fcount); ///< meet over returns at exit
    for (size_t fi : topo) {
        const FunctionInfo &f = g.functions[fi];
        std::vector<ResumeFix> fix(f.end - f.begin);
        for (size_t si : f.sites) {
            const CallSite &s = g.sites[si];
            if (s.resume == kNoItem || s.resume >= f.end)
                continue;
            ResumeFix rf; // GIVEUP
            if (s.resolved() &&
                g.functions[s.callee].scc != f.scc) {
                const FunctionInfo &c = g.functions[s.callee];
                const Delta &r = ret[s.callee];
                const Delta &e = delta[s.callee].in[s.entered - c.begin];
                if (r.kind == Delta::TOP)
                    rf = {ResumeFix::SKIP, 0}; // provably never returns
                else if (r.kind == Delta::VAL && e.kind == Delta::VAL)
                    rf = {ResumeFix::SHIFT, r.d - e.d};
            }
            fix[s.resume - f.begin] = rf;
        }
        delta[fi] = solveStackDelta(g, f, edges, fix);
        Delta r;
        for (size_t ri : f.returns) {
            size_t last = std::min(
                ri + static_cast<size_t>(isa::kIndirectJumpDelay),
                f.end - 1);
            r = meetDelta(r, delta[fi].out[last - f.begin]);
        }
        ret[fi] = r;
    }
    for (size_t fi = 0; fi < fcount; ++fi) {
        const FunctionInfo &f = g.functions[fi];
        const std::vector<Delta> &out = delta[fi].out;
        if (!f.is_root) {
            for (size_t r : f.returns) {
                size_t last = std::min(
                    r + static_cast<size_t>(isa::kIndirectJumpDelay),
                    f.end - 1);
                const Delta &d = out[last - f.begin];
                if (d.kind == Delta::VAL && d.d != 0 && diags) {
                    diags->report(
                        Code::CC003, Severity::ERROR, r,
                        support::strprintf(
                            "'%s' returns with a net stack-pointer "
                            "adjustment of %+d word(s); frames must "
                            "balance across every call edge",
                            f.name.c_str(), d.d));
                } else if (d.kind == Delta::MISMATCH && diags) {
                    diags->report(
                        Code::CC003, Severity::ERROR, r,
                        support::strprintf(
                            "paths with mismatched stack-pointer "
                            "adjustments reach this return of '%s'",
                            f.name.c_str()));
                }
            }
        }
        for (size_t si : f.sites) {
            const CallSite &s = g.sites[si];
            const Delta &d =
                out[std::min(s.last_slot, f.end - 1) - f.begin];
            if (d.kind == Delta::MISMATCH && diags) {
                diags->report(
                    Code::CC003, Severity::ERROR, s.item,
                    "paths with mismatched stack-pointer adjustments "
                    "reach this call");
            }
        }
    }

    // CC004: propagate entry-read demands callee-first through the
    // call graph (a register a callee reads before writing is
    // demanded at every call site; a caller that cannot supply it
    // locally forwards the demand to its own entry), then blame the
    // sites where the demand provably cannot be met. Demands are per
    // entry point: a retargeted call entering past the prologue does
    // not inherit reads only the skipped prologue performs.
    // The reads of an entry's own region come first; they do not
    // change while the demands propagate.
    std::vector<std::vector<uint16_t>> own_reads(fcount), entry_reads(fcount);
    for (size_t fi = 0; fi < fcount; ++fi) {
        const FunctionInfo &f = g.functions[fi];
        for (const MaskSolution &m : must[fi]) {
            uint16_t er = 0;
            for (size_t i = f.begin; i < f.end; ++i)
                er |= cfg.uses[i].gpr_reads & ~m.in[i - f.begin];
            own_reads[fi].push_back(er);
        }
        entry_reads[fi].assign(f.entries.size(), 0);
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t fi = 0; fi < fcount; ++fi) {
            const FunctionInfo &f = g.functions[fi];
            for (size_t ei = 0; ei < f.entries.size(); ++ei) {
                const MaskSolution &m = must[fi][ei];
                uint16_t er = own_reads[fi][ei];
                for (size_t si : f.sites) {
                    const CallSite &s = g.sites[si];
                    if (s.resolved())
                        er |= entry_reads[s.callee][entryIndex(
                                  s.callee, s.entered)] &
                              ~m.out[std::min(s.last_slot, f.end - 1) -
                                     f.begin];
                }
                er &= static_cast<uint16_t>(~1u);
                if (er != entry_reads[fi][ei]) {
                    entry_reads[fi][ei] = er;
                    changed = true;
                }
            }
        }
    }
    for (const CallSite &s : g.sites) {
        if (!s.resolved())
            continue;
        const FunctionInfo &caller = g.functions[s.caller];
        uint16_t excuse = seed;
        if (!caller.is_root)
            for (uint16_t er : entry_reads[s.caller])
                excuse |= er;
        // Supplied if written on the path from *any* entry: reporting
        // requires the definition to be provably absent however the
        // caller itself was entered.
        uint16_t supplied = 0;
        size_t k = std::min(s.last_slot, caller.end - 1) - caller.begin;
        for (const MaskSolution &m : must[s.caller])
            supplied |= m.out[k];
        uint16_t missing =
            entry_reads[s.callee][entryIndex(s.callee, s.entered)] &
            ~supplied & ~excuse;
        if (missing && diags) {
            diags->report(
                Code::CC004, Severity::WARNING, s.item,
                support::strprintf(
                    "call to '%s' reads argument register(s) %s on "
                    "entry, but no definition reaches this site",
                    g.functions[s.callee].name.c_str(),
                    regListNames(missing).c_str()));
        }
    }

    // LT004: functions the whole-program call graph never reaches.
    for (const FunctionInfo &f : g.functions) {
        if (f.reachable || f.is_root || !diags)
            continue;
        diags->report(
            Code::LT004, Severity::WARNING, f.entry,
            support::strprintf(
                "'%s' is interprocedurally dead: never called, never "
                "branched to, and its address is never taken",
                f.name.c_str()));
    }
}

} // namespace mips::verify
