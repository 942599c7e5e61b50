#include "verify/memsafety.h"

#include <algorithm>
#include <set>

#include "isa/branch.h"
#include "isa/instruction.h"
#include "obs/catalog.h"
#include "support/strings.h"

namespace mips::verify {

using assembler::Item;
using isa::AluOp;
using isa::MemMode;
using support::strprintf;

namespace {

constexpr int64_t kWordSpan = kWordMax + 1; // 2^32
constexpr int64_t kInt32Max = 0x7fffffffll;
constexpr int64_t kInt32Min = -0x80000000ll;

/** How an abstract value relates to an illegal region [bad_lo, bad_hi]
 *  of the unsigned word space. */
enum class Verdict : uint8_t
{
    SILENT,
    MAY,
    MUST,
};

Verdict
classifyOverlap(const AbsVal &v, int64_t bad_lo, int64_t bad_hi)
{
    if (v.lo >= bad_lo && v.hi <= bad_hi)
        return Verdict::MUST; // superset entirely illegal => value is
    if (v.hi < bad_lo || v.lo > bad_hi)
        return Verdict::SILENT;
    if (v.isTop() || v.widened)
        return Verdict::SILENT; // no evidence, or widening artifact
    return Verdict::MAY;
}

std::string
intervalText(const AbsVal &v)
{
    if (auto c = v.asConst())
        return strprintf("0x%x", *c);
    return strprintf("[0x%llx, 0x%llx]",
                     static_cast<unsigned long long>(v.lo),
                     static_cast<unsigned long long>(v.hi));
}

// ------------------------------------------------ stack-depth rollup

/** Net stack-pointer delta (words) since function entry, or the
 *  failure states of the tiny lattice the rollup runs on. */
struct SpDelta
{
    enum Kind : uint8_t
    {
        NONE, ///< no path reaches here yet
        VAL,  ///< provably `d` words
        BAD,  ///< untracked write or mismatched join: unknown
    };
    Kind kind = NONE;
    int64_t d = 0;

    bool
    operator==(const SpDelta &o) const
    {
        return kind == o.kind && (kind != VAL || d == o.d);
    }
};

SpDelta
meetDelta(const SpDelta &a, const SpDelta &b)
{
    if (a.kind == SpDelta::NONE)
        return b;
    if (b.kind == SpDelta::NONE)
        return a;
    if (a.kind == SpDelta::BAD || b.kind == SpDelta::BAD ||
        a.d != b.d)
        return {SpDelta::BAD, 0};
    return a;
}

/** Per-function result of the delta pass. */
struct OwnDepth
{
    bool known = true;       ///< no reachable untracked SP state
    uint64_t words = 0;      ///< deepest point inside the body
    /** Depth (words below entry SP) at each call site, indexed like
     *  CallGraph::sites; negative = site unreached. */
    std::vector<int64_t> site_depth;
    /** Delta before each item of the region; empty until solved. */
    std::vector<SpDelta> in;
};

/**
 * Forward delta pass over one function region, seeded at its primary
 * entry only, as CC003's solveStackDelta is. `solved` holds the
 * functions solved so far, callees first, so a call's entered delta
 * is known: zero at a primary entry, and at a secondary entry what
 * the callee's first word moved the stack pointer by. The reorganizer
 * copies that word into the call's delay slot, so its adjustment is
 * the callee's frame: the site depth is the delta at the last delay
 * slot less the entered delta, and the resume edge carries that same
 * value across the callee — the balanced-callee assumption CC003
 * independently verifies. Statically unknown edges contribute nothing
 * (optimistic, matching the CC checks' zero-false-positive stance:
 * MS005 may understate, never overstate).
 */
OwnDepth
solveOwnDepth(const CallGraph &g, const FuncEdges &e, size_t fi,
              const std::vector<OwnDepth> &solved,
              const RangeAnalysis &ranges)
{
    const Cfg &cfg = *g.cfg;
    const FunctionInfo &f = g.functions[fi];
    size_t n = f.end - f.begin;

    // Per site inside the region: the callee's delta at the entered
    // item (VAL 0 for an unresolved call: nothing to charge it).
    auto enteredDelta = [&](const CallSite &s) -> SpDelta {
        if (!s.resolved() || s.entered == g.functions[s.callee].entry)
            return {SpDelta::VAL, 0};
        const std::vector<SpDelta> &in = solved[s.callee].in;
        if (in.empty()) // same SCC, not solved yet
            return {SpDelta::BAD, 0};
        const SpDelta &d = in[s.entered - g.functions[s.callee].begin];
        return d.kind == SpDelta::VAL ? d : SpDelta{SpDelta::BAD, 0};
    };
    std::vector<SpDelta> shift(n);     ///< per resume item
    std::vector<char> callee_slot(n, 0);
    for (size_t si : f.sites) {
        const CallSite &s = g.sites[si];
        SpDelta d = enteredDelta(s);
        if (s.resume != kNoItem && s.resume < f.end)
            shift[s.resume - f.begin] = d;
        if (d.kind != SpDelta::VAL || d.d != 0)
            for (size_t j = s.item + 1; j <= s.last_slot && j < f.end; ++j)
                callee_slot[j - f.begin] = 1;
    }

    auto transfer = [&](size_t item_index, SpDelta d) -> SpDelta {
        const Item &item = cfg.unit->items[item_index];
        if (item.is_data || d.kind != SpDelta::VAL)
            return d;
        if (!cfg.uses[item_index].writesGpr(isa::kStackReg))
            return d;
        const isa::AluPiece *alu = item.inst.alu();
        bool tracked = alu && alu->rd == isa::kStackReg &&
                       alu->rs == isa::kStackReg &&
                       (alu->op == AluOp::ADD ||
                        alu->op == AluOp::SUB) &&
                       !(item.inst.mem() && !item.inst.mem()->is_store &&
                         item.inst.mem()->rd == isa::kStackReg);
        if (!tracked)
            return {SpDelta::BAD, 0};
        std::optional<uint32_t> k;
        if (alu->src2.is_imm)
            k = alu->src2.imm4;
        else if (ranges.in[item_index].reachable)
            k = ranges.in[item_index].regs[alu->src2.reg].asConst();
        if (!k)
            return {SpDelta::BAD, 0};
        int64_t step = alu->op == AluOp::ADD
                           ? static_cast<int64_t>(*k)
                           : -static_cast<int64_t>(*k);
        return {SpDelta::VAL, d.d + step};
    };
    /** `d` less the entered delta `by` (a call's site value). */
    auto shiftBack = [](SpDelta d, const SpDelta &by) -> SpDelta {
        if (d.kind != SpDelta::VAL)
            return d;
        if (by.kind != SpDelta::VAL)
            return {SpDelta::BAD, 0};
        return {SpDelta::VAL, d.d - by.d};
    };

    OwnDepth own;
    own.in.resize(n);
    std::vector<SpDelta> out(n);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t k = 0; k < n; ++k) {
            size_t i = f.begin + k;
            SpDelta edge;
            if (i == f.entry)
                edge = {SpDelta::VAL, 0};
            for (uint32_t p : e.preds(i))
                edge = meetDelta(edge, out[p - f.begin]);
            if (e.resume_from[i] != kNoItem)
                edge = meetDelta(edge,
                                 shiftBack(out[e.resume_from[i] - f.begin],
                                           shift[k]));
            SpDelta after = transfer(i, edge);
            if (!(own.in[k] == edge) || !(out[k] == after)) {
                own.in[k] = edge;
                out[k] = after;
                changed = true;
            }
        }
    }

    own.site_depth.assign(g.sites.size(), -1);
    for (size_t k = 0; k < n; ++k) {
        if (out[k].kind == SpDelta::BAD)
            own.known = false;
        else if (out[k].kind == SpDelta::VAL && out[k].d < 0 &&
                 !callee_slot[k])
            own.words = std::max(own.words,
                                 static_cast<uint64_t>(-out[k].d));
    }
    for (size_t si : f.sites) {
        const CallSite &s = g.sites[si];
        SpDelta d = shiftBack(out[std::min(s.last_slot, f.end - 1) -
                                  f.begin],
                              enteredDelta(s));
        if (d.kind == SpDelta::VAL)
            own.site_depth[si] = std::max<int64_t>(0, -d.d);
        else if (d.kind == SpDelta::BAD)
            own.known = false;
    }
    return own;
}

} // namespace

RangeReport
checkMemorySafety(const Cfg &cfg, const CallGraph &graph,
                  const RangeCheckOptions &options,
                  const std::string &unit_name, DiagnosticEngine *diags)
{
    RangeAnalysis ranges = analyzeValueRanges(cfg);

    RangeReport report;
    report.unit = unit_name;
    report.items = cfg.size();
    report.reachable_items = ranges.reachable_items;
    report.functions = graph.size();
    report.widenings = ranges.widenings;
    report.iterations = ranges.iterations;
    report.stack_budget = options.stack_budget;

    auto emit = [&](Code code, Severity severity, size_t item,
                    std::string message) {
        if (severity == Severity::ERROR)
            ++report.must_findings;
        else
            ++report.may_findings;
        if (diags)
            diags->report(code, severity, item, std::move(message));
    };

    size_t n = cfg.size();
    std::vector<char> must_fault(n, 0);

    // ------------------------------------------- per-item MS checks
    for (size_t i = 0; i < n; ++i) {
        const RegState &s = ranges.in[i];
        const Item &item = cfg.unit->items[i];
        if (!s.reachable || item.is_data)
            continue;
        const isa::Instruction &inst = item.inst;

        if (inst.mem() && isa::memReferencesMemory(*inst.mem())) {
            const isa::MemPiece &m = *inst.mem();
            ++report.checked_refs;
            AbsVal addr = memAddressRange(m, item.target, cfg, s);
            const char *what = m.is_store ? "store" : "load";

            if (s.map_enable == Flag::NO) {
                // Physical addressing: valid words are [0, kPhysWords).
                Verdict v = classifyOverlap(addr, kPhysWords,
                                            kWordMax);
                if (v == Verdict::MUST) {
                    must_fault[i] = 1;
                    emit(Code::MS001, Severity::ERROR, i,
                         strprintf("%s address %s is outside physical "
                                   "memory [0, 0x%x)",
                                   what, intervalText(addr).c_str(),
                                   kPhysWords));
                } else if (v == Verdict::MAY) {
                    emit(Code::MS001, Severity::WARNING, i,
                         strprintf("%s address %s may lie outside "
                                   "physical memory [0, 0x%x)",
                                   what, intervalText(addr).c_str(),
                                   kPhysWords));
                }
            } else if (s.map_enable == Flag::YES) {
                // Mapped addressing: the program space is two halves
                // of 2^(23-n) words each (sim/mapping.h geometry);
                // everything between them is an address error.
                auto sb = s.seg_bits.asConst();
                if (sb && *sb <= 8) {
                    int64_t half = 1ll << (23 - *sb);
                    Verdict v = classifyOverlap(addr, half,
                                                kWordSpan - half - 1);
                    if (v == Verdict::MUST) {
                        must_fault[i] = 1;
                        emit(Code::MS003, Severity::ERROR, i,
                             strprintf(
                                 "%s address %s falls in the unmapped "
                                 "gap [0x%llx, 0x%llx) between the two "
                                 "segments (seg_bits %u)",
                                 what, intervalText(addr).c_str(),
                                 static_cast<unsigned long long>(half),
                                 static_cast<unsigned long long>(
                                     kWordSpan - half),
                                 *sb));
                    } else if (v == Verdict::MAY) {
                        emit(Code::MS003, Severity::WARNING, i,
                             strprintf(
                                 "%s address %s may fall in the "
                                 "unmapped gap [0x%llx, 0x%llx) between "
                                 "the two segments (seg_bits %u)",
                                 what, intervalText(addr).c_str(),
                                 static_cast<unsigned long long>(half),
                                 static_cast<unsigned long long>(
                                     kWordSpan - half),
                                 *sb));
                    }
                }
            }

            // MS002: a word-sized object accessed through BASE_SHIFT
            // whose byte/element index provably has non-zero low bits:
            // the shift discards them and the hardware silently reads
            // the containing word.
            if (m.mode == MemMode::BASE_SHIFT && m.shift > 0 &&
                item.ref_size == 32) {
                const AbsVal &idx = s.regs[m.index];
                unsigned kb = std::min<unsigned>(idx.low_bits, m.shift);
                uint32_t low = idx.low_val & maskBits(kb);
                if (kb > 0 && low != 0) {
                    emit(Code::MS002, Severity::ERROR, i,
                         strprintf("word-sized %s discards non-zero "
                                   "low index bits (index %s, low %u "
                                   "bit%s = %u): the access truncates "
                                   "to the containing word",
                                   what, intervalText(idx).c_str(), kb,
                                   kb == 1 ? "" : "s", low));
                }
            }
        }

        // MS007: the table-dispatch fetch is a data-port read like any
        // other; its address must stay inside the declared table. The
        // table is the *legal* region here, so the verdict logic is
        // classifyOverlap's mirror image.
        if (inst.jump() && isa::jumpIsTable(inst.jump()->kind)) {
            auto ti = cfg.tables.find(i);
            if (ti != cfg.tables.end() && !ti->second.entries.empty()) {
                ++report.checked_refs;
                isa::MemPiece fetch;
                fetch.mode = MemMode::BASE_INDEX;
                fetch.base = inst.jump()->target_reg;
                fetch.index = inst.jump()->index;
                AbsVal addr =
                    memAddressRange(fetch, assembler::kNoLabel, cfg, s);
                int64_t t_lo =
                    static_cast<int64_t>(cfg.unit->origin) +
                    static_cast<int64_t>(ti->second.first_entry);
                int64_t t_hi =
                    t_lo +
                    static_cast<int64_t>(ti->second.entries.size()) - 1;
                if (addr.hi < t_lo || addr.lo > t_hi) {
                    emit(Code::MS007, Severity::ERROR, i,
                         strprintf("table fetch address %s lies outside "
                                   "the %zu-entry jump table at "
                                   "[0x%llx, 0x%llx]",
                                   intervalText(addr).c_str(),
                                   ti->second.entries.size(),
                                   static_cast<unsigned long long>(t_lo),
                                   static_cast<unsigned long long>(
                                       t_hi)));
                } else if (!(addr.lo >= t_lo && addr.hi <= t_hi) &&
                           !addr.isTop() && !addr.widened) {
                    emit(Code::MS007, Severity::WARNING, i,
                         strprintf("table fetch address %s may read "
                                   "outside the %zu-entry jump table at "
                                   "[0x%llx, 0x%llx]",
                                   intervalText(addr).c_str(),
                                   ti->second.entries.size(),
                                   static_cast<unsigned long long>(t_lo),
                                   static_cast<unsigned long long>(
                                       t_hi)));
                }
            }
        }

        if (inst.alu() && isa::aluCanOverflow(inst.alu()->op) &&
            s.ovf_enable == Flag::YES) {
            ++report.checked_alu;
            const isa::AluPiece &a = *inst.alu();
            AbsVal rsv = s.regs[a.rs];
            AbsVal s2v = src2Val(s, a.src2);
            auto r1 = rsv.signedRange();
            auto r2 = s2v.signedRange();
            if (r1 && r2) {
                int64_t lo = 0, hi = 0;
                switch (a.op) {
                  case AluOp::ADD:
                    lo = r1->first + r2->first;
                    hi = r1->second + r2->second;
                    break;
                  case AluOp::SUB:
                    lo = r1->first - r2->second;
                    hi = r1->second - r2->first;
                    break;
                  default: // RSUB (aluCanOverflow admits no others)
                    lo = r2->first - r1->second;
                    hi = r2->second - r1->first;
                    break;
                }
                if (lo > kInt32Max || hi < kInt32Min) {
                    must_fault[i] = 1;
                    emit(Code::MS004, Severity::ERROR, i,
                         strprintf("signed overflow: result in "
                                   "[%lld, %lld] cannot fit 32 bits "
                                   "and overflow traps are enabled",
                                   static_cast<long long>(lo),
                                   static_cast<long long>(hi)));
                } else if ((hi > kInt32Max || lo < kInt32Min) &&
                           !rsv.widened && !s2v.widened) {
                    emit(Code::MS004, Severity::WARNING, i,
                         strprintf("possible signed overflow: result "
                                   "in [%lld, %lld] may leave 32 bits "
                                   "with overflow traps enabled",
                                   static_cast<long long>(lo),
                                   static_cast<long long>(hi)));
                }
            }
        }
    }

    // ---------------------------------------------- MS006 must-fault
    // Remove every must-fault item; if the entry can no longer reach
    // any exit (HALT, or an edge leaving the unit), the program
    // provably cannot complete without taking an exception.
    if (n > 0) {
        bool exit_found = false;
        std::vector<char> seen(n, 0);
        std::vector<size_t> stack;
        if (!must_fault[0]) {
            seen[0] = 1;
            stack.push_back(0);
        }
        while (!stack.empty() && !exit_found) {
            size_t i = stack.back();
            stack.pop_back();
            const Item &item = cfg.unit->items[i];
            bool halts = !item.is_data && item.inst.special() &&
                         item.inst.special()->op == isa::SpecialOp::HALT;
            if (halts || cfg.nodes[i].unknown_succ) {
                exit_found = true;
                break;
            }
            for (uint32_t succ : cfg.succs(i))
                if (!seen[succ] && !must_fault[succ]) {
                    seen[succ] = 1;
                    stack.push_back(succ);
                }
        }
        if (!exit_found)
            emit(Code::MS006, Severity::ERROR, kNoItem,
                 "every path from the unit entry to an exit passes "
                 "through an instruction that must fault");
    }

    // ------------------------------------------- MS005 stack rollup
    // Callee-first (ascending SCC id — Tarjan pops callees before
    // callers): each function's delta pass reads its callees' deltas,
    // and its rollup their rollups.
    struct Roll
    {
        bool known = false;
        bool unbounded = false;
        uint64_t words = 0;
    };
    std::vector<OwnDepth> own(graph.size());
    std::vector<Roll> roll(graph.size());
    std::vector<size_t> order(graph.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (graph.functions[a].scc != graph.functions[b].scc)
            return graph.functions[a].scc < graph.functions[b].scc;
        return a < b;
    });
    FuncEdges edges = makeFuncEdges(graph);
    for (size_t fi : order) {
        const FunctionInfo &f = graph.functions[fi];
        own[fi] = solveOwnDepth(graph, edges, fi, own, ranges);
        Roll r;
        if (f.recursive) {
            r.unbounded = true;
            roll[fi] = r;
            continue;
        }
        r.known = own[fi].known;
        r.words = own[fi].words;
        for (size_t si : f.sites) {
            const CallSite &s = graph.sites[si];
            int64_t at_site = own[fi].site_depth[si];
            if (at_site < 0)
                continue; // site unreached: contributes nothing
            if (!s.resolved()) {
                r.known = false;
                continue;
            }
            const Roll &callee = roll[s.callee];
            if (callee.unbounded)
                r.unbounded = true;
            else if (!callee.known)
                r.known = false;
            else
                r.words = std::max(
                    r.words, static_cast<uint64_t>(at_site) +
                                 callee.words);
        }
        roll[fi] = r;
    }

    for (size_t fi = 0; fi < graph.size(); ++fi) {
        const FunctionInfo &f = graph.functions[fi];
        StackDepthInfo info;
        info.name = f.name;
        info.function = fi;
        info.known = roll[fi].known;
        info.unbounded = roll[fi].unbounded;
        info.own_words = own[fi].known ? own[fi].words : 0;
        info.rollup_words = roll[fi].known ? roll[fi].words : 0;
        report.stack.push_back(info);

        if (options.stack_budget == 0)
            continue;
        if (f.recursive) {
            emit(Code::MS005, Severity::ERROR, f.entry,
                 strprintf("function '%s' is recursive: worst-case "
                           "stack depth is unbounded (budget %u words)",
                           f.name.c_str(), options.stack_budget));
        } else if (roll[fi].known &&
                   roll[fi].words > options.stack_budget) {
            emit(Code::MS005, Severity::ERROR, f.entry,
                 strprintf("worst-case stack depth of '%s' is %llu "
                           "words (own body %llu), exceeding the "
                           "%u-word budget",
                           f.name.c_str(),
                           static_cast<unsigned long long>(
                               roll[fi].words),
                           static_cast<unsigned long long>(
                               own[fi].words),
                           options.stack_budget));
        }
    }

    return report;
}

std::string
rangeText(const RangeReport &report)
{
    std::string out;
    out += strprintf("value-range report for %s\n",
                     report.unit.c_str());
    out += strprintf("  items: %zu of %zu reachable; refs checked: "
                     "%zu; overflow checks: %zu\n",
                     report.reachable_items, report.items,
                     report.checked_refs, report.checked_alu);
    out += strprintf("  findings: %zu must (errors), %zu may "
                     "(warnings)\n",
                     report.must_findings, report.may_findings);
    out += strprintf("  fixpoint: %zu item transfers, %zu widenings\n",
                     report.iterations, report.widenings);
    if (report.stack_budget)
        out += strprintf("  stack budget: %u words\n",
                         report.stack_budget);
    else
        out += "  stack budget: none\n";
    if (!report.stack.empty()) {
        out += strprintf("  %-24s %8s %10s\n", "function", "own",
                         "rollup");
        for (const StackDepthInfo &s : report.stack) {
            std::string rollup = "?";
            if (s.unbounded)
                rollup = "unbounded";
            else if (s.known)
                rollup = strprintf(
                    "%llu",
                    static_cast<unsigned long long>(s.rollup_words));
            out += strprintf(
                "  %-24s %8llu %10s\n", s.name.c_str(),
                static_cast<unsigned long long>(s.own_words),
                rollup.c_str());
        }
    }
    return out;
}

std::string
rangeJson(const RangeReport &report)
{
    std::string out = "{\n";
    out += "  \"schema\": 1,\n";
    out += strprintf("  \"unit\": \"%s\",\n",
                     support::jsonEscape(report.unit).c_str());
    out += strprintf("  \"items\": %zu,\n", report.items);
    out += strprintf("  \"reachable_items\": %zu,\n",
                     report.reachable_items);
    out += strprintf("  \"functions\": %zu,\n", report.functions);
    out += strprintf("  \"checked_refs\": %zu,\n", report.checked_refs);
    out += strprintf("  \"checked_alu\": %zu,\n", report.checked_alu);
    out += strprintf("  \"must_findings\": %zu,\n",
                     report.must_findings);
    out += strprintf("  \"may_findings\": %zu,\n", report.may_findings);
    out += strprintf("  \"widenings\": %zu,\n", report.widenings);
    out += strprintf("  \"iterations\": %zu,\n", report.iterations);
    if (report.stack_budget)
        out += strprintf("  \"stack_budget\": %u,\n",
                         report.stack_budget);
    else
        out += "  \"stack_budget\": null,\n";
    out += "  \"stack\": [";
    for (size_t i = 0; i < report.stack.size(); ++i) {
        const StackDepthInfo &s = report.stack[i];
        out += (i ? ",\n    " : "\n    ");
        out += strprintf("{\"function\": \"%s\", ",
                         support::jsonEscape(s.name).c_str());
        out += strprintf("\"own_words\": %llu, ",
                         static_cast<unsigned long long>(s.own_words));
        if (s.known)
            out += strprintf("\"rollup_words\": %llu, ",
                             static_cast<unsigned long long>(
                                 s.rollup_words));
        else
            out += "\"rollup_words\": null, ";
        out += strprintf("\"unbounded\": %s}",
                         s.unbounded ? "true" : "false");
    }
    out += report.stack.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

void
publishRangeMetrics(const RangeReport &report)
{
    obs::RangeMetrics &m = obs::rangeMetrics();
    m.reports->add(1);
    m.functions->add(report.functions);
    m.checked_refs->add(report.checked_refs);
    m.must_findings->add(report.must_findings);
    m.may_findings->add(report.may_findings);
    m.widenings->add(report.widenings);
}

FaultCoverage
checkFaultCoverage(const std::vector<Diagnostic> &diags, uint32_t origin,
                   size_t items, const std::vector<ObservedFault> &faults)
{
    FaultCoverage cov;
    cov.events = faults.size();

    std::set<size_t> ovf_items, mem_items;
    bool any_ovf = false, any_mem = false, unit_ms006 = false;
    for (const Diagnostic &d : diags) {
        switch (d.code) {
          case Code::MS004:
            any_ovf = true;
            if (d.item_index != kNoItem)
                ovf_items.insert(d.item_index);
            break;
          case Code::MS001:
          case Code::MS003:
          case Code::MS007:
            any_mem = true;
            if (d.item_index != kNoItem)
                mem_items.insert(d.item_index);
            break;
          case Code::MS006:
            any_mem = true;
            if (d.item_index == kNoItem)
                unit_ms006 = true;
            else
                mem_items.insert(d.item_index);
            break;
          default:
            break;
        }
    }

    for (const ObservedFault &f : faults) {
        if (f.cause == kFaultPageFault) {
            ++cov.exempt; // residency is OS state, not program state
            continue;
        }
        bool overflow = f.cause == kFaultOverflow;
        int64_t idx = static_cast<int64_t>(f.pc) - origin;
        bool in_unit = idx >= 0 && idx < static_cast<int64_t>(items);
        const std::set<size_t> &family = overflow ? ovf_items
                                                  : mem_items;
        bool family_any = overflow ? any_ovf : any_mem;
        bool covered = (!overflow && unit_ms006) ||
                       (in_unit && family.count(
                                       static_cast<size_t>(idx))) ||
                       (!in_unit && family_any);
        if (covered) {
            ++cov.covered;
        } else {
            cov.notes.push_back(strprintf(
                "uncovered %s at pc %u (addr 0x%x): no %s finding",
                overflow ? "overflow" : "fault", f.pc, f.addr,
                overflow ? "MS004" : "MS001/MS003/MS006/MS007"));
        }
    }
    return cov;
}

} // namespace mips::verify
