#include "verify/costmodel.h"

#include <algorithm>

#include "isa/branch.h"
#include "isa/instruction.h"
#include "isa/special.h"
#include "obs/catalog.h"
#include "support/strings.h"

namespace mips::verify {

using assembler::Item;
using assembler::Unit;

namespace {

/** Saturating add keeps pathological rollups from wrapping. */
uint64_t
satAdd(uint64_t a, uint64_t b)
{
    uint64_t s = a + b;
    return s < a ? UINT64_MAX : s;
}

/** Delay slots this item exposes (0 for non-transfers and for
 *  immediate redirects like TRAP/RFE/HALT). */
int
transferDelay(const Item &item)
{
    if (item.is_data)
        return 0;
    if (item.inst.branch())
        return item.inst.branch()->cond == isa::Cond::NEVER
            ? 0 : isa::kBranchDelay;
    if (item.inst.jump())
        return isa::jumpDelay(item.inst.jump()->kind);
    return 0;
}

/** True when the block containing this item may be left early by an
 *  exception redirect (TRAP) or may re-enter another stream (RFE). */
bool
breaksUniformity(const Item &item)
{
    if (item.is_data || !item.inst.special())
        return false;
    return item.inst.special()->op == isa::SpecialOp::TRAP ||
           item.inst.special()->op == isa::SpecialOp::RFE;
}

/**
 * True when item i starts a new block: data boundaries, labels,
 * unknown predecessors, and any edge shape other than "the single
 * fall-through from the single previous word". Within a block every
 * consecutive pair is then connected by exactly that edge, which is
 * what makes per-entry cost == word count exact.
 */
bool
isLeader(const Cfg &cfg, size_t i)
{
    const Unit &unit = *cfg.unit;
    if (unit.items[i].is_data)
        return false; // data is outside every block
    if (i == 0 || unit.items[i - 1].is_data)
        return true;
    if (unit.items[i].label != assembler::kNoLabel ||
        cfg.nodes[i].unknown_pred)
        return true;
    auto succs = cfg.succs(i - 1);
    if (cfg.nodes[i - 1].unknown_succ || succs.size() != 1 ||
        succs[0] != i)
        return true;
    auto preds = cfg.preds(i);
    return preds.size() != 1 || preds[0] != i - 1;
}

} // namespace

double
CostReport::nopOverhead() const
{
    return totals.words
        ? static_cast<double>(totals.nops) / totals.words : 0.0;
}

double
CostReport::fillRate() const
{
    return totals.delay_slots
        ? static_cast<double>(totals.filled_slots) / totals.delay_slots
        : 1.0;
}

double
CostReport::packedDensity() const
{
    return totals.instructions
        ? static_cast<double>(totals.packed) / totals.instructions
        : 0.0;
}

CostReport
computeCostModel(const Cfg &cfg, const CallGraph &graph,
                 const std::string &unit_name)
{
    const Unit &unit = *cfg.unit;
    size_t n = unit.items.size();
    CostReport report;
    report.unit = unit_name;

    // Blocks: maximal straight-line runs.
    for (size_t i = 0; i < n; ++i) {
        if (!isLeader(cfg, i))
            continue;
        BlockCost block;
        block.first = i;
        block.pc = unit.origin + static_cast<uint32_t>(i);
        block.function = graph.function_of[i];
        size_t j = i;
        do {
            const Item &item = unit.items[j];
            ++block.count;
            if (item.inst.isNop())
                ++block.nops;
            else
                ++block.instructions;
            if (item.inst.alu() && item.inst.mem())
                ++block.packed;
            if (item.inst.jump() &&
                isa::jumpIsTable(item.inst.jump()->kind))
                ++block.dispatches;
            int delay = transferDelay(item);
            for (int d = 1; d <= delay && j + d < n; ++d) {
                ++block.delay_slots;
                if (!unit.items[j + d].inst.isNop())
                    ++block.filled_slots;
            }
            if (breaksUniformity(item))
                block.straight_line = false;
            ++j;
        } while (j < n && !unit.items[j].is_data && !isLeader(cfg, j));
        report.blocks.push_back(block);
    }

    // Per-function sums.
    report.functions.resize(graph.functions.size());
    for (size_t f = 0; f < graph.functions.size(); ++f) {
        FunctionCost &fc = report.functions[f];
        fc.function = f;
        fc.name = graph.functions[f].name;
        fc.recursive = graph.functions[f].recursive;
    }
    for (const BlockCost &b : report.blocks) {
        report.totals.words += b.count;
        report.totals.instructions += b.instructions;
        report.totals.nops += b.nops;
        report.totals.packed += b.packed;
        report.totals.delay_slots += b.delay_slots;
        report.totals.filled_slots += b.filled_slots;
        report.totals.dispatches += b.dispatches;
        if (b.dispatches)
            report.totals.dispatch_words += b.count;
        if (b.function == kNoFunc)
            continue;
        FunctionCost &fc = report.functions[b.function];
        ++fc.blocks;
        fc.words += b.count;
        fc.instructions += b.instructions;
        fc.nops += b.nops;
        fc.packed += b.packed;
        fc.delay_slots += b.delay_slots;
        fc.filled_slots += b.filled_slots;
        fc.dispatches += b.dispatches;
    }

    // Call-graph rollup, callee-first. Tarjan assigned SCC ids in
    // callee-first pop order, so ascending SCC id is a topological
    // order of the condensation with callees before callers.
    std::vector<size_t> order(report.functions.size());
    for (size_t f = 0; f < order.size(); ++f)
        order[f] = f;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return graph.functions[a].scc < graph.functions[b].scc;
    });
    for (size_t f : order) {
        FunctionCost &fc = report.functions[f];
        fc.rollup_words = fc.words;
        if (fc.recursive)
            continue; // the cycle cannot be priced; body only
        for (size_t si : graph.functions[f].sites) {
            const CallSite &s = graph.sites[si];
            if (!s.resolved()) {
                ++fc.unresolved_calls;
                continue;
            }
            if (graph.functions[s.callee].scc ==
                graph.functions[f].scc)
                continue; // same SCC: already counted as recursion
            fc.rollup_words = satAdd(
                fc.rollup_words,
                report.functions[s.callee].rollup_words);
        }
    }
    return report;
}

CostParity
checkCostParity(const CostReport &report,
                const std::vector<uint64_t> &exec_counts,
                double tolerance)
{
    CostParity parity;
    obs::CostMetrics &metrics = obs::costMetrics();
    for (const BlockCost &b : report.blocks) {
        if (b.first + b.count > exec_counts.size()) {
            ++parity.violations;
            parity.notes.push_back(support::strprintf(
                "block @%u: %zu words but only %zu dynamic counts",
                b.pc, b.count, exec_counts.size()));
            continue;
        }
        ++parity.checked;
        uint64_t entries = exec_counts[b.first];
        if (b.straight_line) {
            bool ok = true;
            for (size_t k = 0; k < b.count && ok; ++k) {
                if (exec_counts[b.first + k] != entries) {
                    ok = false;
                    parity.notes.push_back(support::strprintf(
                        "block @%u: word %u executed %llu times, "
                        "but the block was entered %llu times",
                        b.pc, b.pc + static_cast<uint32_t>(k),
                        static_cast<unsigned long long>(
                            exec_counts[b.first + k]),
                        static_cast<unsigned long long>(entries)));
                }
            }
            if (ok)
                ++parity.exact;
            else
                ++parity.violations;
        } else {
            uint64_t expect = entries * b.count;
            uint64_t actual = 0;
            for (size_t k = 0; k < b.count; ++k)
                actual += exec_counts[b.first + k];
            double bound =
                tolerance * std::max<double>(
                                1.0, static_cast<double>(expect));
            double diff = actual >= expect
                ? static_cast<double>(actual - expect)
                : static_cast<double>(expect - actual);
            if (diff <= bound) {
                ++parity.bounded;
            } else {
                ++parity.violations;
                parity.notes.push_back(support::strprintf(
                    "block @%u (TRAP/RFE): %llu dynamic cycles vs "
                    "%llu expected, outside tolerance %.3f",
                    b.pc, static_cast<unsigned long long>(actual),
                    static_cast<unsigned long long>(expect),
                    tolerance));
            }
        }
    }
    metrics.parity_checks->add(parity.checked);
    metrics.parity_violations->add(parity.violations);
    return parity;
}

std::string
costText(const CostReport &report)
{
    std::string out = support::strprintf(
        "%s: static cycle-cost model\n", report.unit.c_str());
    out += "  function              blocks  words  instr   nops"
           " packed  slots filled  rollup\n";
    for (const FunctionCost &f : report.functions) {
        std::string name = f.name;
        if (f.recursive)
            name += " (rec)";
        if (f.unresolved_calls)
            name += support::strprintf(" (+%zu?)", f.unresolved_calls);
        out += support::strprintf(
            "  %-21s %6zu %6llu %6llu %6llu %6llu %6llu %6llu %7llu\n",
            name.c_str(), f.blocks,
            static_cast<unsigned long long>(f.words),
            static_cast<unsigned long long>(f.instructions),
            static_cast<unsigned long long>(f.nops),
            static_cast<unsigned long long>(f.packed),
            static_cast<unsigned long long>(f.delay_slots),
            static_cast<unsigned long long>(f.filled_slots),
            static_cast<unsigned long long>(f.rollup_words));
    }
    out += support::strprintf(
        "  totals: %llu words, %llu instructions, %llu interlock "
        "nops (%.1f%%), packed density %.1f%%, delay-slot fill "
        "%llu/%llu (%.1f%%)\n",
        static_cast<unsigned long long>(report.totals.words),
        static_cast<unsigned long long>(report.totals.instructions),
        static_cast<unsigned long long>(report.totals.nops),
        100.0 * report.nopOverhead(),
        100.0 * report.packedDensity(),
        static_cast<unsigned long long>(report.totals.filled_slots),
        static_cast<unsigned long long>(report.totals.delay_slots),
        100.0 * report.fillRate());
    if (report.totals.dispatches) {
        out += support::strprintf(
            "  table dispatch: %llu jtab word(s), %llu word(s) in "
            "dispatch blocks\n",
            static_cast<unsigned long long>(report.totals.dispatches),
            static_cast<unsigned long long>(
                report.totals.dispatch_words));
    }
    return out;
}

std::string
costJson(const CostReport &report, const CostParity *parity)
{
    std::string out = "{\n  \"schema\": 1,\n";
    out += support::strprintf("  \"unit\": \"%s\",\n",
                              support::jsonEscape(report.unit).c_str());
    out += support::strprintf(
        "  \"totals\": {\"words\": %llu, \"instructions\": %llu, "
        "\"nops\": %llu, \"packed\": %llu, \"delay_slots\": %llu, "
        "\"filled_slots\": %llu, \"dispatches\": %llu, "
        "\"dispatch_words\": %llu},\n",
        static_cast<unsigned long long>(report.totals.words),
        static_cast<unsigned long long>(report.totals.instructions),
        static_cast<unsigned long long>(report.totals.nops),
        static_cast<unsigned long long>(report.totals.packed),
        static_cast<unsigned long long>(report.totals.delay_slots),
        static_cast<unsigned long long>(report.totals.filled_slots),
        static_cast<unsigned long long>(report.totals.dispatches),
        static_cast<unsigned long long>(report.totals.dispatch_words));
    out += support::strprintf(
        "  \"nop_overhead\": %.4f, \"packed_density\": %.4f, "
        "\"fill_rate\": %.4f,\n",
        report.nopOverhead(), report.packedDensity(),
        report.fillRate());
    out += "  \"functions\": [";
    for (size_t i = 0; i < report.functions.size(); ++i) {
        const FunctionCost &f = report.functions[i];
        out += i ? ",\n    " : "\n    ";
        out += support::strprintf(
            "{\"name\": \"%s\", \"blocks\": %zu, \"words\": %llu, "
            "\"instructions\": %llu, \"nops\": %llu, "
            "\"packed\": %llu, \"delay_slots\": %llu, "
            "\"filled_slots\": %llu, \"dispatches\": %llu, "
            "\"rollup_words\": %llu, "
            "\"unresolved_calls\": %zu, \"recursive\": %s}",
            support::jsonEscape(f.name).c_str(), f.blocks,
            static_cast<unsigned long long>(f.words),
            static_cast<unsigned long long>(f.instructions),
            static_cast<unsigned long long>(f.nops),
            static_cast<unsigned long long>(f.packed),
            static_cast<unsigned long long>(f.delay_slots),
            static_cast<unsigned long long>(f.filled_slots),
            static_cast<unsigned long long>(f.dispatches),
            static_cast<unsigned long long>(f.rollup_words),
            f.unresolved_calls, f.recursive ? "true" : "false");
    }
    out += report.functions.empty() ? "],\n" : "\n  ],\n";
    out += "  \"blocks\": [";
    for (size_t i = 0; i < report.blocks.size(); ++i) {
        const BlockCost &b = report.blocks[i];
        out += i ? ",\n    " : "\n    ";
        out += support::strprintf(
            "{\"pc\": %u, \"words\": %zu, \"instructions\": %llu, "
            "\"nops\": %llu, \"packed\": %llu, \"delay_slots\": %llu, "
            "\"filled_slots\": %llu, \"dispatches\": %llu, "
            "\"straight_line\": %s}",
            b.pc, b.count,
            static_cast<unsigned long long>(b.instructions),
            static_cast<unsigned long long>(b.nops),
            static_cast<unsigned long long>(b.packed),
            static_cast<unsigned long long>(b.delay_slots),
            static_cast<unsigned long long>(b.filled_slots),
            static_cast<unsigned long long>(b.dispatches),
            b.straight_line ? "true" : "false");
    }
    out += report.blocks.empty() ? "]" : "\n  ]";
    if (parity) {
        out += support::strprintf(
            ",\n  \"parity\": {\"checked\": %zu, \"exact\": %zu, "
            "\"bounded\": %zu, \"violations\": %zu, \"notes\": [",
            parity->checked, parity->exact, parity->bounded,
            parity->violations);
        for (size_t i = 0; i < parity->notes.size(); ++i) {
            out += i ? ", " : "";
            std::string escaped;
            for (char c : parity->notes[i]) {
                if (c == '"' || c == '\\')
                    escaped += '\\';
                escaped += c;
            }
            out += "\"" + escaped + "\"";
        }
        out += "]}";
    }
    out += "\n}\n";
    return out;
}

void
publishCostMetrics(const CostReport &report)
{
    obs::CostMetrics &metrics = obs::costMetrics();
    metrics.reports->add(1);
    metrics.functions->add(report.functions.size());
    metrics.blocks->add(report.blocks.size());
    metrics.static_cycles->add(report.totals.words);
    metrics.interlock_nops->add(report.totals.nops);
    metrics.dispatches->add(report.totals.dispatches);
    metrics.dispatch_words->add(report.totals.dispatch_words);
}

} // namespace mips::verify
