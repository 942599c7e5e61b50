/**
 * @file
 * The hazard-contract checks: everything the interlock-free pipeline
 * demands of its code (see verify.h for the catalogue).
 */
#include "isa/branch.h"
#include "isa/disasm.h"
#include "isa/registers.h"
#include "support/strings.h"
#include "verify/passes.h"

namespace mips::verify {

using assembler::Item;

namespace {

/** Delayed register write of an item's load piece (0 when none). */
uint16_t
loadDelayWrites(const Item &item)
{
    if (item.is_data || !item.inst.isLoad() ||
        item.inst.mem()->rd == isa::kZeroReg) {
        return 0;
    }
    return static_cast<uint16_t>(1u << item.inst.mem()->rd);
}

/** HZ001 / HZ006: every dynamically-next word of a load must not read
 *  the register whose write is still in flight. */
void
checkLoadDelays(const Cfg &cfg, DiagnosticEngine *diags)
{
    const auto &items = cfg.unit->items;
    for (size_t i = 0; i < cfg.size(); ++i) {
        uint16_t delayed = loadDelayWrites(items[i]);
        if (!delayed)
            continue;
        for (uint32_t s : cfg.succs(i)) {
            uint16_t stale = cfg.uses[s].gpr_reads & delayed;
            if (!stale)
                continue;
            // Inside a .noreorder region the front end owns the
            // schedule and the stale read is well defined — assume it
            // is deliberate and only note it.
            bool fenced = items[i].no_reorder && items[s].no_reorder;
            diags->report(
                Code::HZ001,
                fenced ? Severity::NOTE : Severity::ERROR, s,
                support::strprintf(
                    "reads %s in the delay slot of the load at %u "
                    "(the pipeline serves the stale value)",
                    regListNames(stale).c_str(),
                    cfg.unit->origin + static_cast<uint32_t>(i)));
        }
        if (cfg.nodes[i].unknown_succ) {
            diags->report(
                Code::HZ006, Severity::WARNING, i,
                support::strprintf(
                    "load delay of %s escapes into statically unknown "
                    "code; its first consumer cannot be verified",
                    regListNames(delayed).c_str()));
        }
    }
}

/** HZ002 / HZ003: no control transfer inside a delay shadow. */
void
checkShadows(const Cfg &cfg, DiagnosticEngine *diags)
{
    const auto &items = cfg.unit->items;
    for (size_t i = 0; i < cfg.size(); ++i) {
        const CfgNode &node = cfg.nodes[i];
        if (node.shadow == ShadowKind::NONE || items[i].is_data)
            continue;
        const isa::Instruction &inst = items[i].inst;
        bool transfers =
            (inst.branch() && inst.branch()->cond != isa::Cond::NEVER) ||
            inst.jump() != nullptr;
        if (!transfers)
            continue;
        Code code = node.shadow == ShadowKind::INDIRECT ? Code::HZ003
                                                        : Code::HZ002;
        diags->report(
            code, Severity::ERROR, i,
            support::strprintf(
                "control transfer in the delay %s of the transfer at "
                "%u (architecturally undefined when both are taken)",
                node.shadow == ShadowKind::INDIRECT ? "shadow" : "slot",
                cfg.unit->origin +
                    static_cast<uint32_t>(node.shadow_owner)));
    }
}

/** HZ007: no store inside the delay shadow of a table dispatch. The
 *  table fetch overlaps the shadow on the data port, so a store there
 *  races the fetch and the dispatched target is undefined. */
void
checkTableShadows(const Cfg &cfg, DiagnosticEngine *diags)
{
    const auto &items = cfg.unit->items;
    for (size_t i = 0; i < cfg.size(); ++i) {
        const CfgNode &node = cfg.nodes[i];
        if (node.shadow != ShadowKind::INDIRECT || items[i].is_data ||
            node.shadow_owner == kNoItem)
            continue;
        const Item &owner = items[node.shadow_owner];
        if (owner.is_data || !owner.inst.jump() ||
            !isa::jumpIsTable(owner.inst.jump()->kind))
            continue;
        if (!items[i].inst.isStore())
            continue;
        bool fenced = owner.no_reorder && items[i].no_reorder;
        diags->report(
            Code::HZ007, fenced ? Severity::NOTE : Severity::ERROR, i,
            support::strprintf(
                "store in the delay shadow of the table dispatch at %u "
                "races the table fetch on the data port",
                cfg.unit->origin +
                    static_cast<uint32_t>(node.shadow_owner)));
    }
}

/** HZ004: the two pieces of a packed word must be independent — they
 *  execute simultaneously, so neither sequential order is honoured
 *  for a register one piece writes and the other touches. */
void
checkPackedWords(const Cfg &cfg, DiagnosticEngine *diags)
{
    const auto &items = cfg.unit->items;
    for (size_t i = 0; i < cfg.size(); ++i) {
        const Item &item = items[i];
        if (item.is_data || !item.inst.alu() || !item.inst.mem())
            continue;
        isa::RegUse alu = isa::regUseAlu(*item.inst.alu());
        isa::RegUse mem = isa::regUseMem(*item.inst.mem());
        uint16_t conflict = static_cast<uint16_t>(
            (alu.gpr_writes & (mem.gpr_reads | mem.gpr_writes)) |
            (mem.gpr_writes & (alu.gpr_reads | alu.gpr_writes)));
        if (!conflict)
            continue;
        diags->report(
            Code::HZ004,
            item.no_reorder ? Severity::NOTE : Severity::ERROR, i,
            support::strprintf(
                "packed pieces are not independent: %s is touched by "
                "both the ALU piece and the memory piece",
                regListNames(conflict).c_str()));
    }
}

} // namespace

void
checkHazards(const Cfg &cfg, DiagnosticEngine *diags)
{
    checkLoadDelays(cfg, diags);
    checkShadows(cfg, diags);
    checkTableShadows(cfg, diags);
    checkPackedWords(cfg, diags);
}

void
checkNoreorderIntegrity(const assembler::Unit &input,
                        const assembler::Unit &output,
                        DiagnosticEngine *diags)
{
    // Maximal runs of .noreorder items, in program order.
    auto extractRuns = [](const assembler::Unit &unit) {
        std::vector<std::pair<size_t, size_t>> runs; // [first, last]
        for (size_t i = 0; i < unit.items.size(); ++i) {
            if (!unit.items[i].no_reorder)
                continue;
            if (!runs.empty() && runs.back().second + 1 == i)
                runs.back().second = i;
            else
                runs.emplace_back(i, i);
        }
        return runs;
    };
    auto in_runs = extractRuns(input);
    auto out_runs = extractRuns(output);

    if (in_runs.size() != out_runs.size()) {
        diags->report(
            Code::HZ005, Severity::ERROR, kNoItem,
            support::strprintf(
                "input has %zu .noreorder region(s) but the output has "
                "%zu; fenced regions must pass through untouched",
                in_runs.size(), out_runs.size()));
        return;
    }
    for (size_t r = 0; r < in_runs.size(); ++r) {
        size_t in_len = in_runs[r].second - in_runs[r].first + 1;
        size_t out_len = out_runs[r].second - out_runs[r].first + 1;
        if (in_len != out_len) {
            diags->report(
                Code::HZ005, Severity::ERROR, out_runs[r].first,
                support::strprintf(
                    ".noreorder region %zu changed length: %zu word(s) "
                    "in, %zu out", r, in_len, out_len));
            continue;
        }
        for (size_t k = 0; k < in_len; ++k) {
            const Item &a = input.items[in_runs[r].first + k];
            const Item &b = output.items[out_runs[r].first + k];
            bool same = a.is_data == b.is_data &&
                        assembler::targetName(input, a) ==
                            assembler::targetName(output, b);
            if (same && a.is_data)
                same = a.data_value == b.data_value;
            if (same && !a.is_data)
                same = a.inst == b.inst;
            if (!same) {
                diags->report(
                    Code::HZ005, Severity::ERROR,
                    out_runs[r].first + k,
                    support::strprintf(
                        ".noreorder region %zu word %zu was altered by "
                        "the reorganizer", r, k));
            }
        }
    }
}

} // namespace mips::verify
