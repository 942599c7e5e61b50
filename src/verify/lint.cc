/**
 * @file
 * Dataflow lints: findings that do not break the pipeline contract but
 * usually indicate a bug in the code or in the tool that emitted it.
 */
#include "isa/registers.h"
#include "support/strings.h"
#include "verify/passes.h"

namespace mips::verify {

namespace {

/** LT001: a read of a register not definitely written on every path
 *  from the unit entry. */
void
checkUninitializedReads(const Cfg &cfg, const VerifyOptions &options,
                        DiagnosticEngine *diags)
{
    DataflowSolution da =
        definiteAssignment(cfg, options.assume_initialized);
    for (size_t i = 0; i < cfg.size(); ++i) {
        uint16_t undef =
            static_cast<uint16_t>(cfg.uses[i].gpr_reads & ~da.in[i]);
        if (!undef)
            continue;
        diags->report(
            Code::LT001, Severity::WARNING, i,
            support::strprintf(
                "%s may be read before any write reaches it",
                regListNames(undef).c_str()));
    }
}

/** LT002: an ALU result that no path can ever read. Restricted to ALU
 *  pieces: dead loads may be deliberate (touching a volatile page) and
 *  link writes of calls are often unused by design. */
void
checkDeadStores(const Cfg &cfg, DiagnosticEngine *diags)
{
    DataflowSolution live = liveness(cfg);
    const auto &items = cfg.unit->items;
    for (size_t i = 0; i < cfg.size(); ++i) {
        if (items[i].is_data || !items[i].inst.alu())
            continue;
        uint16_t writes = isa::regUseAlu(*items[i].inst.alu()).gpr_writes;
        if (!writes || (writes & live.out[i]) != 0)
            continue;
        diags->report(
            Code::LT002, Severity::WARNING, i,
            support::strprintf(
                "result in %s is never read on any path (dead store)",
                regListNames(writes).c_str()));
    }
}

/** LT003: instruction words no execution path can reach. Reported once
 *  per contiguous run. Data items are exempt — they are operands, not
 *  code. */
void
checkUnreachable(const Cfg &cfg, DiagnosticEngine *diags)
{
    size_t n = cfg.size();
    std::vector<char> reached(n, 0);
    std::vector<size_t> work;
    auto push = [&](size_t i) {
        if (!reached[i]) {
            reached[i] = 1;
            work.push_back(i);
        }
    };
    for (size_t i = 0; i < n; ++i) {
        if (i == 0 || cfg.nodes[i].unknown_pred)
            push(i);
    }
    while (!work.empty()) {
        size_t i = work.back();
        work.pop_back();
        for (uint32_t s : cfg.succs(i))
            push(s);
    }
    const auto &items = cfg.unit->items;
    for (size_t i = 0; i < n;) {
        if (reached[i] || items[i].is_data) {
            ++i;
            continue;
        }
        size_t start = i;
        while (i < n && !reached[i] && !items[i].is_data)
            ++i;
        diags->report(
            Code::LT003, Severity::WARNING, start,
            support::strprintf(
                "%zu unreachable instruction word(s)", i - start));
    }
}

} // namespace

void
checkLints(const Cfg &cfg, const VerifyOptions &options,
           DiagnosticEngine *diags)
{
    checkUninitializedReads(cfg, options, diags);
    checkDeadStores(cfg, diags);
    checkUnreachable(cfg, diags);
}

} // namespace mips::verify
