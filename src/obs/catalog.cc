#include "obs/catalog.h"

#include <array>

#include "support/logging.h"

namespace mips::obs {

using support::panic;
using support::strprintf;

namespace {

/** Millisecond latency buckets shared by the latency histograms:
 *  sub-ms stage hits up to multi-second corpus chains. */
std::vector<double>
latencyMsBounds()
{
    return {0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000};
}

constexpr const char *kStageNames[kPipelineStageCount] = {
    "parse",
    "compile",
    "assemble",
    "reorganize",
    "hazard-verify",
    "translation-validate",
    "simulate",
    "cost",
    "range",
};

constexpr const char *kDiagCodeNames[kVerifyDiagCodes] = {
    "HZ001", "HZ002", "HZ003", "HZ004", "HZ005", "HZ006",
    "LT001", "LT002", "LT003", "VF001", "VF002",
    "TV001", "TV002", "TV003", "TV004", "TV005", "TV006", "TV090",
    "CC001", "CC002", "CC003", "CC004", "LT004",
    "MS001", "MS002", "MS003", "MS004", "MS005", "MS006",
    "VF003", "VF004", "HZ007", "MS007", "TV007", "TV008", "VF005",
};

StageMetrics
makeStageMetrics(const char *stage)
{
    Registry &r = Registry::instance();
    StageMetrics m;
    m.lookups = &r.counter(
        strprintf("pipeline.%s.lookups", stage), "count",
        strprintf("artifact requests to the %s stage cache", stage));
    m.hits = &r.counter(
        strprintf("pipeline.%s.hits", stage), "count",
        strprintf("%s artifacts served from the session cache", stage));
    m.misses = &r.counter(
        strprintf("pipeline.%s.misses", stage), "count",
        strprintf("%s artifacts computed (including cached errors)",
                  stage));
    m.wait_blocks = &r.counter(
        strprintf("pipeline.%s.wait_blocks", stage), "count",
        strprintf("%s hits that blocked on an in-flight computation",
                  stage));
    m.miss_us = &r.counter(
        strprintf("pipeline.%s.miss_us", stage), "us",
        strprintf("wall time spent computing %s artifacts", stage));
    return m;
}

} // namespace

const char *
pipelineStageName(size_t stage)
{
    if (stage >= kPipelineStageCount)
        panic("pipelineStageName: stage %zu out of range", stage);
    return kStageNames[stage];
}

StageMetrics &
pipelineStageMetrics(size_t stage)
{
    if (stage >= kPipelineStageCount)
        panic("pipelineStageMetrics: stage %zu out of range", stage);
    static std::array<StageMetrics, kPipelineStageCount> metrics = [] {
        std::array<StageMetrics, kPipelineStageCount> m;
        for (size_t i = 0; i < kPipelineStageCount; ++i)
            m[i] = makeStageMetrics(kStageNames[i]);
        return m;
    }();
    return metrics[stage];
}

Histogram &
pipelineStageMissMs()
{
    static Histogram &h = Registry::instance().histogram(
        "pipeline.stage_miss_ms", "ms",
        "latency distribution of stage computations (cache misses)",
        latencyMsBounds());
    return h;
}

Counter &
pipelineCacheShardConflicts()
{
    static Counter &c = Registry::instance().counter(
        "pipeline.cache.shard_conflicts", "count",
        "cache lookups that found their stage cache's lock held");
    return c;
}

BatchMetrics &
batchMetrics()
{
    static BatchMetrics m = [] {
        Registry &r = Registry::instance();
        BatchMetrics b;
        b.runs = &r.counter("batch.runs", "count",
                            "BatchRunner::runAll invocations");
        b.items = &r.counter("batch.items", "count",
                             "items submitted to BatchRunner::runAll");
        b.claims = &r.counter(
            "batch.claims", "count",
            "item indices claimed by workers (== items completed)");
        b.workers_spawned =
            &r.counter("batch.workers_spawned", "count",
                       "worker threads created by BatchRunner");
        b.worker_busy_us = &r.counter(
            "batch.worker_busy_us", "us",
            "total wall time workers spent inside item callbacks");
        b.queue_depth = &r.gauge(
            "batch.queue_depth", "items",
            "items of all in-flight runAll calls not yet completed "
            "(0 when idle)");
        return b;
    }();
    return m;
}

SimMetrics &
simMetrics()
{
    static SimMetrics m = [] {
        Registry &r = Registry::instance();
        SimMetrics s;
        s.runs = &r.counter("sim.runs", "count",
                            "simulator runs published to the registry");
        s.instructions = &r.counter(
            "sim.instructions", "instructions",
            "instruction words issued (one per machine cycle)");
        s.free_data_cycles = &r.counter(
            "sim.free_data_cycles", "cycles",
            "cycles with the data memory port idle (Section 3.1)");
        s.alu_pieces = &r.counter("sim.alu_pieces", "count",
                                  "ALU pieces executed");
        s.loads = &r.counter("sim.loads", "count",
                             "memory-referencing loads executed");
        s.stores = &r.counter("sim.stores", "count", "stores executed");
        s.long_immediates =
            &r.counter("sim.long_immediates", "count",
                       "long-immediate loads executed");
        s.branches =
            &r.counter("sim.branches", "count", "branches executed");
        s.branches_taken =
            &r.counter("sim.branches_taken", "count", "branches taken");
        s.jumps = &r.counter("sim.jumps", "count", "jumps executed");
        s.nops = &r.counter("sim.nops", "count",
                            "instruction words with no pieces");
        s.packed_words =
            &r.counter("sim.packed_words", "count",
                       "words carrying both ALU and memory pieces");
        s.traps = &r.counter("sim.traps", "count", "traps taken");
        s.exceptions = &r.counter("sim.exceptions", "count",
                                  "exceptions taken (all causes)");
        s.decode_hits =
            &r.counter("sim.decode_cache.hits", "count",
                       "predecoded-instruction-cache hits (host side)");
        s.decode_misses =
            &r.counter("sim.decode_cache.misses", "count",
                       "predecoded-instruction-cache fills (host side)");
        s.decode_invalidations = &r.counter(
            "sim.decode_cache.invalidations", "count",
            "predecoded entries invalidated by memory writes");
        s.memory_pages = &r.counter(
            "sim.memory.pages", "pages",
            "1024-word physical-memory pages given storage by a write");
        s.tlb_hits = &r.counter("sim.tlb.hits", "count",
                                "micro-TLB hits (host side)");
        s.tlb_misses = &r.counter(
            "sim.tlb.misses", "count",
            "micro-TLB misses (fold + page-map reference walks)");
        s.tlb_flushes = &r.counter(
            "sim.tlb.flushes", "count",
            "micro-TLB flushes (map mutation, privilege swaps, ...)");
        s.map_translations =
            &r.counter("sim.map.translations", "count",
                       "successful address translations");
        s.map_faults = &r.counter(
            "sim.map.faults", "count",
            "translation faults (page faults and address errors)");
        return s;
    }();
    return m;
}

const char *
verifyDiagCodeName(size_t code)
{
    if (code >= kVerifyDiagCodes)
        panic("verifyDiagCodeName: code %zu out of range", code);
    return kDiagCodeNames[code];
}

VerifyMetrics &
verifyMetrics()
{
    static VerifyMetrics m = [] {
        Registry &r = Registry::instance();
        VerifyMetrics v;
        v.units = &r.counter(
            "verify.units", "count",
            "verification runs (verifyUnit / verifyReorganization)");
        v.clean_units =
            &r.counter("verify.clean_units", "count",
                       "verification runs with no error findings");
        for (size_t i = 0; i < kVerifyDiagCodes; ++i)
            v.diag[i] = &r.counter(
                strprintf("verify.diag.%s", kDiagCodeNames[i]), "count",
                strprintf("diagnostics reported with code %s",
                          kDiagCodeNames[i]));
        return v;
    }();
    return m;
}

Histogram &
verifyUnitMs()
{
    static Histogram &h = Registry::instance().histogram(
        "verify.unit_ms", "ms",
        "per-unit wall time of one hazard verification (pipeline "
        "stage computation or single-file CLI run)",
        latencyMsBounds());
    return h;
}

CostMetrics &
costMetrics()
{
    static CostMetrics m = [] {
        Registry &r = Registry::instance();
        CostMetrics c;
        c.reports = &r.counter("verify.cost.reports", "count",
                               "static cycle-cost reports computed");
        c.functions =
            &r.counter("verify.cost.functions", "count",
                       "functions costed across all cost reports");
        c.blocks = &r.counter(
            "verify.cost.blocks", "count",
            "straight-line blocks costed across all cost reports");
        c.static_cycles = &r.counter(
            "verify.cost.static_cycles", "cycles",
            "summed static cycles for one sweep of each costed unit");
        c.interlock_nops = &r.counter(
            "verify.cost.interlock_nops", "count",
            "software-interlock nop words counted by the cost model");
        c.dispatches = &r.counter(
            "verify.cost.dispatches", "count",
            "table-dispatch (jtab) words counted by the cost model");
        c.dispatch_words = &r.counter(
            "verify.cost.dispatch_words", "count",
            "words inside table-dispatch blocks counted by the cost "
            "model");
        c.parity_checks = &r.counter(
            "verify.cost.parity_checks", "count",
            "blocks compared against simulator dynamic cycle counts");
        c.parity_violations = &r.counter(
            "verify.cost.parity_violations", "count",
            "blocks whose static cost disagreed with the simulator");
        return c;
    }();
    return m;
}

RangeMetrics &
rangeMetrics()
{
    static RangeMetrics m = [] {
        Registry &r = Registry::instance();
        RangeMetrics v;
        v.reports = &r.counter("verify.range.reports", "count",
                               "value-range analyses computed");
        v.functions = &r.counter(
            "verify.range.functions", "count",
            "functions analyzed across all range reports");
        v.checked_refs = &r.counter(
            "verify.range.checked_refs", "count",
            "memory references checked by the range analysis");
        v.must_findings = &r.counter(
            "verify.range.must_findings", "count",
            "MUST (error) memory-safety findings reported");
        v.may_findings = &r.counter(
            "verify.range.may_findings", "count",
            "MAY (warning) memory-safety findings reported");
        v.widenings = &r.counter(
            "verify.range.widenings", "count",
            "interval widenings applied to reach the fixpoint");
        return v;
    }();
    return m;
}

TvMetrics &
tvMetrics()
{
    static TvMetrics m = [] {
        Registry &r = Registry::instance();
        TvMetrics t;
        t.units = &r.counter("tv.units", "count",
                             "translation-validation runs");
        t.proved = &r.counter(
            "tv.proved", "count",
            "runs proving the reorganized unit equivalent");
        t.refuted =
            &r.counter("tv.refuted", "count",
                       "runs finding a divergence (TV001-TV006 error)");
        t.not_proven = &r.counter(
            "tv.not_proven", "count",
            "inconclusive runs (TV090 note, no divergence)");
        return t;
    }();
    return m;
}

FuzzMetrics &
fuzzMetrics()
{
    static FuzzMetrics m = [] {
        Registry &r = Registry::instance();
        FuzzMetrics f;
        f.programs = &r.counter(
            "fuzz.programs", "count",
            "generated programs run through the differential driver");
        f.pascal_programs =
            &r.counter("fuzz.pascal_programs", "count",
                       "Pascal programs generated");
        f.asm_programs = &r.counter("fuzz.asm_programs", "count",
                                    "assembly units generated");
        f.mismatches = &r.counter(
            "fuzz.mismatches", "count",
            "programs on which any oracle or config disagreed");
        f.minimize_steps = &r.counter(
            "fuzz.minimize_steps", "count",
            "candidate programs evaluated by the minimizer");
        f.repro_writes = &r.counter(
            "fuzz.repro_writes", "count",
            "minimized reproducer files written to disk");
        return f;
    }();
    return m;
}

FuzzChainMetrics &
fuzzChainMetrics()
{
    static FuzzChainMetrics m = [] {
        Registry &r = Registry::instance();
        FuzzChainMetrics f;
        f.chains = &r.counter(
            "pipeline.fuzz.chains", "count",
            "per-configuration oracle chains started by the "
            "differential fuzzer");
        f.oracle_failures = &r.counter(
            "pipeline.fuzz.oracle_failures", "count",
            "fuzz chains that failed an oracle layer");
        return f;
    }();
    return m;
}

void
registerBuiltinMetrics()
{
    for (size_t i = 0; i < kPipelineStageCount; ++i)
        pipelineStageMetrics(i);
    pipelineStageMissMs();
    pipelineCacheShardConflicts();
    batchMetrics();
    simMetrics();
    verifyMetrics();
    verifyUnitMs();
    costMetrics();
    rangeMetrics();
    tvMetrics();
    fuzzMetrics();
    fuzzChainMetrics();
}

} // namespace mips::obs
