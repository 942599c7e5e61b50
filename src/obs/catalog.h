/**
 * @file
 * The metric catalog: every built-in metric name in one place.
 *
 * Subsystems do not invent names inline — they fetch their handle
 * bundle from an accessor here (`pipelineStageMetrics`, `simMetrics`,
 * ...), which registers the metrics with Registry::instance() on
 * first use with canonical name / unit / help metadata. That gives
 * three guarantees:
 *
 *  - one name, one definition: a metric's unit and meaning cannot
 *    diverge between the subsystem that writes it and the docs;
 *  - `registerBuiltinMetrics()` can force-register the whole surface,
 *    so `mipsverify --list-metrics` (and the docs-drift gate,
 *    scripts/check_metrics_docs.sh) sees every metric even on runs
 *    that never touch some subsystem;
 *  - handles are plain pointers into the registry, fetched once into
 *    function-local statics — the hot-path cost of being observable
 *    is the relaxed atomic add, not a name lookup.
 *
 * The catalog deliberately depends only on obs/metrics.h: pipeline
 * stage names and verifier diagnostic codes are mirrored here as
 * strings (tests assert the mirrors match the owning enums). Every
 * name below must appear in docs/METRICS.md — the `check_metrics_docs`
 * ctest gate fails on any drift, in either direction.
 */
#pragma once

#include <cstddef>

#include "obs/metrics.h"

namespace mips::obs {

// --------------------------------------------------- pipeline session

/** Mirrors pipeline::kStageCount / stageName (asserted by obs_test). */
constexpr size_t kPipelineStageCount = 9;
const char *pipelineStageName(size_t stage);

/** Handles for `pipeline.<stage>.*`. Lookup/hit/miss obey
 *  lookups == hits + misses (checked by the scripts/check.sh stats
 *  gate); wait_blocks counts hits that blocked on an in-flight
 *  computation of the same key. */
struct StageMetrics
{
    Counter *lookups;
    Counter *hits;
    Counter *misses;
    Counter *wait_blocks;
    Counter *miss_us;
};
StageMetrics &pipelineStageMetrics(size_t stage);

/** `pipeline.stage_miss_ms`: latency distribution of all stage
 *  computations (cache misses), any stage. */
Histogram &pipelineStageMissMs();

/** `pipeline.cache.shard_conflicts`: lookups that found their stage
 *  cache's lock held by another thread. */
Counter &pipelineCacheShardConflicts();

// ------------------------------------------------------- batch runner

/** Handles for `batch.*` (the BatchRunner worker pool). */
struct BatchMetrics
{
    Counter *runs;            ///< runAll invocations
    Counter *items;           ///< items submitted
    Counter *claims;          ///< items executed by workers
    Counter *workers_spawned; ///< worker threads created
    Counter *worker_busy_us;  ///< total µs workers spent in callbacks
    Gauge *queue_depth;       ///< unfinished items of all in-flight runs
};
BatchMetrics &batchMetrics();

// ---------------------------------------------------------- simulator

/** Handles for `sim.*`. Published post-run from the Cpu/MappingUnit/
 *  PhysMemory counters by sim::publishMetrics — the cycle loop itself
 *  is untouched (see DESIGN.md §11 for the overhead budget). */
struct SimMetrics
{
    Counter *runs;
    Counter *instructions; ///< instruction words issued (== cycles)
    Counter *free_data_cycles;
    Counter *alu_pieces;
    Counter *loads;
    Counter *stores;
    Counter *long_immediates;
    Counter *branches;
    Counter *branches_taken;
    Counter *jumps;
    Counter *nops;
    Counter *packed_words;
    Counter *traps;
    Counter *exceptions;
    Counter *decode_hits;
    Counter *decode_misses;
    Counter *decode_invalidations;
    Counter *memory_pages;
    Counter *tlb_hits;
    Counter *tlb_misses;
    Counter *tlb_flushes;
    Counter *map_translations;
    Counter *map_faults;
};
SimMetrics &simMetrics();

// ----------------------------------------------------------- verifier

/** Mirrors verify::kNumCodes / codeName (asserted by obs_test). */
constexpr size_t kVerifyDiagCodes = 36;
const char *verifyDiagCodeName(size_t code);

/** Handles for `verify.*`: per-code diagnostic counts plus unit
 *  totals, incremented by every verifyUnit/verifyReorganization run
 *  (CLI, pipeline stage, or test oracle alike). */
struct VerifyMetrics
{
    Counter *units;       ///< verification runs
    Counter *clean_units; ///< runs with zero error-severity findings
    Counter *diag[kVerifyDiagCodes];
};
VerifyMetrics &verifyMetrics();

/** `verify.unit_ms`: per-unit wall time of one hazard verification —
 *  observed by the pipeline's hazard-verify stage per computed unit
 *  and by single-file mipsverify runs (cache hits replay without
 *  re-observing). */
Histogram &verifyUnitMs();

/** Handles for `verify.cost.*` (the static cycle-cost model).
 *  Report counters are published once per computed cost report
 *  (CostModel pipeline stage or single-file CLI run); parity
 *  counters by every static-vs-dynamic comparison sweep. */
struct CostMetrics
{
    Counter *reports;           ///< cost reports computed
    Counter *functions;         ///< functions costed across reports
    Counter *blocks;            ///< basic blocks costed across reports
    Counter *static_cycles;     ///< summed single-sweep static cycles
    Counter *interlock_nops;    ///< software-interlock nops counted
    Counter *dispatches;        ///< table-dispatch (jtab) words costed
    Counter *dispatch_words;    ///< words inside dispatch blocks
    Counter *parity_checks;     ///< blocks compared against the simulator
    Counter *parity_violations; ///< blocks whose static cost disagreed
};
CostMetrics &costMetrics();

/** Handles for `verify.range.*` (the value-range abstract
 *  interpreter and memory-safety checker). Published once per
 *  computed range report (VALUE_RANGE pipeline stage or single-file
 *  `mipsverify --range` run); per-code MS counts ride the shared
 *  `verify.diag.<CODE>` counters. */
struct RangeMetrics
{
    Counter *reports;      ///< range analyses computed
    Counter *functions;    ///< functions analyzed across reports
    Counter *checked_refs; ///< memory references range-checked
    Counter *must_findings;///< MUST (error) memory-safety findings
    Counter *may_findings; ///< MAY (warning) memory-safety findings
    Counter *widenings;    ///< interval widenings applied
};
RangeMetrics &rangeMetrics();

/** Handles for `tv.*` (translation-validation proof outcomes;
 *  units == proved + refuted + not_proven). */
struct TvMetrics
{
    Counter *units;
    Counter *proved;     ///< clean report, no TV090
    Counter *refuted;    ///< at least one TV error
    Counter *not_proven; ///< inconclusive (TV090), no error
};
TvMetrics &tvMetrics();

// -------------------------------------------------------------- fuzz

/** Handles for `fuzz.*` (the differential program fuzzer, src/fuzz).
 *  Program counts come from the generator and driver; minimizer
 *  counters from shrinking runs (`--fuzz-minimize`). */
struct FuzzMetrics
{
    Counter *programs;        ///< programs run through the differ
    Counter *pascal_programs; ///< Pascal programs generated
    Counter *asm_programs;    ///< assembly units generated
    Counter *mismatches;      ///< differential oracle disagreements
    Counter *minimize_steps;  ///< minimizer candidate evaluations
    Counter *repro_writes;    ///< reproducer files written
};
FuzzMetrics &fuzzMetrics();

/** Handles for `pipeline.fuzz.*` (the per-configuration oracle
 *  chains the differential driver runs through a Session). */
struct FuzzChainMetrics
{
    Counter *chains;          ///< (program, config) chains started
    Counter *oracle_failures; ///< chains failing any oracle layer
};
FuzzChainMetrics &fuzzChainMetrics();

/**
 * Force-register every metric above (idempotent). Call before
 * snapshotting in contexts that must see the full surface —
 * `mipsverify --stats` / `--list-metrics`, perfbench, and the
 * docs-drift gate.
 */
void registerBuiltinMetrics();

} // namespace mips::obs
