/**
 * @file
 * Memory-safety checking on top of the value-range analysis.
 *
 * Consumes the fixpoint of verify/valuerange.h plus the call graph of
 * verify/interproc.h and emits the MS-family diagnostics:
 *
 *   MS001 (error/warning) load/store word address outside physical
 *                         memory [0, kPhysWords)
 *   MS002 (error)         base-shifted word access whose index has
 *                         provably non-zero low bits (the hardware
 *                         silently truncates to the containing word)
 *   MS003 (error/warning) mapped-mode reference folding into the gap
 *                         between the two valid segments
 *   MS004 (error/warning) ADD/SUB/RSUB provably or possibly leaving
 *                         the signed 32-bit range with overflow traps
 *                         enabled
 *   MS005 (error)         worst-case stack depth, rolled up over the
 *                         call graph, exceeds the configured budget
 *                         (recursion makes the depth unbounded)
 *   MS006 (error)         every path from the unit entry to an exit
 *                         passes through a must-fault instruction
 *
 * Severity policy (the zero-false-positive contract every verify
 * check in this repo follows): **MUST** findings — the entire
 * abstract value set misbehaves — are errors and are sound even on
 * widened values (widening only grows the set). **MAY** findings —
 * the value set is genuinely narrowed, not widened, and *overlaps*
 * the illegal region — are warnings. Unknown (TOP) or widened values
 * stay silent rather than alarmist.
 *
 * The analysis is validated against the simulator as an oracle
 * (checkFaultCoverage): every dynamically observed address-error or
 * overflow event must be covered by a MUST or MAY finding at the
 * faulting item. Page faults are exempt — residency is operating-
 * system state no static analysis of the program can know.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/interproc.h"
#include "verify/valuerange.h"

namespace mips::verify {

/** Physical memory size in words (MS001): the simulator's default
 *  (sim::kDefaultPhysWords, checked where both are visible). */
constexpr uint32_t kPhysWords = 1u << 20;

/** Knobs for one memory-safety run. */
struct RangeCheckOptions
{
    /** Worst-case stack budget in words; 0 disables MS005. */
    uint32_t stack_budget = 0;

    bool operator==(const RangeCheckOptions &) const = default;
};

/** Per-function worst-case stack usage (words below the entry SP). */
struct StackDepthInfo
{
    std::string name;
    size_t function = kNoFunc;
    bool known = false;       ///< own-body delta was fully tracked
    bool unbounded = false;   ///< in a call-graph cycle
    uint64_t own_words = 0;   ///< deepest point within the body
    uint64_t rollup_words = 0; ///< own + resolved callees (when known)
};

/** Statistics of one memory-safety run (the `--range` report). */
struct RangeReport
{
    std::string unit;
    size_t items = 0;          ///< unit items
    size_t reachable_items = 0;
    size_t functions = 0;
    size_t checked_refs = 0;   ///< memory references range-checked
    size_t checked_alu = 0;    ///< overflow-checked ALU pieces
    size_t must_findings = 0;  ///< error-severity MS findings
    size_t may_findings = 0;   ///< warning-severity MS findings
    size_t widenings = 0;
    size_t iterations = 0;
    uint32_t stack_budget = 0; ///< 0 = MS005 disabled
    std::vector<StackDepthInfo> stack;
};

/**
 * Run the value-range analysis and every MS check over a built CFG +
 * call graph, reporting findings to `diags` (may be null to collect
 * statistics only).
 */
RangeReport checkMemorySafety(const Cfg &cfg, const CallGraph &graph,
                              const RangeCheckOptions &options,
                              const std::string &unit_name,
                              DiagnosticEngine *diags);

/** Human rendering: run statistics plus the per-function stack table. */
std::string rangeText(const RangeReport &report);

/** Machine rendering (`"schema": 1`): statistics, budget, and the
 *  per-function stack array. */
std::string rangeJson(const RangeReport &report);

/** Publish verify.range.* counters for one computed report. */
void publishRangeMetrics(const RangeReport &report);

// ------------------------------------------------- simulator oracle

/** Exception-cause codes mirrored from sim::Cause (mipsverify's main
 *  static-asserts the match) so this layer stays simulator-free. */
constexpr uint8_t kFaultOverflow = 4;
constexpr uint8_t kFaultPageFault = 5;
constexpr uint8_t kFaultAddressError = 6;

/** One dynamically observed fault, from sim::Cpu::faultEvents(). */
struct ObservedFault
{
    uint8_t cause = 0; ///< kFault* code
    uint32_t pc = 0;   ///< restart address of the faulting item
    uint32_t addr = 0; ///< faulting address (memory faults)
};

/** Outcome of matching dynamic faults against static findings. */
struct FaultCoverage
{
    size_t events = 0;  ///< faults observed by the simulator
    size_t covered = 0; ///< matched by a MUST or MAY finding
    size_t exempt = 0;  ///< page faults (residency is OS state)
    std::vector<std::string> notes; ///< one line per uncovered event

    bool ok() const { return covered + exempt == events; }
};

/**
 * Check that every observed fault is predicted by a finding: an
 * overflow event needs MS004 at the faulting item; an address error
 * needs MS001/MS003/MS006 at the item (a unit-level MS006 or, for a
 * fault whose restart address lies outside the unit, any finding of
 * the family covers it). Page faults are exempt.
 */
FaultCoverage checkFaultCoverage(const std::vector<Diagnostic> &diags,
                                 uint32_t origin, size_t items,
                                 const std::vector<ObservedFault> &faults);

} // namespace mips::verify
