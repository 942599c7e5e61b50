/**
 * @file
 * Structured diagnostics for the static verifier.
 *
 * Every finding carries a stable code (HZ* for hazard-contract
 * violations, LT* for lint findings, VF* for structural problems,
 * CC* for calling-convention violations, MS* for memory-safety
 * findings from the value-range analysis), a
 * severity, and a location (item index / word address / source line),
 * so that tools can filter and tests can assert on exact findings.
 * Rendering is split from collection: the engine accumulates plain
 * data, and renderText()/renderJson() produce the human and
 * machine-readable forms.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asm/unit.h"

namespace mips::verify {

/** Diagnostic severity, ordered from least to most serious. */
enum class Severity : uint8_t
{
    NOTE = 0,    ///< well-defined but worth a look (e.g. .noreorder
                 ///< code that deliberately reads a stale value)
    WARNING = 1, ///< suspicious or unprovable; execution is defined
    ERROR = 2,   ///< violates the software-interlock contract
};

/** Stable diagnostic codes. Codes are append-only: never renumber. */
enum class Code : uint8_t
{
    HZ001 = 0, ///< load-delay violation: stale register read
    HZ002,     ///< control transfer in a branch/direct-jump delay slot
    HZ003,     ///< control transfer in an indirect-jump delay shadow
    HZ004,     ///< dependent pieces packed into one word
    HZ005,     ///< .noreorder region altered by the reorganizer
    HZ006,     ///< load delay escapes into statically unknown code
    LT001,     ///< read of a possibly uninitialized register
    LT002,     ///< dead store: result never readable
    LT003,     ///< unreachable code
    VF001,     ///< invalid instruction word
    VF002,     ///< undefined label operand
    TV001,     ///< translation validation: register state divergence
    TV002,     ///< translation validation: memory store-log divergence
    TV003,     ///< translation validation: exit kind/target divergence
    TV004,     ///< translation validation: exit condition divergence
    TV005,     ///< translation validation: region pairing failure
    TV006,     ///< translation validation: LO/system-state divergence
    TV090,     ///< translation validation inconclusive (TV-UNKNOWN)
    CC001,     ///< clobbered callee-saved register at a return
    CC002,     ///< return-address overwrite before use
    CC003,     ///< mismatched stack adjustment across call edges
    CC004,     ///< argument register read without reaching definition
    LT004,     ///< interprocedurally-dead function
    MS001,     ///< out-of-bounds load/store (outside physical memory)
    MS002,     ///< misaligned word access via byte-pointer arithmetic
    MS003,     ///< reference into the unmapped segmentation gap
    MS004,     ///< provable signed overflow with traps enabled
    MS005,     ///< worst-case stack depth exceeds the budget
    MS006,     ///< a fault lies on every path to exit
    VF003,     ///< table-dispatch jump without a well-formed table
    VF004,     ///< jump-table entry resolves outside the unit's code
    HZ007,     ///< store in the delay shadow of a table-dispatch jump
    MS007,     ///< table-dispatch fetch may read outside its table
    TV007,     ///< translation validation: table dispatch divergence
    TV008,     ///< translation validation: table entry divergence
    VF005,     ///< label defined more than once
};

/** Number of distinct diagnostic codes. */
constexpr int kNumCodes = static_cast<int>(Code::VF005) + 1;

/** Stable textual name of a code, e.g. "HZ001". */
const char *codeName(Code code);

/** Severity name, e.g. "error". */
const char *severityName(Severity severity);

/** Sentinel for diagnostics not attached to a particular item. */
constexpr size_t kNoItem = static_cast<size_t>(-1);

/** One finding. */
struct Diagnostic
{
    Code code = Code::HZ001;
    Severity severity = Severity::ERROR;
    /** Index into Unit::items, or kNoItem for unit-wide findings. */
    size_t item_index = kNoItem;
    /** Word address (origin + index); 0 when item_index == kNoItem. */
    uint32_t pc = 0;
    /** 1-based source line of the item, 0 when unknown/synthesized. */
    int source_line = 0;
    std::string message;
};

/**
 * Collects diagnostics for one verification run. Reporting helpers
 * fill in the location fields from the unit being verified.
 */
class DiagnosticEngine
{
  public:
    explicit DiagnosticEngine(const assembler::Unit *unit = nullptr)
        : unit_(unit)
    {}

    /** Report a finding at `item_index` (or kNoItem). */
    void report(Code code, Severity severity, size_t item_index,
                std::string message);

    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    size_t errorCount() const { return counts_[2]; }
    size_t warningCount() const { return counts_[1]; }
    size_t noteCount() const { return counts_[0]; }

    /** Sort by (item index, code) for stable golden output. */
    void sort();

  private:
    const assembler::Unit *unit_;
    std::vector<Diagnostic> diags_;
    size_t counts_[3] = {0, 0, 0};
};

/** "r3, r7"-style list of the registers set in `mask`, for messages. */
std::string regListNames(uint16_t mask);

/**
 * Human rendering, one line per finding:
 *   <name>:<pc>: error: HZ001: <message>   [<listing of the word>]
 * `unit` may be null (no listing column then).
 */
std::string renderText(const std::vector<Diagnostic> &diags,
                       const assembler::Unit *unit,
                       const std::string &name);

/**
 * Machine-readable rendering: one JSON object (`"schema": 1`) with
 * the unit name, per-severity totals, a per-code `summary` count
 * block ({"HZ001": 2, ...}, codes in enum order, present codes
 * only), and a `diagnostics` array carrying code, severity, pc,
 * item index, source line, and message. When `elapsed_ms` is
 * non-negative it is included as an `elapsed_ms` field (per-unit
 * wall time, so CI can see what the gate costs).
 */
std::string renderJson(const std::vector<Diagnostic> &diags,
                       const std::string &name,
                       double elapsed_ms = -1.0);

} // namespace mips::verify
