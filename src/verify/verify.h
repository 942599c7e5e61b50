/**
 * @file
 * mipsverify: static verification of pipeline-targeted code.
 *
 * The paper's machine has *no* interlock hardware (Section 4.2.1):
 * "the burden of correctness falls entirely on the software", and a
 * reorganizer bug silently computes wrong answers instead of faulting.
 * This module is the trust layer for that contract. Given an assembled
 * Unit that is *meant to run on the pipeline* (reorganizer output, or
 * hand-scheduled code), it builds the delay-slot-aware CFG, runs the
 * dataflow framework, and checks every clause of the software
 * interlock contract statically:
 *
 *  - **HZ001** load-delay violations — a register read in the delay
 *    slot of the load that writes it (the hardware serves the stale
 *    value);
 *  - **HZ002/HZ003** transfer-in-shadow violations — a branch or jump
 *    in the delay slot(s) of another transfer (architecturally
 *    undefined; the simulator stops with an error);
 *  - **HZ004** packed-word violations — dependent ALU and memory
 *    pieces sharing one word;
 *  - **HZ005** `.noreorder` integrity — regions the front end fenced
 *    off must survive reorganization verbatim;
 *  - **HZ006** unverifiable load delays escaping into unknown code;
 *
 * plus lint findings (LT001 possibly-uninitialized read, LT002 dead
 * store, LT003 unreachable code) and structural checks (VF001 invalid
 * word, VF002 undefined label, VF005 label defined twice).
 *
 * Inside `.noreorder` regions, load-delay and packed-dependence
 * findings are *notes*, not errors: the stale-value semantics are
 * well defined and the front end may exploit them deliberately.
 * Transfer-in-shadow findings stay errors everywhere — no software
 * contract makes those defined.
 *
 * Used three ways: as a library (verifyUnit / verifyReorganization),
 * as the `mipsverify` CLI, and as an invariant oracle in the test
 * suite, where every reorganized unit must verify clean and injected
 * hazard mutations must be caught.
 */
#pragma once

#include <string>

#include "asm/unit.h"
#include "verify/diagnostics.h"

namespace mips::verify {

/** Knobs for one verification run. */
struct VerifyOptions
{
    /** Run the LT* lint passes (hazard checks always run). */
    bool lint = true;
    /**
     * GPR mask assumed written before entry. Defaults to the ABI
     * registers the runtime contract guarantees: the global pointer,
     * stack pointer, and link register.
     */
    uint16_t assume_initialized =
        (1u << 13) | (1u << 14) | (1u << 15);
    /**
     * Registers the calling convention declares callee-saved (CC001).
     * The in-tree compiler uses a caller-save convention, so the
     * default checks nothing.
     */
    uint16_t callee_saved = 0;
};

/** Outcome of a verification run. */
struct VerifyReport
{
    std::vector<Diagnostic> diagnostics;
    size_t errors = 0;
    size_t warnings = 0;
    size_t notes = 0;

    /** No contract violations (warnings and notes allowed). */
    bool clean() const { return errors == 0; }

    /** Number of diagnostics carrying `code`. */
    size_t countOf(Code code) const;
};

/**
 * Statically verify a pipeline-targeted unit against the software
 * interlock contract. The unit may still have symbolic targets
 * (pre-link) or numeric ones (post-link): both resolve.
 */
VerifyReport verifyUnit(const assembler::Unit &unit,
                        const VerifyOptions &options = VerifyOptions{});

/**
 * Verify a reorganization end to end: the output unit must satisfy
 * the interlock contract (verifyUnit) *and* every `.noreorder` region
 * of `input` must appear in `output` verbatim and in order (HZ005).
 */
VerifyReport
verifyReorganization(const assembler::Unit &input,
                     const assembler::Unit &output,
                     const VerifyOptions &options = VerifyOptions{});

/**
 * Strict mode: upgrade every NOTE to an ERROR in place (used by
 * `mipsverify --strict`, where e.g. a TV090 "not proven" note must
 * fail the gate instead of merely warning).
 */
void promoteNotesToErrors(VerifyReport *report);

/** Render a report as human-readable text (one line per finding). */
std::string reportText(const VerifyReport &report,
                       const assembler::Unit &unit,
                       const std::string &name);

/**
 * Render a report as a machine-readable JSON object. A non-negative
 * `elapsed_ms` is included as per-unit wall time.
 */
std::string reportJson(const VerifyReport &report,
                       const std::string &name,
                       double elapsed_ms = -1.0);

} // namespace mips::verify
