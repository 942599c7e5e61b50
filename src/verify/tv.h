/**
 * @file
 * Translation validation for the reorganizer.
 *
 * The reorganizer's correctness contract (reorganizer.h) was so far
 * only *tested* differentially: run the input on the functional
 * machine, the output on the pipeline, compare a sample of results.
 * This module upgrades the contract to a per-unit *proof*: for every
 * reorganized unit it symbolically executes the legal input under
 * sequential semantics and the reorganized output under pipeline
 * semantics (symexec.h) and proves the two leave identical
 * architectural state — for all register values, not a sample.
 *
 * The proof is region-modular. Both units are cut at the input unit's
 * labels and at fenced (.noreorder / data) runs; matching regions are
 * executed from a common fully-symbolic entry state and every exit is
 * compared: same exit kind and target, same branch condition, same
 * general registers (modulo taken-path liveness at conditional exits,
 * which licenses the paper's scheme-3 hoisting), same LO, same memory
 * store log (modulo provably-disjoint reordering), same system-state
 * effect log. Scheme-2 duplications are handled through the
 * reorganizer's DupHint provenance: a retargeted transfer is proven
 * correct by replaying the duplicated words on the input side and
 * comparing full states, plus a separate region proof for the
 * retargeted continuation.
 *
 * Every divergence is a TV001-TV006 ERROR. When the validator cannot
 * decide (expression budget, unsupported construct), it reports a
 * TV090 "TV-UNKNOWN" NOTE — never a silent pass.
 */
#pragma once

#include <vector>

#include "asm/unit.h"
#include "reorg/reorganizer.h"
#include "verify/symexec.h"
#include "verify/verify.h"

namespace mips::verify {

/** Knobs for one validation run. */
struct TvOptions
{
    /** Must match the alias discipline the reorganizer ran with. */
    reorg::AliasOptions alias;
    SymLimits limits;
};

/**
 * Prove `output` (pipeline semantics) equivalent to `input`
 * (sequential semantics). `hints` is the reorganizer's scheme-2
 * provenance (ReorgResult::hints) and `live_in` its live-in masks of
 * the input's blocks (ReorgResult::live_in, or reorg::blockLiveIn of
 * the input when it was not reorganized here). Diagnostics are
 * located in the output unit; TV090 notes mark regions that are *not
 * proven*.
 */
VerifyReport
validateTranslation(const assembler::Unit &input,
                    const assembler::Unit &output,
                    const std::vector<reorg::DupHint> &hints,
                    const std::vector<reorg::BlockLiveIn> &live_in,
                    const TvOptions &options = TvOptions{});

} // namespace mips::verify
