/**
 * @file
 * The differential driver: one generated program, every config,
 * every oracle.
 *
 * The repo's correctness story is a stack of independent trust
 * layers — static hazard verification, symbolic translation
 * validation, static-vs-dynamic cost parity, the value-range
 * memory-safety analysis, and the interlocked functional machine as
 * an executable oracle. The fuzzer's job is to point all of them at
 * the same generated program under every configuration the toolchain
 * supports and demand agreement:
 *
 *  - **Pascal** programs run the full pipeline matrix: word vs byte
 *    layout, jump tables on/off, and each reorganizer stage toggled
 *    (`--no-reorder` / `--no-pack` / `--no-fill-delay` analogues).
 *    Every configuration must hazard-verify clean, prove equivalent
 *    under strict TV (notes are failures), pass the value-range and
 *    cost-parity oracles, halt on the pipeline simulator, and print
 *    exactly what the functional (CC-baseline) machine prints.
 *  - **Assembly** units skip the front end: the unit is reorganized
 *    under each stage-toggle configuration, verified, validated,
 *    and run; the console output *and* a dedicated result block in
 *    memory (kResultBase in generator.cc) must match the functional
 *    run of the legal input under every configuration.
 *
 * Both kinds run one config loop against the Session (`Source` says
 * which language the text is), and the functional baseline runs once
 * per distinct legal unit. A clean result means every layer agreed
 * everywhere. A mismatch carries the first failing (config, layer)
 * pair; the minimizer (minimize.h) shrinks the program while that
 * predicate still trips.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "pipeline/session.h"
#include "reorg/reorganizer.h"

namespace mips::fuzz {

/** One cell of the configuration matrix. */
struct FuzzConfig
{
    std::string tag; ///< e.g. "word+jt", "byte+jt", "word+jt-pack"
    plc::Layout layout = plc::Layout::WORD_ALLOCATED;
    bool jump_tables = true;
    reorg::ReorgOptions reorg;
};

/** The Pascal matrix: layouts x lowerings x reorganizer toggles. */
std::vector<FuzzConfig> pascalMatrix();

/** The assembly matrix: reorganizer stage toggles only (layout and
 *  case lowering are front-end knobs with no meaning for raw asm). */
std::vector<FuzzConfig> asmMatrix();

/** Driver knobs. Every oracle always runs; cost parity, which reads
 *  the profile of the Session's simulate stage, runs for Pascal
 *  only. */
struct DiffOptions
{
    uint64_t max_cycles = 50'000'000;
    /** Test-only reorganizer fault injection, applied to every
     *  config. The minimizer tests drive this to prove a planted bug
     *  is caught and survives shrinking. */
    reorg::ReorgBugs bugs;
};

/** Outcome of one program's differential run. */
struct DiffResult
{
    std::string name;
    bool ok = true;
    /** The program itself failed to compile/assemble/link — a
     *  generator defect, not an oracle disagreement. */
    bool front_end_error = false;
    size_t configs = 0;  ///< configurations fully checked
    std::string failure; ///< "<config>: <layer>: detail"; empty if ok

    /** An oracle disagreement (what the fuzzer exists to find). */
    bool mismatch() const { return !ok && !front_end_error; }
};

/**
 * Run one generated program through every matrix configuration with
 * every oracle enabled. Thread-safe, so concurrent calls may share a
 * Session; `mipsverify --fuzz` gives each program its own, since only
 * one program's configs ever share artifacts.
 */
DiffResult runDifferential(pipeline::Session &session,
                           const GeneratedProgram &program,
                           const DiffOptions &options = DiffOptions{});

} // namespace mips::fuzz
