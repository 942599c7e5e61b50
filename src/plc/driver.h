/**
 * @file
 * One-call driver: Pascal-like source → reorganized, linked MIPS
 * executable, mirroring the paper's tool chain (compiler front end →
 * code generator → reorganizer post-pass → linked image).
 */
#pragma once

#include "asm/unit.h"
#include "plc/codegen.h"
#include "plc/optimize.h"
#include "reorg/reorganizer.h"

namespace mips::plc {

/** A ready-to-run program plus build metadata. */
struct Executable
{
    assembler::Program program;  ///< linked, pipeline-correct image
    assembler::Unit legal_unit;  ///< peephole-optimized legal code
    assembler::Unit final_unit;  ///< post-reorganization unit
    reorg::ReorgStats reorg_stats;
    /** Scheme-2 provenance, for the translation validator. */
    std::vector<reorg::DupHint> tv_hints;
    PeepholeStats peephole;
};

/** Compile, reorganize, and link. */
support::Result<Executable>
buildExecutable(std::string_view source,
                const CompileOptions &compile_options = CompileOptions{},
                const reorg::ReorgOptions &reorg_options =
                    reorg::ReorgOptions{});

} // namespace mips::plc
