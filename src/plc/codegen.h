/**
 * @file
 * MIPS code generation for the Pascal-like language.
 *
 * The generator emits *legal code* (sequential semantics, one piece
 * per word): scheduling, packing, and delay-slot filling belong to the
 * reorganizer post-pass, exactly as the paper divides the work.
 *
 * Conventions:
 *  - r0 zero; r1..r8 expression evaluation stack; r9 code-generator
 *    scratch; r10..r13 runtime-routine arguments and scratch;
 *    r14 stack pointer; r15 link.
 *  - Frames grow downward; slot 0 holds the saved link, then
 *    parameters (stored from r1..r4 in the prologue), locals, the
 *    function-result slot, then spill/loop temporaries.
 *  - Multiplication, division, modulo, and decimal output lower to
 *    runtime routines ($mul, $div, $mod, $writeint) appended to every
 *    unit; division is built from the ISA's divide-step.
 *  - Byte-packed array elements use the paper's exact sequences:
 *    load: ld (base+i>>2) ; xc i — store: ld ; mtlo ; ic ; st.
 *  - Every load/store that implements a *logical* data reference
 *    carries a reference annotation (8- or 32-bit, character or not)
 *    used by the Table 7/8 experiments; helper accesses (the
 *    read-modify-write word load of a byte store, spills, address
 *    temporaries) are unannotated.
 */
#pragma once

#include "asm/unit.h"
#include "plc/sema.h"

namespace mips::plc {

/** Compilation options. */
struct CompileOptions
{
    Layout layout = Layout::WORD_ALLOCATED;
    /** Lower dense CASE statements to jump tables (`jtab`); when
     *  false every CASE becomes a branch chain. */
    bool jump_tables = true;
};

/**
 * Generate code for an analyzed program: legal code (run the
 * reorganizer before the pipeline machine). `sema` must come from
 * analyze() on the same (annotated) AST.
 */
support::Result<assembler::Unit> generateCode(const ProgramAst &program,
                                              const SemaResult &sema,
                                              const CompileOptions &options);

/** Parse + analyze + generate in one call. */
support::Result<assembler::Unit> compile(std::string_view source,
                                         const CompileOptions &options =
                                             CompileOptions{});

} // namespace mips::plc
