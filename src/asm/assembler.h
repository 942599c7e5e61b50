/**
 * @file
 * Textual assembler for the MIPS-82 ISA: parse() lexes each line and
 * its operands and hands them to the instruction builder
 * (asm/builder.h), which expands and range-checks every mnemonic.
 *
 * Syntax (sources first, destination last, matching the paper's
 * examples like "sub #1, r0, r2" and "ld 2(sp), r0"):
 *
 *   label:  add r1, #3, r2        ; r2 = r1 + 3
 *           rsub r1, #1, r2       ; r2 = 1 - r1 (reverse operator)
 *           movi #200, r3         ; 8-bit move immediate
 *           seteq r1, r2, r4      ; set conditionally
 *           ld 2(r13), r5         ; displacement load
 *           st r5, (r1+r2>>2)     ; base-shifted store (packed bytes)
 *           ldi #70000, r6        ; 21-bit long immediate
 *           xc r0, r5, r5         ; extract byte (ptr, word, dest)
 *           mtlo r0 | ic r3, r5   ; byte insert via LO selector
 *           beq r1, #0, done      ; compare-and-branch (16 conds)
 *           bra loop              ; unconditional branch
 *           jmp (r15)             ; indirect jump (2 delay slots)
 *           call fib, r15         ; direct call, link in r15
 *           trap #9               ; monitor call
 *           halt
 *
 * Two pieces joined with " | " share one packed word (validated
 * against the packed format). Pseudo-instructions: "mov rs, rd",
 * "li #imm, rd" (which picks movi/ldi) and "la label, rd".
 *
 * Directives: .org N, .word N, .space N, .asciiw "text" (packs four
 * 8-bit characters per 32-bit word, zero terminated), .noreorder /
 * .reorder (fence the reorganizer out, as the paper's front end does
 * for sequences it schedules itself).
 *
 * Comments run from ';' to end of line.
 */
#pragma once

#include <string_view>

#include "asm/unit.h"

namespace mips::assembler {

/** Parse assembly text into a Unit (symbolic targets unresolved). */
support::Result<Unit> parse(std::string_view source);

/** parse() followed by link(). */
support::Result<Program> assemble(std::string_view source);

/** assemble() that panics with the error message on failure. */
Program assembleOrDie(std::string_view source);

} // namespace mips::assembler
