/**
 * @file
 * Static and dynamic workload analyzers backing Tables 1, 3, 4, 7, 8
 * and the free-memory-cycle study.
 */
#pragma once

#include <string>
#include <vector>

#include "asm/unit.h"
#include "plc/ast.h"
#include "plc/sema.h"
#include "support/stats.h"

namespace mips::sim {
class Cpu;
}

namespace mips::workload {

// ------------------------------------------------ Table 1: constants

/** Constant-magnitude distribution (paper buckets). */
struct ConstantDist
{
    support::BucketDist dist{{"0", "1", "2", "3-15", "16-255", ">255"}};
};

/**
 * Collect every integer and character constant appearing in the
 * program (literals in expressions and statements plus declared
 * constants), bucketed by absolute value as in Table 1. Character
 * constants land in the 16-255 bucket, which is exactly the paper's
 * observation about that bucket's population.
 */
void collectConstants(const plc::ProgramAst &program, ConstantDist *out);

// ------------------------------------ Table 4: boolean expressions

/** Shape statistics for boolean expressions. */
struct BoolExprShape
{
    uint64_t expressions = 0;
    uint64_t operators = 0;   ///< relational + and/or/not operators
    uint64_t ending_jump = 0; ///< conditions of if/while/repeat
    uint64_t ending_store = 0;///< boolean-valued assignments

    double
    meanOperators() const
    {
        return expressions
            ? static_cast<double>(operators) /
              static_cast<double>(expressions) : 0.0;
    }

    double
    fracJump() const
    {
        uint64_t total = ending_jump + ending_store;
        return total ? static_cast<double>(ending_jump) /
                       static_cast<double>(total) : 0.0;
    }
};

/**
 * Walk the AST collecting top-level boolean expressions: statement
 * conditions count as ending in jumps, boolean-typed assignment
 * sources as ending in stores. Operators counted are relational
 * comparisons plus and/or/not, so a bare comparison is one operator
 * (the paper's mean of 1.66 is over the same population).
 * The AST must already be analyzed (types resolved).
 */
void collectBoolExprs(const plc::ProgramAst &program, BoolExprShape *out);

// -------------------------------------- Table 3: condition-code savings

/** Counts for the compares-saved-by-condition-codes analysis. */
struct CcSavings
{
    uint64_t compares = 0;          ///< compare-and-branch + set
    uint64_t saved_by_ops = 0;      ///< zero-compare of a value the
                                    ///< previous ALU op just computed
    uint64_t saved_with_moves = 0;  ///< additionally counting values
                                    ///< just moved or loaded
    uint64_t moves_for_cc = 0;      ///< loads/moves feeding only such
                                    ///< a zero-compare

    double
    fracSavedByOps() const
    {
        return compares ? static_cast<double>(saved_by_ops) /
                          static_cast<double>(compares) : 0.0;
    }

    double
    fracSavedWithMoves() const
    {
        return compares ? static_cast<double>(saved_with_moves) /
                          static_cast<double>(compares) : 0.0;
    }
};

/**
 * Scan compiled legal code for comparisons a condition-code machine
 * would get "for free": a compare of a register against zero placed
 * immediately after the instruction computing that register. When the
 * producer is an arithmetic/logical operation, a CC machine that sets
 * codes on operations saves the compare; when it is a move or load,
 * only a machine that also sets codes on moves (the VAX) saves it.
 */
void collectCcSavings(const assembler::Unit &unit, CcSavings *out);

// ------------------------------ Tables 7/8: data reference patterns

/** Dynamic logical data-reference counts by size and kind. */
struct RefPattern
{
    uint64_t loads8 = 0, loads32 = 0;
    uint64_t stores8 = 0, stores32 = 0;
    uint64_t char_loads8 = 0, char_loads32 = 0;
    uint64_t char_stores8 = 0, char_stores32 = 0;

    uint64_t
    total() const
    {
        return loads8 + loads32 + stores8 + stores32;
    }

    uint64_t
    charTotal() const
    {
        return char_loads8 + char_loads32 + char_stores8 +
               char_stores32;
    }

    void
    merge(const RefPattern &other)
    {
        loads8 += other.loads8;
        loads32 += other.loads32;
        stores8 += other.stores8;
        stores32 += other.stores32;
        char_loads8 += other.char_loads8;
        char_loads32 += other.char_loads32;
        char_stores8 += other.char_stores8;
        char_stores32 += other.char_stores32;
    }
};

/** Result of executing one program with reference profiling. */
struct ProfileResult
{
    RefPattern refs;
    uint64_t cycles = 0;          ///< issued words, incl. exception code
    uint64_t free_data_cycles = 0;

    /** Fraction of data bandwidth left idle (mirrors
     *  sim::CpuStats::freeBandwidth over the merged counts). */
    double
    freeBandwidth() const
    {
        return cycles ? static_cast<double>(free_data_cycles) /
                        static_cast<double>(cycles) : 0.0;
    }
};

/**
 * Accumulate logical reference counts into `out` from the compiler's
 * per-item annotations in `final_unit`, weighted by the profiling
 * CPU's per-word execution counts (the unit must have been linked at
 * `origin` and run with profiling enabled), as the pipeline Simulate
 * stage does.
 */
void accumulateRefs(const assembler::Unit &final_unit, uint32_t origin,
                    const sim::Cpu &cpu, RefPattern *out);

} // namespace mips::workload
