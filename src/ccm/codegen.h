/**
 * @file
 * Boolean-expression code generation under the paper's four
 * architectural styles (Section 2.3.2, Tables 5/6, Figures 1-3):
 *
 *  - SET_CONDITIONALLY: MIPS. No condition codes; a set-conditionally
 *    instruction with the full 16-comparison repertoire materialises
 *    leaf values, ALU ops combine them. No branches.
 *  - CC_COND_SET: a condition-code machine with conditional-set
 *    (M68000's Scc): cmp sets the codes, Scc reads them.
 *  - CC_BRANCH_FULL: condition codes reachable only through branches
 *    (VAX-style), full evaluation of every operand.
 *  - CC_BRANCH_EARLY_OUT: same machine, short-circuit evaluation.
 *
 * Generated code is a small abstract instruction list with a class
 * per instruction (compare / register / branch) matching the paper's
 * Table 5 columns, plus an executor that yields expected dynamic
 * counts by enumerating independent leaf outcomes.
 */
#pragma once

#include <string>
#include <vector>

#include "ccm/boolexpr.h"

namespace mips::ccm {

/** The four architectural styles of Table 5. */
enum class Style
{
    SET_CONDITIONALLY,   ///< MIPS: no CC, set-conditionally
    CC_COND_SET,         ///< CC + conditional set (M68000)
    CC_BRANCH_FULL,      ///< CC + branch only, full evaluation
    CC_BRANCH_EARLY_OUT, ///< CC + branch only, early-out
};

/** Paper-facing style name. */
std::string styleName(Style style);

/** What the expression's value feeds (Table 4's two destinations). */
enum class Context
{
    STORE, ///< assigned to a variable
    JUMP,  ///< controls a conditional branch
};

/** Instruction classes counted in Table 5. */
enum class CcClass
{
    COMPARE,
    REGISTER,
    BRANCH,
};

/** One abstract instruction. */
struct CcInst
{
    enum class Op
    {
        LOAD_CONST, ///< rd := const                      (REGISTER)
        MOVE,       ///< rd := rs                         (REGISTER)
        ALU,        ///< rd := rs <alu> rt  (or/and/xor)  (REGISTER)
        STORE_VAR,  ///< var := rs                        (REGISTER)
        COMPARE,    ///< cmp a, b: set CC                 (COMPARE)
        TEST,       ///< cmp rs, 0: set CC from register  (COMPARE)
        SET_COND,   ///< rd := CC satisfies rel           (REGISTER)
        SET_FULL,   ///< rd := (a rel b), MIPS style      (COMPARE)
        BRANCH_CC,  ///< branch to label if CC rel        (BRANCH)
        CMP_BRANCH, ///< MIPS compare-and-branch          (BRANCH)
        BRANCH_ALWAYS, ///< unconditional                 (BRANCH)
        LABEL,      ///< no instruction; branch target
    };

    Op op = Op::LABEL;
    CcClass cls = CcClass::REGISTER;
    isa::Cond rel = isa::Cond::ALWAYS;
    int rd = -1, rs = -1, rt = -1; ///< abstract registers
    Leaf cmp;                      ///< COMPARE/SET_FULL/CMP_BRANCH
    int32_t constant = 0;          ///< LOAD_CONST
    int label = -1;                ///< branch target / LABEL id
    std::string var;               ///< STORE_VAR destination
    char alu = '|';                ///< ALU: '|', '&', '^'

    /** Assembly-flavoured rendering for Figures 1-3. */
    std::string str() const;
};

/** A generated sequence plus its entry metadata. */
struct CcProgram
{
    Style style = Style::SET_CONDITIONALLY;
    Context context = Context::STORE;
    std::vector<CcInst> insts;

    /** Label id used for the JUMP context's taken destination. */
    int jump_target = -1;

    /** Static instruction count (labels excluded). */
    int staticCount() const;

    /** Static count of one class. */
    int staticCount(CcClass cls) const;

    /** Listing for Figures 1-3. */
    std::string listing() const;
};

/** Per-class counts (used for both static and dynamic tallies). */
struct ClassCounts
{
    double compare = 0;
    double reg = 0;
    double branch = 0;

    double total() const { return compare + reg + branch; }

    /** Weighted cost with the paper's Table 6 timing assumptions. */
    double
    cost(double reg_time = 1, double cmp_time = 2,
         double branch_time = 4) const
    {
        return compare * cmp_time + reg * reg_time +
               branch * branch_time;
    }
};

/**
 * Generate code for `expr` in `context` under `style`. The STORE
 * context ends with a store to "Found"; the JUMP context ends with
 * (or consists of) branches to a target label.
 */
CcProgram generate(const BoolExpr &expr, Style style, Context context);

/** Static per-class counts of a program. */
ClassCounts staticCounts(const CcProgram &prog);

/**
 * Expected dynamic per-class counts, averaging over all 2^n
 * assignments of independent leaf outcomes (leaves must use distinct
 * variables, as orChain() and paperExample() arrange).
 */
ClassCounts expectedDynamicCounts(const CcProgram &prog,
                                  const BoolExpr &expr);

/**
 * Execute with a concrete environment; returns per-class executed
 * counts and (via out-params) the expression value the generated code
 * computed — used to verify generator correctness against eval().
 */
ClassCounts execute(const CcProgram &prog,
                    const std::map<std::string, int32_t> &env,
                    bool *result);

} // namespace mips::ccm
