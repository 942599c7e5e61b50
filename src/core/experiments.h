/**
 * @file
 * The public experiment API: one driver per paper table/figure.
 *
 * Each driver runs the relevant substrates (corpus, compiler,
 * reorganizer, simulators, condition-code baseline) and returns both
 * the raw numbers and a rendered paper-style table that places our
 * measurement next to the paper's published value. The paper_tables
 * binary prints every table in the paper's order; tests assert the
 * qualitative shape (who wins, roughly by how much, where crossovers
 * fall).
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "ccm/cost.h"
#include "plc/sema.h"
#include "reorg/reorganizer.h"
#include "workload/analyzers.h"

namespace mips::tradeoff {

// ------------------------------------------------------------- Table 1

struct Table1Result
{
    workload::ConstantDist dist;
    std::string table;

    /** Fraction of constants expressible as a 4-bit inline constant. */
    double coveredByImm4() const;
    /** Fraction covered by the 8-bit move immediate. */
    double coveredByImm8() const;
};

Table1Result runTable1();

// ------------------------------------------------------------- Table 2

/** The condition-code taxonomy (qualitative). */
std::string runTable2();

// ------------------------------------------------------------- Table 3

struct Table3Result
{
    workload::CcSavings savings;
    std::string table;
};

Table3Result runTable3();

// ------------------------------------------------------------- Table 4

struct Table4Result
{
    workload::BoolExprShape shape;
    std::string table;
};

Table4Result runTable4();

// ------------------------------------------------------------- Table 5

struct Table5Row
{
    std::string style;
    ccm::ClassCounts static_counts;  ///< per boolean operator
    ccm::ClassCounts dynamic_counts; ///< per boolean operator
};

struct Table5Result
{
    std::vector<Table5Row> rows;
    std::string table;
};

Table5Result runTable5();

// ------------------------------------------------------------- Table 6

struct Table6Row
{
    std::string style;
    ccm::Table6Entry entry;
};

struct Table6Result
{
    ccm::ExprMix mix; ///< measured from the corpus (Table 4)
    std::vector<Table6Row> rows;
    double improvement_cond_set = 0;  ///< vs branch-only full
    double improvement_set_cond = 0;  ///< vs branch-only full
    std::string table;
};

Table6Result runTable6(bool use_paper_mix = false);

// ------------------------------------------------------- Tables 7 and 8

struct RefPatternResult
{
    workload::RefPattern refs;
    double free_bandwidth = 0;
    std::string table;
};

RefPatternResult runTable7(); ///< word-allocated corpus
RefPatternResult runTable8(); ///< byte-allocated corpus

// ------------------------------------------------------------- Table 9

/** Cycle cost of one logical operation under three machine models. */
struct Table9Row
{
    std::string operation;
    double cost_byte_machine = 0;   ///< byte-addressed, no overhead
    double cost_byte_overhead = 0;  ///< with the fetch-path overhead
    double cost_mips = 0;           ///< word-addressed MIPS sequences
};

struct Table9Result
{
    double overhead = 0;            ///< critical-path overhead factor
    std::vector<Table9Row> rows;
    std::string table;
};

/**
 * Measure the paper's Table 9 operations. MIPS costs come from
 * assembling the actual instruction sequences and weighting memory
 * instructions at 4 cycles and ALU instructions at 1 (the paper's
 * assumption that "the cost of an instruction is equal to the number
 * of clock cycles needed to execute that instruction"); the
 * byte-addressed machine pays `overhead` (15-20%, Section 4.1) on
 * every reference.
 */
Table9Result runTable9(double overhead = 0.15);

// ------------------------------------------------------------ Table 10

struct Table10Result
{
    double overhead = 0;
    /** Mean cost per logical reference on each machine, per layout. */
    double word_machine_cost[2] = {0, 0}; ///< [word-alloc, byte-alloc]
    double byte_machine_cost[2] = {0, 0};
    /** Byte-addressing penalty per layout (positive: word wins). */
    double penalty[2] = {0, 0};
    std::string table;
};

Table10Result runTable10(double overhead = 0.15);

// ------------------------------------------------------------ Table 11

struct Table11Program
{
    std::string name;
    size_t none = 0;        ///< no-ops inserted only
    size_t reorganized = 0; ///< + scheduling
    size_t packed = 0;      ///< + piece packing
    size_t branch_delay = 0;///< + delay-slot filling
    std::string output;     ///< console output (correctness check)

    double
    totalImprovement() const
    {
        return none ? 1.0 - static_cast<double>(branch_delay) /
                            static_cast<double>(none) : 0.0;
    }
};

struct Table11Result
{
    std::vector<Table11Program> programs;
    std::string table;
};

Table11Result runTable11();

// ------------------------------------------------------- Figures 1-3

/** Rendered code sequences with static/dynamic counts. */
std::string runFigures1to3();

// ---------------------------------------------------------- Figure 4

/** The reorganization example: legal code vs no-ops vs reorganized. */
std::string runFigure4();

// ----------------------------------------------- Dispatch tradeoff

/** One program measured under both CASE lowerings. */
struct DispatchMeasurement
{
    std::string name;
    size_t chain_words = 0;    ///< static unit words, branch chain
    size_t table_words = 0;    ///< static unit words, jump table
    uint64_t chain_cycles = 0; ///< pipeline cycles, branch chain
    uint64_t table_cycles = 0; ///< pipeline cycles, jump table
    std::string output;        ///< console output (identical either way)

    /** Cycle improvement of the table lowering (negative: chain wins). */
    double
    tableSpeedup() const
    {
        return chain_cycles
                   ? 1.0 - static_cast<double>(table_cycles) /
                               static_cast<double>(chain_cycles)
                   : 0.0;
    }
};

struct DispatchResult
{
    /** The dispatch-heavy corpus programs. */
    std::vector<DispatchMeasurement> programs;
    /** Synthetic sweep: a dense CASE of N arms in a hot loop. */
    std::vector<DispatchMeasurement> density;
    std::string table;
};

/**
 * The jump-table tradeoff study, in the paper's hardware/software
 * style: the indirect-jump ISA extension buys smaller, flatter
 * dispatch at the price of a table fetch and two delay slots. Static
 * words and dynamic pipeline cycles are measured per program under
 * both lowerings, plus a synthetic arm-count sweep locating the
 * chain-vs-table crossover.
 */
DispatchResult runDispatchStudy();

// ------------------------------------------- Free memory cycles (§3.1)

struct FreeCyclesResult
{
    double corpus_free = 0;    ///< corpus programs
    double benchmark_free = 0; ///< fib + puzzles
    std::string table;
};

FreeCyclesResult runFreeCycles();

} // namespace mips::tradeoff
