/**
 * @file
 * paper_tables — regenerate the paper's evaluation in one run.
 *
 *   paper_tables    print Tables 1-11, Figures 1-3, Figure 4, the
 *                   free-memory-cycle study and the dispatch study,
 *                   in that order, each followed by one blank line
 *
 * Every table places the paper's published value next to ours. The
 * output is deterministic (cycle counts come from the simulator, not
 * from clocks), so the `check_paper_tables` ctest diffs it against
 * tests/golden/paper_tables.txt byte for byte.
 */
#include <cstdio>
#include <string>

#include "core/experiments.h"

using namespace mips::tradeoff;

namespace {

/** Print the rendered table followed by a blank line. */
void
printTable(const std::string &table)
{
    std::fputs(table.c_str(), stdout);
    std::fputs("\n", stdout);
}

} // namespace

int
main()
{
    printTable(runTable1().table);
    printTable(runTable2());
    printTable(runTable3().table);
    printTable(runTable4().table);
    printTable(runTable5().table);
    printTable(runTable6(false).table);
    std::puts("With the paper's published mix "
              "(1.66 ops/expr, 80.9% jumps):");
    printTable(runTable6(true).table);
    printTable(runTable7().table);
    printTable(runTable8().table);
    printTable(runTable9(0.15).table);
    printTable(runTable9(0.20).table);
    printTable(runTable10(0.15).table);
    printTable(runTable10(0.20).table);
    std::puts("Crossover check: with zero hardware overhead, byte "
              "addressing wins:");
    printTable(runTable10(0.0).table);
    printTable(runTable11().table);
    printTable(runFigures1to3());
    printTable(runFigure4());
    printTable(runFreeCycles().table);
    printTable(runDispatchStudy().table);
    return 0;
}
