/**
 * @file
 * The full tool chain on a Pascal-like program: compile, peephole,
 * reorganize, link, execute — with the intermediate artifacts printed
 * so the hardware/software division of labour is visible. The stages
 * come from a pipeline::Session: `compile` holds the legal unit and
 * the peephole statistics, `reorganize` the reorganizer statistics
 * and the linked program.
 */
#include <cstdio>
#include <sstream>
#include <string>

#include "pipeline/session.h"
#include "sim/machine.h"

int
main()
{
    const char *source =
        "program primes;\n"
        "const limit = 50;\n"
        "var sieve: array [2..50] of boolean;\n"
        "    i, j, count: integer;\n"
        "begin\n"
        "  for i := 2 to limit do sieve[i] := true;\n"
        "  i := 2;\n"
        "  while i * i <= limit do begin\n"
        "    if sieve[i] then begin\n"
        "      j := i * i;\n"
        "      while j <= limit do begin\n"
        "        sieve[j] := false;\n"
        "        j := j + i;\n"
        "      end;\n"
        "    end;\n"
        "    i := i + 1;\n"
        "  end;\n"
        "  count := 0;\n"
        "  for i := 2 to limit do\n"
        "    if sieve[i] then count := count + 1;\n"
        "  writeint(count);\n"
        "end.\n";

    mips::pipeline::Session session;
    auto reorganized = session.reorganize(source);
    if (!reorganized.ok()) {
        std::fprintf(stderr, "compile error: %s\n",
                     reorganized.error().str().c_str());
        return 1;
    }
    if (reorganized.value()->link_error) {
        std::fprintf(stderr, "link error: %s\n",
                     reorganized.value()->link_error->str().c_str());
        return 1;
    }
    // A cache hit: reorganize compiled the source first.
    auto compiled = session.compile(source);

    std::printf("=== source (sieve of Eratosthenes) ===\n%s\n", source);
    std::printf("=== first 24 lines of legal code (after peephole) ===\n");
    std::istringstream listing(
        mips::assembler::listUnit(compiled.value()->legal_unit));
    std::string line;
    for (int i = 0; i < 24 && std::getline(listing, line); ++i)
        std::printf("%s\n", line.c_str());
    std::printf("\n=== build statistics ===\n");
    std::printf("redundant loads eliminated: %zu\n",
                compiled.value()->peephole.loads_eliminated);
    const mips::reorg::ReorgStats &rs = reorganized.value()->stats;
    std::printf("reorganizer: %zu -> %zu words, %zu no-ops, "
                "%zu packed, %zu/%zu/%zu slots (move/dup/hoist)\n",
                rs.input_words, rs.output_words, rs.noops_inserted,
                rs.packed_words, rs.slots_filled_move,
                rs.slots_filled_dup, rs.slots_filled_hoist);

    mips::sim::Machine machine;
    machine.load(reorganized.value()->program);
    if (machine.cpu().run() != mips::sim::StopReason::HALT) {
        std::fprintf(stderr, "run failed: %s\n",
                     machine.cpu().errorMessage().c_str());
        return 1;
    }
    std::printf("\n=== execution ===\n");
    std::printf("console output: %s (primes below 50: expect 15)\n",
                machine.memory().consoleOutput().c_str());
    std::printf("cycles: %llu, loads: %llu, stores: %llu, "
                "branches taken: %llu\n",
                static_cast<unsigned long long>(
                    machine.cpu().stats().cycles),
                static_cast<unsigned long long>(
                    machine.cpu().stats().loads),
                static_cast<unsigned long long>(
                    machine.cpu().stats().stores),
                static_cast<unsigned long long>(
                    machine.cpu().stats().branches_taken));
    return machine.memory().consoleOutput() == "15" ? 0 : 1;
}
