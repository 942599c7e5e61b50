/**
 * @file
 * mipsverify — static hazard verifier, lint driver, and translation
 * validator.
 *
 *   mipsverify file.s            verify an assembly unit as-is
 *   mipsverify --reorg file.s    reorganize legal code, then verify the
 *                                output (including .noreorder integrity)
 *   mipsverify --tv file.s       reorganize, verify, and symbolically
 *                                prove the output equivalent (implies
 *                                --reorg)
 *   mipsverify --corpus          compile every embedded workload program
 *                                through the full tool chain and verify
 *                                each reorganized unit (add --tv to also
 *                                prove each one equivalent)
 *
 * Options: --jobs N (verify corpus units on N threads, 0 = auto: one
 * worker per usable core; diagnostics are buffered per unit and
 * emitted in input order, so the output is byte-identical to
 * --jobs 1 — modulo wall-clock fields, which --no-time suppresses
 * for the determinism gate), --json
 * (machine-readable report with per-unit wall time), --no-lint (hazard
 * checks only), --quiet (status only), --strict (promote notes — e.g.
 * TV090 "not proven" — to errors), --fail-fast (stop --corpus at the
 * first failing unit), --no-reorder / --no-pack / --no-fill-delay
 * (toggle individual reorganizer stages, for the per-stage validation
 * matrix in scripts/check.sh).
 *
 * Interprocedural reporting (docs/CLI.md): --cost[=json] emits the
 * static cycle-cost report (per function and per block; in --corpus
 * mode each unit also runs profiled on the simulator and the static
 * model must agree with the dynamic per-word issue counts —
 * --cost-tolerance F bounds the TRAP-block slack), and
 * --callgraph[=FILE] writes the resolved call graph as Graphviz dot
 * (single-file mode only).
 *
 * Value-range / memory-safety reporting (docs/CLI.md): --range[=json]
 * runs the interval/alignment abstract interpreter over the unit and
 * folds the MS001-MS006 findings into the verify report (the stats +
 * per-function stack table print after it), --stack-budget N enables
 * the MS005 worst-case stack-depth gate, and --range-oracle
 * (single-file only) additionally runs the linked unit on the
 * simulator and checks that every observed fault/overflow event was
 * predicted by a MUST or MAY finding — the exit status then reports
 * the coverage verdict alone, which is what the scripts/check.sh
 * simulator-as-oracle gate consumes.
 *
 * Observability (docs/METRICS.md, docs/CLI.md): --stats prints a
 * snapshot of the process-wide metrics registry after the run (as a
 * text table; --stats=json emits the {"schema":1,"metrics":[...]}
 * document instead — combine with --quiet for pure-JSON stdout),
 * --trace-out FILE enables span tracing and writes a Chrome-trace
 * JSON (chrome://tracing / ui.perfetto.dev) on exit, and
 * --list-metrics prints every registered metric name one per line
 * (the scripts/check_metrics_docs.sh drift gate consumes this).
 *
 * Differential fuzzing (docs/FUZZING.md): --fuzz N generates N seeded
 * random programs (mini-Pascal and raw assembly, src/fuzz) and runs
 * each through the full configuration matrix with every trust layer
 * as an oracle; --seed S pins the batch seed (default 1982), and the
 * output is byte-identical across runs with the same seed.
 * --fuzz-minimize shrinks any mismatch chunk-by-chunk and writes a
 * reproducer file; --fuzz-file FILE replays one reproducer (kind
 * chosen by extension: .pas = Pascal, anything else = assembly),
 * which is how the tests/data/fuzz-regressions/ gate re-checks every
 * counterexample ever found.
 *
 * Both modes run through a pipeline::Session, so repeated stages
 * share cached artifacts and report pipeline.* metrics and spans. A
 * single file is a `SCHEDULED` source unless --reorg asks for the
 * reorganizer; the corpus fans its units across a
 * pipeline::BatchRunner with deterministic result collection.
 *
 * Exit status: 0 = no error-severity findings, 1 = at least one error,
 * 2 = usage or input failure.
 */
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "asm/unit.h"
#include "fuzz/differ.h"
#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "obs/catalog.h"
#include "obs/trace.h"
#include "pipeline/batch.h"
#include "pipeline/session.h"
#include "reorg/reorganizer.h"
#include "sim/machine.h"
#include "support/logging.h"
#include "verify/costmodel.h"
#include "verify/interproc.h"
#include "verify/memsafety.h"
#include "verify/verify.h"
#include "workload/corpus.h"

// The memsafety layer mirrors sim::Cause and the simulator's memory
// size so it can stay simulator-free; this is where the mirrors are
// checked.
static_assert(mips::verify::kFaultOverflow ==
              static_cast<uint8_t>(mips::sim::Cause::OVERFLOW));
static_assert(mips::verify::kFaultPageFault ==
              static_cast<uint8_t>(mips::sim::Cause::PAGE_FAULT));
static_assert(mips::verify::kFaultAddressError ==
              static_cast<uint8_t>(mips::sim::Cause::ADDRESS_ERROR));
static_assert(mips::verify::kPhysWords == mips::sim::kDefaultPhysWords);

namespace {

struct CliOptions
{
    bool reorg = false;
    bool tv = false;
    bool corpus = false;
    bool json = false;
    bool quiet = false;
    bool strict = false;
    bool fail_fast = false;
    bool no_time = false;
    bool stats = false;
    bool stats_json = false;
    /** 0 = off, 1 = --cost (text), 2 = --cost=json. */
    int cost = 0;
    /** 0 = off, 1 = --range (text), 2 = --range=json. */
    int range = 0;
    bool range_oracle = false;
    uint32_t stack_budget = 0;
    bool callgraph = false;
    std::string callgraph_out; ///< empty = stdout
    double cost_tolerance = 0.02;
    unsigned jobs = 1;
    /** --fuzz N: differential-fuzz N generated programs (0 = off). */
    uint64_t fuzz = 0;
    /** --seed S: batch seed for --fuzz. */
    uint64_t fuzz_seed = 1982;
    /** --fuzz-minimize: shrink mismatches and write reproducers. */
    bool fuzz_minimize = false;
    /** --fuzz-file FILE: replay one generated/minimized program. */
    std::string fuzz_file;
    std::string trace_out;
    mips::verify::VerifyOptions verify;
    mips::reorg::ReorgOptions reorg_options;
    mips::plc::CompileOptions compile_options;
    std::string file;
};

void
usage(FILE *to)
{
    std::fprintf(to,
                 "usage: mipsverify [--reorg] [--tv] [--json] [--no-lint] "
                 "[--strict]\n"
                 "                  [--no-reorder] [--no-pack] "
                 "[--no-fill-delay] [--quiet]\n"
                 "                  [--no-time] [--stats[=json]] "
                 "[--trace-out FILE]\n"
                 "                  [--cost[=json]] [--callgraph[=FILE]] "
                 "[--range[=json]]\n"
                 "                  [--stack-budget N] [--range-oracle] "
                 "file.s\n"
                 "       mipsverify --corpus [--jobs N] [--tv] "
                 "[--fail-fast] [--json]\n"
                 "                  [--no-lint] [--strict] [--no-reorder] "
                 "[--no-pack]\n"
                 "                  [--no-fill-delay] [--no-jump-tables] "
                 "[--quiet] [--no-time]\n"
                 "                  [--stats[=json]] [--trace-out FILE]\n"
                 "                  [--cost[=json]] "
                 "[--cost-tolerance F]\n"
                 "                  [--range[=json]] [--stack-budget N]\n"
                 "       mipsverify --fuzz N [--seed S] "
                 "[--fuzz-minimize] [--jobs N]\n"
                 "                  [--quiet] [--stats[=json]] "
                 "[--trace-out FILE]\n"
                 "       mipsverify --fuzz-file FILE "
                 "[--fuzz-minimize]\n"
                 "       mipsverify --list-metrics\n");
}

/** Print "mipsverify: MESSAGE" to stderr and exit with status 2. */
[[noreturn]] __attribute__((format(printf, 1, 2))) void
usageError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string message = mips::support::vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "mipsverify: %s\n", message.c_str());
    std::exit(2);
}

/**
 * The value of option `name` when argv[*i] is `name V` (stepping *i
 * over V) or `name=V`; null when argv[*i] is any other argument. A
 * missing V is a usage error: "`name` needs `needs`".
 */
const char *
flagValue(const char *name, const char *needs, int argc, char **argv,
          int *i)
{
    std::string_view arg = argv[*i];
    size_t len = std::strlen(name);
    const char *value = nullptr;
    if (arg == name) {
        if (*i + 1 < argc)
            value = argv[++*i];
    } else if (arg.starts_with(name) && arg.size() > len &&
               arg[len] == '=') {
        value = argv[*i] + len + 1;
    } else {
        return nullptr;
    }
    if (!value)
        usageError("%s needs %s", name, needs);
    return value;
}

/** Parse all of `text` as a base-10 integer in [lo, hi]. */
bool
parseInt(const char *text, long long lo, long long hi, long long *out)
{
    char *end = nullptr;
    *out = std::strtoll(text, &end, 10);
    return end != text && *end == '\0' && *out >= lo && *out <= hi;
}

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/**
 * Render one unit's report into `out` (unless quiet) and report
 * whether the unit verified clean. Buffering into a string (instead
 * of printing directly) is what lets --jobs N emit units in input
 * order.
 */
bool
emit(const CliOptions &cli, mips::verify::VerifyReport report,
     const mips::assembler::Unit &unit, const std::string &name,
     double elapsed_ms, std::string *out)
{
    using mips::support::strprintf;
    if (cli.strict)
        mips::verify::promoteNotesToErrors(&report);
    if (cli.json) {
        *out += mips::verify::reportJson(
            report, name, cli.no_time ? -1.0 : elapsed_ms);
        *out += "\n";
    } else if (!cli.quiet) {
        *out += mips::verify::reportText(report, unit, name);
        *out += strprintf("%s: %zu error(s), %zu warning(s), "
                          "%zu note(s)",
                          name.c_str(), report.errors, report.warnings,
                          report.notes);
        if (!cli.no_time)
            *out += strprintf(" [%.1f ms]", elapsed_ms);
        *out += "\n";
    }
    return report.clean();
}

/** Render one unit's cost report (plus the parity sweep when the
 *  simulator ran). Cost output ignores --quiet: it *is* the requested
 *  report, not verification chatter. */
std::string
costOutput(const CliOptions &cli, const mips::verify::CostReport &report,
           const mips::verify::CostParity *parity)
{
    using mips::support::strprintf;
    if (cli.cost == 2)
        return mips::verify::costJson(report, parity) + "\n";
    std::string out = mips::verify::costText(report);
    if (parity) {
        out += strprintf("%s: cost parity: %zu block(s), %zu exact, "
                         "%zu bounded, %zu violation(s)\n",
                         report.unit.c_str(), parity->checked,
                         parity->exact, parity->bounded,
                         parity->violations);
        for (const std::string &note : parity->notes)
            out += "  " + note + "\n";
    }
    return out;
}

/** Fold more findings (translation validation's, or the MS findings
 *  of a range run) into the main report's list and severity
 *  counters. */
void
mergeDiagnostics(mips::verify::VerifyReport *into,
                 const std::vector<mips::verify::Diagnostic> &diags)
{
    for (const mips::verify::Diagnostic &d : diags) {
        into->diagnostics.push_back(d);
        switch (d.severity) {
        case mips::verify::Severity::ERROR: ++into->errors; break;
        case mips::verify::Severity::WARNING: ++into->warnings; break;
        case mips::verify::Severity::NOTE: ++into->notes; break;
        }
    }
}

/** Render one unit's range report. Like --cost, this ignores --quiet:
 *  it *is* the requested report. */
std::string
rangeOutput(const CliOptions &cli,
            const mips::verify::RangeReport &report)
{
    if (cli.range == 2)
        return mips::verify::rangeJson(report);
    return mips::verify::rangeText(report);
}

/** Run the linked unit on the simulator and match every observed
 *  fault/overflow event against the static MS findings. Returns the
 *  gate verdict (0 covered, 1 not; 2 if the unit does not link) and
 *  appends the summary to `out`. */
int
runRangeOracle(const mips::pipeline::ReorgArtifact &reorg,
               const std::string &name,
               const std::vector<mips::verify::Diagnostic> &diags,
               std::string *out)
{
    using mips::support::strprintf;
    if (reorg.link_error) {
        std::fprintf(stderr, "mipsverify: %s: link failed: %s\n",
                     name.c_str(), reorg.link_error->message.c_str());
        return 2;
    }
    mips::sim::Machine machine;
    machine.load(reorg.program);
    machine.cpu().run(10'000'000);
    std::vector<mips::verify::ObservedFault> faults;
    for (const mips::sim::Cpu::FaultEvent &e :
         machine.cpu().faultEvents())
        faults.push_back({static_cast<uint8_t>(e.cause), e.pc, e.addr});
    mips::verify::FaultCoverage cov = mips::verify::checkFaultCoverage(
        diags, reorg.program.origin, reorg.final_unit.items.size(),
        faults);
    *out += strprintf("%s: range-oracle: %zu event(s), %zu covered, "
                      "%zu exempt\n",
                      name.c_str(), cov.events, cov.covered,
                      cov.exempt);
    for (const std::string &note : cov.notes)
        *out += "  " + note + "\n";
    return cov.ok() ? 0 : 1;
}

/** The stage options of a run, for the corpus and single-file modes
 *  alike. */
mips::pipeline::StageOptions
stageOptions(const CliOptions &cli)
{
    mips::pipeline::StageOptions options;
    options.compile = cli.compile_options;
    options.reorg = cli.reorg_options;
    options.verify = cli.verify;
    options.range.stack_budget = cli.stack_budget;
    // Corpus cost reports are checked against a profiled run.
    options.sim.profile = cli.cost != 0;
    return options;
}

int
runCorpus(const CliOptions &cli)
{
    std::vector<mips::workload::CorpusProgram> programs =
        mips::workload::corpus();
    for (const mips::workload::CorpusProgram &program :
         mips::workload::dispatchCorpus())
        programs.push_back(program);
    programs.push_back(mips::workload::fibonacciProgram());
    programs.push_back(mips::workload::puzzle0Program());
    programs.push_back(mips::workload::puzzle1Program());

    mips::pipeline::Session session;
    const mips::pipeline::StageOptions options = stageOptions(cli);
    mips::pipeline::ChainSpec spec;
    spec.hazard_verify = true;
    spec.translation_validate = cli.tv;
    // The cost model is validated, not trusted: every unit also runs on
    // the simulator with profiling on, and the static report must agree
    // with the dynamic per-word issue counts.
    spec.cost_model = cli.cost != 0;
    spec.simulate = cli.cost != 0;
    spec.value_range = cli.range != 0;

    // Fail-fast still computes in parallel waves of `jobs` units, but
    // emission stops at the first failing unit, so the output matches
    // a serial fail-fast run byte for byte.
    size_t wave = cli.fail_fast
                      ? std::max<size_t>(cli.jobs, 1)
                      : programs.size();

    size_t failed = 0;
    size_t ran = 0;
    bool stopped = false;
    for (size_t base = 0; base < programs.size() && !stopped;
         base += wave) {
        std::vector<mips::workload::CorpusProgram> slice(
            programs.begin() + static_cast<ptrdiff_t>(base),
            programs.begin() +
                static_cast<ptrdiff_t>(
                    std::min(base + wave, programs.size())));
        std::vector<mips::pipeline::ChainResult> results =
            mips::pipeline::runAll(session, slice, spec, options,
                                   cli.jobs);
        for (const mips::pipeline::ChainResult &r : results) {
            ++ran;
            if (!r.ok()) {
                std::fprintf(stderr,
                             "mipsverify: %s: compile failed: %s\n",
                             r.name.c_str(), r.error.c_str());
                ++failed;
                if (cli.fail_fast) {
                    stopped = true;
                    break;
                }
                continue;
            }
            mips::verify::VerifyReport report = r.verify->report;
            if (cli.tv)
                mergeDiagnostics(&report, r.tv->report.diagnostics);
            if (cli.range)
                mergeDiagnostics(&report, r.range->diags);
            std::string out;
            bool clean = emit(cli, std::move(report),
                              r.reorg->final_unit, r.name, r.elapsed_ms,
                              &out);
            std::fputs(out.c_str(), stdout);
            if (cli.cost) {
                if (r.sim->stop != mips::sim::StopReason::HALT) {
                    std::fprintf(stderr,
                                 "mipsverify: %s: simulation did not "
                                 "halt; cost parity not checked\n",
                                 r.name.c_str());
                    clean = false;
                } else {
                    mips::verify::CostReport cost = r.cost->report;
                    cost.unit = r.name;
                    mips::verify::CostParity parity =
                        mips::verify::checkCostParity(
                            cost, r.sim->exec_counts,
                            cli.cost_tolerance);
                    std::string cost_out =
                        costOutput(cli, cost, &parity);
                    std::fputs(cost_out.c_str(), stdout);
                    if (parity.violations != 0)
                        clean = false;
                }
            }
            if (cli.range) {
                mips::verify::RangeReport range = r.range->report;
                range.unit = r.name;
                std::string range_out = rangeOutput(cli, range);
                std::fputs(range_out.c_str(), stdout);
            }
            if (!clean) {
                ++failed;
                if (cli.fail_fast) {
                    stopped = true;
                    break;
                }
            }
        }
    }
    if (!cli.quiet) {
        std::printf("mipsverify: %zu/%zu corpus program(s) verified "
                    "clean%s\n",
                    ran - failed, programs.size(),
                    ran < programs.size() ? " (stopped early)" : "");
    }
    return failed == 0 ? 0 : 1;
}

int
runFile(const CliOptions &cli)
{
    std::string text;
    if (cli.file == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        std::ifstream in(cli.file);
        if (!in) {
            std::fprintf(stderr, "mipsverify: cannot open %s\n",
                         cli.file.c_str());
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }

    // As written, the unit is taken as already scheduled and analysed
    // untouched; --reorg (and --tv) hand it to the reorganizer first.
    // Stages past hazardVerify share its Reorganize artifact, so only
    // that first call can fail (on a parse error: a unit that does not
    // link is data).
    mips::pipeline::Session session;
    const mips::pipeline::StageOptions options = stageOptions(cli);
    const mips::pipeline::Source source(
        text, cli.reorg ? mips::pipeline::Language::ASSEMBLY
                        : mips::pipeline::Language::SCHEDULED);
    Clock::time_point start = Clock::now();
    auto verified = session.hazardVerify(source, options);
    if (!verified.ok()) {
        std::fprintf(stderr, "mipsverify: %s: %s\n", cli.file.c_str(),
                     verified.error().message.c_str());
        return 2;
    }
    // The unit that would run on the machine: the reorganized one
    // under --reorg.
    const mips::pipeline::ReorgArtifact &reorg = *verified.value()->reorg;
    mips::verify::VerifyReport report = verified.value()->report;
    if (cli.tv)
        mergeDiagnostics(
            &report,
            session.translationValidate(source, options).value()->report
                .diagnostics);

    // Extra reports print after the verify report; the range findings
    // themselves fold *into* it, so the analysis runs before emit.
    std::string extra_out;
    if (cli.callgraph) {
        // No artifact carries the call graph, so build it here (the
        // graph refers into `cfg`).
        mips::verify::Cfg cfg =
            mips::verify::buildCfg(reorg.final_unit, nullptr);
        mips::verify::CallGraph graph = mips::verify::buildCallGraph(cfg);
        std::string dot = mips::verify::callGraphDot(graph, cli.file);
        if (cli.callgraph_out.empty()) {
            extra_out += dot;
        } else {
            std::ofstream dot_out(cli.callgraph_out);
            if (!dot_out) {
                std::fprintf(stderr, "mipsverify: cannot write %s\n",
                             cli.callgraph_out.c_str());
                return 2;
            }
            dot_out << dot;
        }
    }
    if (cli.cost) {
        // Static-only in single-file mode: parity needs a whole program
        // to simulate (--corpus --cost).
        mips::verify::CostReport cost =
            session.costModel(source, options).value()->report;
        cost.unit = cli.file;
        extra_out += costOutput(cli, cost, nullptr);
    }
    int oracle_status = -1; // -1 = oracle not requested
    if (cli.range || cli.range_oracle) {
        mips::pipeline::RangeRef range =
            session.valueRange(source, options).value();
        mergeDiagnostics(&report, range->diags);
        if (cli.range) {
            mips::verify::RangeReport range_report = range->report;
            range_report.unit = cli.file;
            extra_out += rangeOutput(cli, range_report);
        }
        if (cli.range_oracle) {
            oracle_status =
                runRangeOracle(reorg, cli.file, range->diags, &extra_out);
            if (oracle_status == 2)
                return 2;
        }
    }

    std::string out;
    bool clean = emit(cli, std::move(report), reorg.final_unit, cli.file,
                      msSince(start), &out);
    std::fputs(out.c_str(), stdout);
    std::fputs(extra_out.c_str(), stdout);

    // Under --range-oracle the exit status is the coverage verdict
    // alone: the fault corpus *intends* to contain MS errors.
    if (oracle_status >= 0)
        return oracle_status;
    return clean ? 0 : 1;
}

// ------------------------------------------------------------- fuzz

/** Reproducer file name for a (possibly minimized) program. */
std::string
reproPath(const mips::fuzz::GeneratedProgram &program)
{
    using mips::support::strprintf;
    return strprintf("fuzz-repro-%s.%s", program.name.c_str(),
                     program.kind == mips::fuzz::ProgramKind::PASCAL
                         ? "pas"
                         : "s");
}

/**
 * Write a reproducer: a comment header (name, seed, failure) in the
 * program's own comment syntax, then the full source. Returns false
 * on I/O failure.
 */
bool
writeRepro(const mips::fuzz::GeneratedProgram &program,
           const std::string &failure, const std::string &path)
{
    using mips::support::strprintf;
    bool pascal = program.kind == mips::fuzz::ProgramKind::PASCAL;
    std::string safe = failure;
    for (char &c : safe)
        if (c == '}' || c == '\n')
            c = ' ';
    std::string header;
    if (pascal)
        header = strprintf("{ fuzz reproducer %s (seed %llu)\n"
                           "  failure: %s }\n",
                           program.name.c_str(),
                           static_cast<unsigned long long>(program.seed),
                           safe.c_str());
    else
        header = strprintf("; fuzz reproducer %s (seed %llu)\n"
                           "; failure: %s\n",
                           program.name.c_str(),
                           static_cast<unsigned long long>(program.seed),
                           safe.c_str());
    std::ofstream out(path);
    if (!out)
        return false;
    out << header << program.render();
    out.close();
    if (!out) // NOLINT(readability-implicit-bool-conversion)
        return false;
    mips::obs::fuzzMetrics().repro_writes->add();
    return true;
}

/**
 * Differential fuzzing: generate (or replay) programs, fan them over
 * the BatchRunner, and report any config or oracle disagreement. Each
 * program, and each minimizer candidate, runs against its own Session:
 * no program can hit another's artifacts, so a shared cache would only
 * grow with N. Output carries no wall-clock fields, and the runner
 * collects results in input order, so a run is byte-identical for a
 * fixed (seed, N, binary) triple — the determinism contract
 * docs/FUZZING.md documents and scripts/check.sh enforces with cmp.
 */
int
runFuzz(const CliOptions &cli)
{
    using mips::support::strprintf;
    namespace fuzz = mips::fuzz;

    std::vector<fuzz::GeneratedProgram> programs;
    if (!cli.fuzz_file.empty()) {
        std::ifstream in(cli.fuzz_file);
        if (!in) {
            std::fprintf(stderr, "mipsverify: cannot read %s\n",
                         cli.fuzz_file.c_str());
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        fuzz::GeneratedProgram p;
        size_t slash = cli.fuzz_file.find_last_of('/');
        p.name = slash == std::string::npos
                     ? cli.fuzz_file
                     : cli.fuzz_file.substr(slash + 1);
        p.kind = p.name.size() >= 4 &&
                         p.name.compare(p.name.size() - 4, 4, ".pas") ==
                             0
                     ? fuzz::ProgramKind::PASCAL
                     : fuzz::ProgramKind::ASM;
        // The whole file is one chunk: replay never re-minimizes a
        // checked-in reproducer, it just re-runs the matrix.
        p.prologue = buf.str();
        programs.push_back(std::move(p));
    } else {
        programs = fuzz::generateBatch(cli.fuzz_seed, cli.fuzz);
    }

    fuzz::DiffOptions diff;
    mips::pipeline::BatchRunner runner(cli.jobs);
    std::vector<fuzz::DiffResult> results = runner.runAll(
        programs,
        [&diff](const fuzz::GeneratedProgram &program, size_t) {
            mips::pipeline::Session session;
            return fuzz::runDifferential(session, program, diff);
        });

    size_t mismatches = 0;
    size_t front_end = 0;
    std::string out;
    for (const fuzz::DiffResult &r : results) {
        if (r.ok) {
            if (!cli.quiet)
                out += strprintf("fuzz %s: ok (%zu configs)\n",
                                 r.name.c_str(), r.configs);
            continue;
        }
        // Failures always print, --quiet or not: a silent mismatch
        // defeats the point of a fuzzer.
        if (r.front_end_error) {
            ++front_end;
            out += strprintf("fuzz %s: FRONT-END ERROR: %s\n",
                             r.name.c_str(), r.failure.c_str());
        } else {
            ++mismatches;
            out += strprintf("fuzz %s: MISMATCH: %s\n", r.name.c_str(),
                             r.failure.c_str());
        }
    }
    std::fputs(out.c_str(), stdout);

    if (cli.fuzz_minimize) {
        for (size_t i = 0; i < results.size(); ++i) {
            if (!results[i].mismatch())
                continue;
            auto still_fails = [&diff](const fuzz::GeneratedProgram &c) {
                mips::pipeline::Session session;
                return fuzz::runDifferential(session, c, diff).mismatch();
            };
            fuzz::MinimizeOutcome min =
                fuzz::minimizeProgram(programs[i], still_fails);
            std::string path = reproPath(min.program);
            if (!writeRepro(min.program, results[i].failure, path)) {
                std::fprintf(stderr,
                             "mipsverify: cannot write reproducer "
                             "%s\n",
                             path.c_str());
                return 2;
            }
            std::printf("fuzz %s: minimized %zu -> %zu chunk(s) "
                        "(%zu step(s)), wrote %s\n",
                        results[i].name.c_str(), programs[i].chunks.size(),
                        min.program.chunks.size(), min.steps,
                        path.c_str());
        }
    }

    if (!cli.quiet)
        std::printf("mipsverify: fuzz: %zu program(s), %zu "
                    "mismatch(es), %zu front-end error(s) (seed %llu)\n",
                    results.size(), mismatches, front_end,
                    static_cast<unsigned long long>(cli.fuzz_seed));
    return mismatches != 0 || front_end != 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--reorg") {
            cli.reorg = true;
        } else if (arg == "--tv") {
            cli.tv = true;
            cli.reorg = true;
        } else if (arg == "--corpus") {
            cli.corpus = true;
        } else if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--no-lint") {
            cli.verify.lint = false;
        } else if (arg == "--strict") {
            cli.strict = true;
        } else if (arg == "--fail-fast") {
            cli.fail_fast = true;
        } else if (arg == "--no-reorder") {
            cli.reorg_options.reorder = false;
        } else if (arg == "--no-pack") {
            cli.reorg_options.pack = false;
        } else if (arg == "--no-fill-delay") {
            cli.reorg_options.fill_delay = false;
        } else if (arg == "--no-jump-tables") {
            cli.compile_options.jump_tables = false;
        } else if (arg == "--quiet") {
            cli.quiet = true;
        } else if (arg == "--no-time") {
            cli.no_time = true;
        } else if (arg == "--cost") {
            cli.cost = 1;
        } else if (arg == "--cost=json") {
            cli.cost = 2;
        } else if (arg == "--range") {
            cli.range = 1;
        } else if (arg == "--range=json") {
            cli.range = 2;
        } else if (arg == "--range-oracle") {
            cli.range_oracle = true;
        } else if (const char *v = flagValue("--stack-budget",
                                             "a word count", argc,
                                             argv, &i)) {
            long long n = 0;
            if (!parseInt(v, 1, 0x7fffffff, &n))
                usageError("bad --stack-budget '%s'", v);
            cli.stack_budget = static_cast<uint32_t>(n);
        } else if (arg == "--callgraph" ||
                   arg.rfind("--callgraph=", 0) == 0) {
            cli.callgraph = true;
            if (arg != "--callgraph")
                cli.callgraph_out = arg.substr(12);
        } else if (const char *v = flagValue("--cost-tolerance",
                                             "a value", argc, argv,
                                             &i)) {
            char *end = nullptr;
            cli.cost_tolerance = std::strtod(v, &end);
            if (end == v || *end != '\0' || cli.cost_tolerance < 0.0)
                usageError("bad --cost-tolerance '%s'", v);
        } else if (arg == "--stats") {
            cli.stats = true;
        } else if (arg == "--stats=json") {
            cli.stats = true;
            cli.stats_json = true;
        } else if (const char *v = flagValue("--trace-out", "a file",
                                             argc, argv, &i)) {
            if (*v == '\0')
                usageError("--trace-out needs a file");
            cli.trace_out = v;
        } else if (arg == "--list-metrics") {
            // The docs-drift gate (scripts/check_metrics_docs.sh)
            // diffs this dump against docs/METRICS.md, so force every
            // built-in metric to register before listing.
            mips::obs::registerBuiltinMetrics();
            for (const std::string &name :
                 mips::obs::Registry::instance().names())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (const char *v = flagValue("--fuzz", "a program count",
                                             argc, argv, &i)) {
            long long n = 0;
            if (!parseInt(v, 1, 1'000'000, &n))
                usageError("bad --fuzz count '%s'", v);
            cli.fuzz = static_cast<uint64_t>(n);
        } else if (const char *v = flagValue("--seed", "a value", argc,
                                             argv, &i)) {
            char *end = nullptr;
            cli.fuzz_seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usageError("bad --seed '%s'", v);
        } else if (arg == "--fuzz-minimize") {
            cli.fuzz_minimize = true;
        } else if (const char *v = flagValue("--fuzz-file", "a file",
                                             argc, argv, &i)) {
            if (*v == '\0')
                usageError("--fuzz-file needs a file");
            cli.fuzz_file = v;
        } else if (const char *v = flagValue("--jobs", "a count", argc,
                                             argv, &i)) {
            long long n = 0;
            if (!parseInt(v, 0, 1024, &n))
                usageError("bad --jobs count '%s'", v);
            // 0 means auto: one worker per usable core (resolved
            // here so fail-fast wave sizing sees the real count).
            cli.jobs = n == 0
                           ? mips::pipeline::BatchRunner::defaultJobs()
                           : static_cast<unsigned>(n);
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::fprintf(stderr, "mipsverify: unknown option %s\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        } else if (cli.file.empty()) {
            cli.file = arg;
        } else {
            usage(stderr);
            return 2;
        }
    }
    bool fuzzing = cli.fuzz != 0 || !cli.fuzz_file.empty();
    if (fuzzing && (cli.corpus || !cli.file.empty())) {
        std::fprintf(stderr,
                     "mipsverify: --fuzz/--fuzz-file cannot combine "
                     "with --corpus or a file\n");
        return 2;
    }
    if (cli.fuzz != 0 && !cli.fuzz_file.empty()) {
        std::fprintf(stderr,
                     "mipsverify: --fuzz and --fuzz-file are "
                     "mutually exclusive\n");
        return 2;
    }
    if (cli.fuzz_minimize && !fuzzing) {
        std::fprintf(stderr,
                     "mipsverify: --fuzz-minimize needs --fuzz or "
                     "--fuzz-file\n");
        return 2;
    }
    if (cli.corpus && !cli.file.empty()) {
        usage(stderr);
        return 2;
    }
    if (cli.corpus && cli.callgraph) {
        std::fprintf(stderr,
                     "mipsverify: --callgraph is single-file only\n");
        return 2;
    }
    if (cli.corpus && cli.range_oracle) {
        std::fprintf(stderr,
                     "mipsverify: --range-oracle is single-file only\n");
        return 2;
    }
    if (!cli.corpus && !fuzzing && cli.file.empty()) {
        usage(stderr);
        return 2;
    }

    if (!cli.trace_out.empty())
        mips::obs::Tracer::instance().enable(true);

    int status = fuzzing      ? runFuzz(cli)
                 : cli.corpus ? runCorpus(cli)
                              : runFile(cli);

    if (cli.stats) {
        // Register the full catalog before snapshotting so the output
        // schema is stable: metrics a short run never touched still
        // appear (at zero) instead of coming and going between runs.
        mips::obs::registerBuiltinMetrics();
        mips::obs::Snapshot snap =
            mips::obs::Registry::instance().snapshot();
        std::string doc = cli.stats_json ? snap.json() : snap.table();
        std::fputs(doc.c_str(), stdout);
        if (!doc.empty() && doc.back() != '\n')
            std::fputc('\n', stdout);
    }
    if (!cli.trace_out.empty()) {
        if (!mips::obs::Tracer::instance().writeChromeTrace(
                cli.trace_out)) {
            std::fprintf(stderr,
                         "mipsverify: cannot write trace to %s\n",
                         cli.trace_out.c_str());
            return 2;
        }
    }
    return status;
}
