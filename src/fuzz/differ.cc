#include "fuzz/differ.h"

#include <optional>

#include "asm/assembler.h"
#include "obs/catalog.h"
#include "sim/machine.h"
#include "sim/obspub.h"
#include "support/logging.h"
#include "verify/costmodel.h"

namespace mips::fuzz {

using support::strprintf;

namespace {

/** Mirror of the generator's result-block contract (generator.cc):
 *  assembly chunks store into [kResultBase, kResultBase+kResultWords)
 *  and the differ compares the whole block across configurations. */
constexpr uint32_t kResultBase = 0x20000;
constexpr uint32_t kResultWords = 128;

/** Cost-parity slack for TRAP blocks (verify::checkCostParity). */
constexpr double kCostTolerance = 0.02;

/** Record the first failure; later layers for this program are not
 *  consulted (the minimizer wants one stable predicate, not a list). */
void
fail(DiffResult *result, const std::string &tag, const char *layer,
     const std::string &detail)
{
    result->ok = false;
    result->failure =
        strprintf("%s: %s: %s", tag.c_str(), layer, detail.c_str());
    obs::fuzzChainMetrics().oracle_failures->add();
}

void
frontEnd(DiffResult *result, const char *stage,
         const std::string &detail)
{
    result->ok = false;
    result->front_end_error = true;
    result->failure = strprintf("front-end: %s: %s", stage,
                                detail.c_str());
}

/** Printable prefix of a console string for failure messages. */
std::string
consolePreview(const std::string &s)
{
    std::string out = s.substr(0, 32);
    for (char &c : out)
        if (c == '\n')
            c = ' ';
    if (s.size() > 32)
        out += "...";
    return out;
}

/** ERROR-severity findings in a diagnostic list. */
size_t
errorCount(const std::vector<verify::Diagnostic> &diags)
{
    size_t n = 0;
    for (const verify::Diagnostic &d : diags)
        if (d.severity == verify::Severity::ERROR)
            ++n;
    return n;
}

std::vector<FuzzConfig>
withBugs(std::vector<FuzzConfig> matrix, const reorg::ReorgBugs &bugs)
{
    for (FuzzConfig &config : matrix)
        config.reorg.bugs = bugs;
    return matrix;
}

/**
 * Every matrix config of one program, through the Session: legal
 * unit, functional baseline, hazard verify, strict TV, value range,
 * the pipeline run, and (Pascal) cost parity. Stops at the first
 * failure.
 */
DiffResult
runMatrix(pipeline::Session &session, const GeneratedProgram &program,
          const DiffOptions &options)
{
    DiffResult result;
    result.name = program.name;
    const bool pascal = program.kind == ProgramKind::PASCAL;
    const std::string text = program.render();
    const pipeline::Source source(text, pascal ? pipeline::Language::PASCAL
                                               : pipeline::Language::ASSEMBLY);

    // CC baseline: the legal unit on the interlocked functional
    // machine defines the expected observable output. It runs once per
    // distinct legal unit: the matrices list the configs that share
    // one (same front-end options, so the same cached artifact) next
    // to each other.
    pipeline::LegalRef base_legal;
    sim::FunctionalRun base;
    std::string expected;

    for (const FuzzConfig &config :
         withBugs(pascal ? pascalMatrix() : asmMatrix(), options.bugs)) {
        obs::fuzzChainMetrics().chains->add();
        // Assembly sources ignore the compile options.
        pipeline::StageOptions o;
        o.compile.layout = config.layout;
        o.compile.jump_tables = config.jump_tables;
        o.reorg = config.reorg;
        o.sim.max_cycles = options.max_cycles;
        // Cost parity reads the profile of the simulate stage, which
        // only Pascal units run (see the pipeline run below).
        o.sim.profile = pascal;

        // The front end must accept its own generator's output; a
        // parse/sema/assembly failure is a generator defect, not a
        // finding.
        auto legal = session.legal(source, o);
        if (!legal.ok()) {
            frontEnd(&result, pascal ? "compile" : "assemble",
                     legal.error().str());
            return result;
        }
        if (legal.value() != base_legal) {
            const bool first = !base_legal;
            base_legal = legal.value();
            auto linked = assembler::link(*base_legal);
            if (!linked.ok()) {
                frontEnd(&result, "link-legal", linked.error().str());
                return result;
            }
            base = sim::runFunctional(linked.value(), options.max_cycles);
            // An assembly unit has one legal unit for every config.
            const std::string base_tag = pascal ? config.tag : "legal";
            if (base.reason != sim::StopReason::HALT) {
                fail(&result, base_tag, "cc-baseline",
                     "functional machine did not halt");
                return result;
            }
            const std::string &base_console = base.memory->consoleOutput();
            if (first) {
                expected = base_console;
            } else if (base_console != expected) {
                // Layout and lowering must not change semantics.
                fail(&result, base_tag, "cc-baseline",
                     strprintf("output diverged across configs "
                               "(\"%s\" vs \"%s\")",
                               consolePreview(expected).c_str(),
                               consolePreview(base_console).c_str()));
                return result;
            }
        }

        auto v = session.hazardVerify(source, o);
        if (!v.ok()) {
            fail(&result, config.tag, "hazard-verify", v.error().str());
            return result;
        }
        if (!v.value()->report.clean()) {
            fail(&result, config.tag, "hazard-verify",
                 strprintf("%zu error(s)", v.value()->report.errors));
            return result;
        }

        auto tv = session.translationValidate(source, o);
        if (!tv.ok()) {
            fail(&result, config.tag, "translation-validate",
                 tv.error().str());
            return result;
        }
        // Strict: a TV090 "not proven" note fails the fuzzer — the
        // generator must only emit provable shapes.
        if (tv.value()->report.errors != 0 ||
            tv.value()->report.notes != 0) {
            fail(&result, config.tag, "translation-validate",
                 strprintf("%zu error(s), %zu note(s)",
                           tv.value()->report.errors,
                           tv.value()->report.notes));
            return result;
        }

        auto range = session.valueRange(source, o);
        if (!range.ok()) {
            fail(&result, config.tag, "value-range", range.error().str());
            return result;
        }
        if (size_t n = errorCount(range.value()->diags)) {
            fail(&result, config.tag, "value-range",
                 strprintf("%zu MUST finding(s)", n));
            return result;
        }

        // The pipeline run. Pascal units take the simulate stage,
        // whose profile feeds cost parity. Assembly units also compare
        // the result block in machine memory, which the simulate
        // artifact does not keep, so they run the Session's linked
        // program on a machine here.
        pipeline::SimRef profiled;
        std::optional<sim::Machine> machine;
        sim::StopReason stop = sim::StopReason::RUNNING;
        std::string error;
        std::string console;
        if (pascal) {
            auto sim = session.simulate(source, o);
            if (!sim.ok()) {
                fail(&result, config.tag, "simulate", sim.error().str());
                return result;
            }
            profiled = sim.value();
            stop = profiled->stop;
            error = profiled->error;
            console = profiled->console;
        } else {
            const pipeline::ReorgArtifact &reorg = *v.value()->reorg;
            if (reorg.link_error) {
                fail(&result, config.tag, "simulate",
                     reorg.link_error->str());
                return result;
            }
            machine.emplace();
            machine->load(reorg.program);
            stop = machine->cpu().run(options.max_cycles);
            sim::publishMetrics(*machine);
            if (stop != sim::StopReason::HALT)
                error = machine->cpu().errorMessage();
            console = machine->memory().consoleOutput();
        }
        if (stop != sim::StopReason::HALT) {
            fail(&result, config.tag, "simulate",
                 error.empty() ? std::string("pipeline machine did not halt")
                               : error);
            return result;
        }
        if (console != expected) {
            fail(&result, config.tag, "console",
                 strprintf("pipeline \"%s\" vs baseline \"%s\"",
                           consolePreview(console).c_str(),
                           consolePreview(expected).c_str()));
            return result;
        }
        if (machine) {
            for (uint32_t w = 0; w < kResultWords; ++w) {
                uint32_t got = machine->memory().peek(kResultBase + w);
                uint32_t want = base.memory->peek(kResultBase + w);
                if (got != want) {
                    fail(&result, config.tag, "result-block",
                         strprintf("word %u: pipeline 0x%08x vs "
                                   "baseline 0x%08x",
                                   w, got, want));
                    return result;
                }
            }
        }

        if (pascal) {
            auto cost = session.costModel(source, o);
            if (!cost.ok()) {
                fail(&result, config.tag, "cost-model",
                     cost.error().str());
                return result;
            }
            verify::CostParity parity = verify::checkCostParity(
                cost.value()->report, profiled->exec_counts,
                kCostTolerance);
            if (parity.violations != 0) {
                fail(&result, config.tag, "cost-parity",
                     strprintf("%zu violation(s)", parity.violations));
                return result;
            }
        }

        ++result.configs;
    }
    return result;
}

} // namespace

std::vector<FuzzConfig>
pascalMatrix()
{
    std::vector<FuzzConfig> matrix;
    auto add = [&matrix](const char *tag, plc::Layout layout,
                         bool jump_tables, bool reorder, bool pack,
                         bool fill_delay) {
        FuzzConfig config;
        config.tag = tag;
        config.layout = layout;
        config.jump_tables = jump_tables;
        config.reorg.reorder = reorder;
        config.reorg.pack = pack;
        config.reorg.fill_delay = fill_delay;
        matrix.push_back(std::move(config));
    };
    add("word+jt", plc::Layout::WORD_ALLOCATED, true, true, true, true);
    add("word+jt-reorder", plc::Layout::WORD_ALLOCATED, true, false,
        true, true);
    add("word+jt-pack", plc::Layout::WORD_ALLOCATED, true, true, false,
        true);
    add("word+jt-fill", plc::Layout::WORD_ALLOCATED, true, true, true,
        false);
    add("word-jt", plc::Layout::WORD_ALLOCATED, false, true, true,
        true);
    add("byte+jt", plc::Layout::BYTE_ALLOCATED, true, true, true, true);
    return matrix;
}

std::vector<FuzzConfig>
asmMatrix()
{
    std::vector<FuzzConfig> matrix;
    auto add = [&matrix](const char *tag, bool reorder, bool pack,
                         bool fill_delay) {
        FuzzConfig config;
        config.tag = tag;
        config.reorg.reorder = reorder;
        config.reorg.pack = pack;
        config.reorg.fill_delay = fill_delay;
        matrix.push_back(std::move(config));
    };
    add("full", true, true, true);
    add("-reorder", false, true, true);
    add("-pack", true, false, true);
    add("-fill", true, true, false);
    add("noop-only", false, false, false);
    return matrix;
}

DiffResult
runDifferential(pipeline::Session &session,
                const GeneratedProgram &program,
                const DiffOptions &options)
{
    obs::fuzzMetrics().programs->add();
    DiffResult result = runMatrix(session, program, options);
    if (result.mismatch())
        obs::fuzzMetrics().mismatches->add();
    return result;
}

} // namespace mips::fuzz
