#include "verify/verify.h"

#include "obs/catalog.h"
#include "verify/interproc.h"
#include "verify/passes.h"

namespace mips::verify {

namespace {

// The obs catalog mirrors the diagnostic-code list as strings so it
// can stay a leaf library; hold the two in lockstep here.
static_assert(static_cast<size_t>(kNumCodes) == obs::kVerifyDiagCodes,
              "new Code: extend obs::kDiagCodeNames and docs/METRICS.md");

VerifyReport
finish(DiagnosticEngine &engine)
{
    engine.sort();
    VerifyReport report;
    report.errors = engine.errorCount();
    report.warnings = engine.warningCount();
    report.notes = engine.noteCount();
    report.diagnostics = engine.diagnostics();

    // Every verification run — CLI, pipeline stage, or test oracle —
    // reports through the verify.* metrics.
    obs::VerifyMetrics &m = obs::verifyMetrics();
    m.units->add();
    if (report.clean())
        m.clean_units->add();
    for (const Diagnostic &d : report.diagnostics)
        m.diag[static_cast<size_t>(d.code)]->add();
    return report;
}

void
runPasses(const assembler::Unit &unit, const VerifyOptions &options,
          DiagnosticEngine &engine)
{
    Cfg cfg = buildCfg(unit, &engine);
    checkHazards(cfg, &engine);
    if (options.lint)
        checkLints(cfg, options, &engine);
    CallGraph graph = buildCallGraph(cfg);
    InterprocOptions io;
    io.callee_saved = options.callee_saved;
    io.assume_initialized = options.assume_initialized;
    checkCallingConventions(graph, io, &engine);
}

} // namespace

size_t
VerifyReport::countOf(Code code) const
{
    size_t n = 0;
    for (const Diagnostic &d : diagnostics) {
        if (d.code == code)
            ++n;
    }
    return n;
}

VerifyReport
verifyUnit(const assembler::Unit &unit, const VerifyOptions &options)
{
    DiagnosticEngine engine(&unit);
    runPasses(unit, options, engine);
    return finish(engine);
}

VerifyReport
verifyReorganization(const assembler::Unit &input,
                     const assembler::Unit &output,
                     const VerifyOptions &options)
{
    DiagnosticEngine engine(&output);
    runPasses(output, options, engine);
    checkNoreorderIntegrity(input, output, &engine);
    return finish(engine);
}

void
promoteNotesToErrors(VerifyReport *report)
{
    for (Diagnostic &d : report->diagnostics) {
        if (d.severity == Severity::NOTE) {
            d.severity = Severity::ERROR;
            --report->notes;
            ++report->errors;
        }
    }
}

std::string
reportText(const VerifyReport &report, const assembler::Unit &unit,
           const std::string &name)
{
    return renderText(report.diagnostics, &unit, name);
}

std::string
reportJson(const VerifyReport &report, const std::string &name,
           double elapsed_ms)
{
    return renderJson(report.diagnostics, name, elapsed_ms);
}

} // namespace mips::verify
