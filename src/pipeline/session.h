/**
 * @file
 * Pipeline sessions: the toolchain as composable, cached stages.
 *
 * Every multi-step consumer in this repo used to hand-roll the same
 * chain — `plc::compile` → peephole → `reorg::reorganize` → link →
 * verify / translation-validate / simulate — serially and from
 * scratch, once per experiment driver and CLI run. A
 * `Session` models that chain as explicitly-dependent stages
 *
 *   Parse → Compile ─┐
 *         Assemble ──┴→ Reorganize → HazardVerify
 *                                  → TranslationValidate → Simulate
 *                                  → CostModel → ValueRange
 *
 * each returning its artifact through a content-keyed cache (keyed on
 * the source text plus every stage option that can change the
 * artifact), so e.g. the Table 3 and Table 11 drivers compiling the
 * same corpus program share one compile result instead of recompiling
 * it per table. The stages from Reorganize on take a `Source`, Pascal
 * or assembly: like the paper's reorganizer, they are one post-pass
 * over legal code, whoever wrote it, and like its `.noreorder`, a
 * `SCHEDULED` source asks that the code pass through untouched. A
 * unit that does not link is data too: its ReorgArtifact carries the
 * link error, the analyses still run, and only the stages that load
 * the program fail. Artifacts are immutable and
 * handed out as `shared_ptr<const T>`; a cache hit is
 * pointer-identical to the cold run that produced it. Errors are
 * cached too: recoverable input failures (bad source) are remembered
 * and replayed, never recomputed. A stage that throws caches nothing,
 * so the next request for its key computes it again.
 *
 * Sessions are thread-safe: each stage cache is one key → slot map
 * behind one mutex. Every lookup takes that lock, but no lock is ever
 * held while a stage runs, so requests for different keys compute in
 * parallel. No request waits for another's computation: concurrent
 * requests for one key each compute it, the first result to land
 * fills the slot, and all of them return that one artifact. Every
 * caller in this repo asks for a given key from one thread, so the
 * duplicate work does not arise in practice. `runAll` fans a corpus
 * out across a `BatchRunner` thread pool with deterministic,
 * input-ordered result collection — parallel results are element-wise
 * identical to a serial run.
 *
 * Per-stage hit/miss counts and miss wall time are counted per
 * Session (`stats()` returns a `PipelineStats` snapshot) and mirrored
 * into the process-wide `pipeline.<stage>.*` metrics that `mipsverify
 * --stats` reports.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asm/assembler.h"
#include "asm/unit.h"
#include "plc/ast.h"
#include "plc/codegen.h"
#include "plc/optimize.h"
#include "reorg/reorganizer.h"
#include "sim/cpu.h"
#include "support/result.h"
#include "verify/costmodel.h"
#include "verify/memsafety.h"
#include "verify/tv.h"
#include "verify/verify.h"
#include "workload/analyzers.h"
#include "workload/corpus.h"

namespace mips::pipeline {

// ----------------------------------------------------------- options

/** Simulate-stage knobs. */
struct SimOptions
{
    uint64_t max_cycles = 200'000'000;
    /** Collect logical data-reference counts (Tables 7/8/10). */
    bool profile = false;
};

/**
 * The option bundle for one chain. Each stage keys its cache entry on
 * the sub-options that can change its artifact (plus those of every
 * stage it depends on), so toggling e.g. `reorg.pack` misses the
 * reorganize cache but still hits the compile cache. Assembly sources
 * have no front-end options: their keys ignore `compile`.
 */
struct StageOptions
{
    plc::CompileOptions compile;
    reorg::ReorgOptions reorg;
    verify::VerifyOptions verify;
    /** Value-range / memory-safety knobs for the ValueRange stage. */
    verify::RangeCheckOptions range;
    SimOptions sim;
};

/** The language a source text is written in. */
enum class Language
{
    PASCAL,
    /** Legal assembly code, for the reorganizer to schedule. */
    ASSEMBLY,
    /** Assembly already scheduled for the pipeline: Reorganize passes
     *  it through unchanged, so the later stages analyse the unit as
     *  written. */
    SCHEDULED,
};

/**
 * The input of the stages from Reorganize on: source text plus its
 * language. Pascal text converts implicitly, so `reorganize(text)`
 * compiles; an assembly unit is `Source(text, Language::ASSEMBLY)`
 * (or `SCHEDULED`). A view: the text must outlive the stage call.
 */
struct Source
{
    std::string_view text;
    Language language = Language::PASCAL;

    Source(std::string_view pascal) : text(pascal) {}
    Source(const std::string &pascal) : text(pascal) {}
    Source(const char *pascal) : text(pascal) {}
    Source(std::string_view text, Language language)
        : text(text), language(language)
    {
    }
};

// --------------------------------------------------------- artifacts

/** Parse: Pascal-like source → analyzed AST (Tables 1 and 4). */
struct ParseArtifact
{
    plc::ProgramAst ast; ///< analyzed in place under the keyed layout
};

/** Compile: Pascal-like source → legal code. */
struct CompileArtifact
{
    assembler::Unit legal_unit; ///< peephole-optimized legal code
    plc::PeepholeStats peephole;
};

/** Assemble: assembly text → parsed unit (no link; labels may be
 *  unresolved, which is itself a verifiable condition). */
struct AssembleArtifact
{
    assembler::Unit unit;
};

/** A legal unit, aliasing (and keeping alive) the compile or assemble
 *  artifact it belongs to. */
using LegalRef = std::shared_ptr<const assembler::Unit>;

/** Reorganize: legal code → pipeline-correct unit + linked image.
 *  A SCHEDULED source's `final_unit` is its legal unit, with zero
 *  stats, no hints and the legal unit's reorg::blockLiveIn. */
struct ReorgArtifact
{
    LegalRef legal; ///< its input
    assembler::Unit final_unit;
    /** Linked, ready to load; empty when `final_unit` does not link. */
    assembler::Program program;
    /** Why `final_unit` does not link; unset when it does. The
     *  stages that load `program` return it as their error. */
    std::optional<support::Error> link_error;
    reorg::ReorgStats stats;
    std::vector<reorg::DupHint> hints; ///< scheme-2 provenance
    /** Live-in masks of the legal unit's blocks, for TV. */
    std::vector<reorg::BlockLiveIn> live_in;
};

/** HazardVerify: the software-interlock contract, statically. */
struct VerifyArtifact
{
    std::shared_ptr<const ReorgArtifact> reorg;
    verify::VerifyReport report;
};

/** TranslationValidate: symbolic proof of equivalence. */
struct TvArtifact
{
    std::shared_ptr<const ReorgArtifact> reorg;
    verify::VerifyReport report;
};

/** Simulate: one run on the pipeline machine. */
struct SimArtifact
{
    std::shared_ptr<const ReorgArtifact> reorg;
    sim::StopReason stop = sim::StopReason::RUNNING;
    std::string error;   ///< CPU error message when stop == SIM_ERROR
    std::string console;
    uint64_t cycles = 0;
    uint64_t free_data_cycles = 0;
    /** Logical data references (only when SimOptions::profile). */
    workload::RefPattern refs;
    /** Per-word issue counts over the linked image, indexed by item
     *  (only when SimOptions::profile). Feeds the cost-model parity
     *  oracle (verify::checkCostParity). */
    std::vector<uint64_t> exec_counts;

    /** Fraction of data bandwidth left idle. */
    double
    freeBandwidth() const
    {
        return cycles ? static_cast<double>(free_data_cycles) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** CostModel: call graph + static cycle-cost report for the
 *  reorganized unit (verify/costmodel.h). Static only — parity
 *  against a profiled SimArtifact is the caller's cross-check. */
struct CostArtifact
{
    std::shared_ptr<const ReorgArtifact> reorg;
    verify::CostReport report;
};

/** ValueRange: interval/alignment fixpoint + memory-safety report for
 *  the reorganized unit (verify/memsafety.h). `diags` holds the MS
 *  findings and nothing else (the CFG's own structural findings belong
 *  to HazardVerify); `report` carries the statistics and stack table. */
struct RangeArtifact
{
    std::shared_ptr<const ReorgArtifact> reorg;
    verify::RangeReport report;
    std::vector<verify::Diagnostic> diags;
};

using ParseRef = std::shared_ptr<const ParseArtifact>;
using CompileRef = std::shared_ptr<const CompileArtifact>;
using AssembleRef = std::shared_ptr<const AssembleArtifact>;
using ReorgRef = std::shared_ptr<const ReorgArtifact>;
using VerifyRef = std::shared_ptr<const VerifyArtifact>;
using TvRef = std::shared_ptr<const TvArtifact>;
using SimRef = std::shared_ptr<const SimArtifact>;
using CostRef = std::shared_ptr<const CostArtifact>;
using RangeRef = std::shared_ptr<const RangeArtifact>;

// ------------------------------------------------------------- stats

/** The cached stages, in dependency order. */
enum class Stage
{
    PARSE,
    COMPILE,
    ASSEMBLE,
    REORGANIZE,
    HAZARD_VERIFY,
    TRANSLATION_VALIDATE,
    SIMULATE,
    COST_MODEL,
    VALUE_RANGE,
};

constexpr size_t kStageCount = 9;

/** Stage name for tables and logs. */
const char *stageName(Stage stage);

/** Counters for one stage of one session. The same counts are also
 *  mirrored into the process-wide obs::Registry under
 *  `pipeline.<stage>.*` (see docs/METRICS.md). */
struct StageCounters
{
    uint64_t hits = 0;        ///< artifact served from the cache
    uint64_t misses = 0;      ///< artifact computed (includes errors)
    /** Always 0: no lookup waits for another. Kept because
     *  perfbench/perfbench.cc reads it. */
    uint64_t wait_blocks = 0;
    double miss_ms = 0;       ///< wall time spent computing, milliseconds
};

/** Snapshot of a session's per-stage counters. */
struct PipelineStats
{
    StageCounters stage[kStageCount];
    /** Times a lookup found its stage cache's lock held by another
     *  thread, summed over the stages. */
    uint64_t shard_conflicts = 0;

    uint64_t hits() const;
    uint64_t misses() const;
};

// ----------------------------------------------------------- session

/**
 * One cached toolchain instance. Methods are safe to call from any
 * number of threads; artifacts are immutable once returned. Nothing is
 * evicted: an entry lives as long as its Session, so scope a Session
 * to the inputs that can share its entries (the fuzzer makes one per
 * program).
 */
class Session
{
  public:
    Session();
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Parse + analyze Pascal-like source under a layout. */
    support::Result<ParseRef> parse(std::string_view source,
                                    plc::Layout layout);

    /** Compile Pascal-like source to (peephole-optimized) legal code. */
    support::Result<CompileRef>
    compile(std::string_view source,
            const StageOptions &options = StageOptions{});

    /** Parse assembly text into a unit (no link). */
    support::Result<AssembleRef> assemble(std::string_view asm_text);

    /** The legal unit of `source`: compile() for Pascal, assemble()
     *  for assembly. */
    support::Result<LegalRef>
    legal(const Source &source,
          const StageOptions &options = StageOptions{});

    /** Reorganize the legal unit (a SCHEDULED one passes through) and
     *  link it. */
    support::Result<ReorgRef>
    reorganize(const Source &source,
               const StageOptions &options = StageOptions{});

    /** Statically verify the reorganization (hazards + lints). */
    support::Result<VerifyRef>
    hazardVerify(const Source &source,
                 const StageOptions &options = StageOptions{});

    /** Symbolically prove the reorganized unit equivalent. */
    support::Result<TvRef>
    translationValidate(const Source &source,
                        const StageOptions &options = StageOptions{});

    /** Run the linked program on the pipeline machine. A unit that
     *  does not link returns its link error. */
    support::Result<SimRef>
    simulate(const Source &source,
             const StageOptions &options = StageOptions{});

    /** Build the call graph and static cycle-cost report for the
     *  reorganized unit. */
    support::Result<CostRef>
    costModel(const Source &source,
              const StageOptions &options = StageOptions{});

    /** Run the value-range analysis and memory-safety checks over the
     *  reorganized unit. */
    support::Result<RangeRef>
    valueRange(const Source &source,
               const StageOptions &options = StageOptions{});

    /** Snapshot the per-stage counters. */
    PipelineStats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

// -------------------------------------------------- batched chains

/** Which stages a chain run executes. Compile and reorganize always
 *  run. */
struct ChainSpec
{
    bool hazard_verify = false;
    bool translation_validate = false;
    bool simulate = false;
    bool cost_model = false;
    bool value_range = false;
};

/** Outcome of one program's chain. Refs are null for stages that
 *  were not requested or not reached. */
struct ChainResult
{
    std::string name;
    CompileRef compile;
    ReorgRef reorg;
    VerifyRef verify;
    TvRef tv;
    SimRef sim;
    CostRef cost;
    RangeRef range;
    /** First failing stage's message; empty on success. Note that a
     *  failing *report* (hazard or TV errors) is a successful chain —
     *  the artifact carries the diagnostics. */
    std::string error;
    double elapsed_ms = 0; ///< wall time of this chain's stage calls

    bool ok() const { return error.empty(); }
};

/**
 * Run every corpus program through the requested stages on a
 * fixed-size thread pool (`jobs`), collecting results in input order.
 * Deterministic: the result vector is element-wise identical to a
 * `jobs == 1` run (elapsed_ms aside).
 */
std::vector<ChainResult>
runAll(Session &session,
       const std::vector<workload::CorpusProgram> &corpus,
       const ChainSpec &stages, const StageOptions &options,
       unsigned jobs);

} // namespace mips::pipeline
