#include "pipeline/session.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "obs/catalog.h"
#include "obs/trace.h"
#include "pipeline/batch.h"
#include "plc/parser.h"
#include "plc/sema.h"
#include "sim/machine.h"
#include "sim/obspub.h"
#include "support/strings.h"

namespace mips::pipeline {

using support::strprintf;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

// Option serializations for cache keys. Every field that can change a
// stage's artifact must appear here; adding a field to an options
// struct means extending its key.

std::string
keyOf(const plc::CompileOptions &o)
{
    return strprintf("L%d;S%u;J%d", static_cast<int>(o.layout),
                     o.stack_top, o.jump_tables);
}

unsigned
bugBits(const reorg::ReorgBugs &b)
{
    return (b.pack_dependent << 0) | (b.hoist_blind << 1) |
           (b.alias_blind << 2) | (b.slot_overwritten_def << 3) |
           (b.drop_load_noop << 4) | (b.drop_branch_noop << 5) |
           (b.retarget_same_target << 6) | (b.dup_skip_second << 7);
}

std::string
keyOf(const reorg::ReorgOptions &o)
{
    return strprintf("r%dp%df%d;V%u;B%02x", o.reorder, o.pack,
                     o.fill_delay, o.alias.volatile_base,
                     bugBits(o.bugs));
}

std::string
keyOf(const verify::VerifyOptions &o)
{
    return strprintf("l%d;A%04x;S%04x", o.lint,
                     static_cast<unsigned>(o.assume_initialized),
                     static_cast<unsigned>(o.callee_saved));
}

std::string
keyOf(const verify::RangeCheckOptions &o)
{
    return strprintf("M%u;B%u;W%d", o.mem_words, o.stack_budget,
                     o.range.widen_after);
}

std::string
keyOf(const SimOptions &o)
{
    return strprintf("C%llu;P%d",
                     static_cast<unsigned long long>(o.max_cycles),
                     o.profile);
}

/** The Reorganize key, which every later stage's key ends with. An
 *  assembly source has no front-end options and carries `asm` (or
 *  `sched`) where Pascal carries the compile options, so the same text
 *  read as two languages never shares an entry. */
std::string
reorgKey(const Source &source, const StageOptions &options)
{
    std::string language;
    switch (source.language) {
    case Language::PASCAL: language = keyOf(options.compile); break;
    case Language::ASSEMBLY: language = "asm"; break;
    case Language::SCHEDULED: language = "sched"; break;
    }
    std::string key = keyOf(options.reorg) + "|" + language + "\n";
    key.append(source.text);
    return key;
}

} // namespace

const char *
stageName(Stage stage)
{
    switch (stage) {
    case Stage::PARSE: return "parse";
    case Stage::COMPILE: return "compile";
    case Stage::ASSEMBLE: return "assemble";
    case Stage::REORGANIZE: return "reorganize";
    case Stage::HAZARD_VERIFY: return "hazard-verify";
    case Stage::TRANSLATION_VALIDATE: return "translation-validate";
    case Stage::SIMULATE: return "simulate";
    case Stage::COST_MODEL: return "cost";
    case Stage::VALUE_RANGE: return "range";
    }
    return "?";
}

uint64_t
PipelineStats::hits() const
{
    uint64_t n = 0;
    for (const StageCounters &c : stage)
        n += c.hits;
    return n;
}

uint64_t
PipelineStats::misses() const
{
    uint64_t n = 0;
    for (const StageCounters &c : stage)
        n += c.misses;
    return n;
}

// ------------------------------------------------------ Session::Impl

struct Session::Impl
{
    /**
     * One cache entry. `result` is written once and `ready` then set,
     * both under the owning cache's lock; from then on the entry is
     * immutable.
     */
    template <typename T>
    struct Slot
    {
        bool ready = false;
        std::optional<support::Result<std::shared_ptr<const T>>> result;
    };

    /**
     * One stage's cache: a key → slot map behind one lock. Hits,
     * misses and same-key waits all take `mu`; stage work never runs
     * while it is held. DESIGN.md §10 has the measurements that made
     * one lock per stage enough.
     */
    template <typename T>
    struct Cache
    {
        std::mutex mu;
        std::condition_variable cv;
        /** Entries are never erased, and a node-based map keeps
         *  element addresses across rehashes, so a `Slot &` taken
         *  under `mu` stays valid after the lock drops. */
        std::unordered_map<std::string, Slot<T>> map;
    };

    /** Per-stage counters (obs::Counter, one relaxed atomic each).
     *  `miss_ns` holds nanoseconds; stats() renders ms. */
    struct StageLocal
    {
        obs::Counter hits;
        obs::Counter misses;
        obs::Counter wait_blocks;
        obs::Counter miss_ns;
        obs::Counter conflicts; ///< lookups that found the lock held
    };
    StageLocal counters[kStageCount];

    Cache<ParseArtifact> parse_cache;
    Cache<CompileArtifact> compile_cache;
    Cache<AssembleArtifact> assemble_cache;
    Cache<ReorgArtifact> reorg_cache;
    Cache<VerifyArtifact> verify_cache;
    Cache<TvArtifact> tv_cache;
    Cache<SimArtifact> sim_cache;
    Cache<CostArtifact> cost_cache;
    Cache<RangeArtifact> range_cache;

    /**
     * Return the artifact for `key`, computing it with `fn` on a
     * miss. Concurrent requests for the same key wait for the first
     * computation; `fn` runs with no lock held, so stages for
     * different keys (and nested upstream-stage calls) proceed in
     * parallel.
     */
    template <typename T, typename Fn>
    support::Result<std::shared_ptr<const T>>
    getOrCompute(Cache<T> &cache, Stage stage, const std::string &key,
                 Fn &&fn)
    {
        obs::StageMetrics &om =
            obs::pipelineStageMetrics(static_cast<size_t>(stage));
        om.lookups->add();
        StageLocal &local = counters[static_cast<size_t>(stage)];

        std::unique_lock<std::mutex> lock(cache.mu, std::try_to_lock);
        if (!lock.owns_lock()) {
            local.conflicts.add();
            obs::pipelineCacheShardConflicts().add();
            lock.lock();
        }
        auto [it, inserted] = cache.map.try_emplace(key);
        Slot<T> &slot = it->second;
        if (!inserted) {
            if (!slot.ready) {
                local.wait_blocks.add();
                om.wait_blocks->add();
                cache.cv.wait(lock, [&] { return slot.ready; });
            }
            local.hits.add();
            om.hits->add();
            return *slot.result;
        }
        lock.unlock();

        // Registry mirror of the miss: counted on the throw path too,
        // so `lookups == hits + misses` holds even when a stage dies.
        Clock::time_point start = Clock::now();
        auto recordMiss = [&](double ms) {
            local.misses.add();
            local.miss_ns.add(static_cast<uint64_t>(ms * 1e6));
            om.misses->add();
            om.miss_us->add(static_cast<uint64_t>(ms * 1000.0));
            obs::pipelineStageMissMs().observe(ms);
        };
        auto publish = [&](support::Result<std::shared_ptr<const T>> r) {
            {
                std::lock_guard<std::mutex> guard(cache.mu);
                slot.result = std::move(r);
                slot.ready = true;
            }
            cache.cv.notify_all();
        };
        support::Result<std::shared_ptr<const T>> result = [&] {
            obs::Span span(stageName(stage));
            try {
                return fn();
            } catch (...) {
                // Never leave waiters hung: publish an error, then
                // rethrow for the caller.
                recordMiss(msSince(start));
                publish(support::makeError("pipeline stage threw"));
                throw;
            }
        }();
        recordMiss(msSince(start));
        publish(result);
        return result;
    }
};

Session::Session() : impl_(std::make_unique<Impl>()) {}
Session::~Session() = default;

PipelineStats
Session::stats() const
{
    PipelineStats s;
    for (size_t i = 0; i < kStageCount; ++i) {
        const Impl::StageLocal &c = impl_->counters[i];
        s.stage[i].hits = c.hits.value();
        s.stage[i].misses = c.misses.value();
        s.stage[i].wait_blocks = c.wait_blocks.value();
        s.stage[i].miss_ms =
            static_cast<double>(c.miss_ns.value()) / 1e6;
        s.shard_conflicts += c.conflicts.value();
    }
    return s;
}

// ------------------------------------------------------------ stages

support::Result<ParseRef>
Session::parse(std::string_view source, plc::Layout layout)
{
    std::string key = strprintf("L%d\n", static_cast<int>(layout));
    key.append(source);
    return impl_->getOrCompute(
        impl_->parse_cache, Stage::PARSE, key,
        [&]() -> support::Result<ParseRef> {
            auto ast = plc::parseProgram(source);
            if (!ast.ok())
                return ast.error();
            auto artifact = std::make_shared<ParseArtifact>();
            artifact->ast = ast.take();
            auto sema = plc::analyze(artifact->ast, layout);
            if (!sema.ok())
                return sema.error();
            return ParseRef(artifact);
        });
}

support::Result<CompileRef>
Session::compile(std::string_view source, const StageOptions &options)
{
    std::string key = keyOf(options.compile) + "\n";
    key.append(source);
    return impl_->getOrCompute(
        impl_->compile_cache, Stage::COMPILE, key,
        [&]() -> support::Result<CompileRef> {
            auto compiled = plc::compile(source, options.compile);
            if (!compiled.ok())
                return compiled.error();
            auto artifact = std::make_shared<CompileArtifact>();
            artifact->legal_unit = compiled.take();
            artifact->peephole =
                plc::eliminateRedundantLoads(&artifact->legal_unit);
            return CompileRef(artifact);
        });
}

support::Result<AssembleRef>
Session::assemble(std::string_view asm_text)
{
    std::string key(asm_text);
    return impl_->getOrCompute(
        impl_->assemble_cache, Stage::ASSEMBLE, key,
        [&]() -> support::Result<AssembleRef> {
            auto unit = assembler::parse(asm_text);
            if (!unit.ok())
                return unit.error();
            auto artifact = std::make_shared<AssembleArtifact>();
            artifact->unit = unit.take();
            return AssembleRef(artifact);
        });
}

support::Result<LegalRef>
Session::legal(const Source &source, const StageOptions &options)
{
    if (source.language != Language::PASCAL) {
        auto assembled = assemble(source.text);
        if (!assembled.ok())
            return assembled.error();
        const AssembleRef &artifact = assembled.value();
        return LegalRef(artifact, &artifact->unit);
    }
    auto compiled = compile(source.text, options);
    if (!compiled.ok())
        return compiled.error();
    const CompileRef &artifact = compiled.value();
    return LegalRef(artifact, &artifact->legal_unit);
}

support::Result<ReorgRef>
Session::reorganize(const Source &source, const StageOptions &options)
{
    auto legal_unit = legal(source, options);
    if (!legal_unit.ok())
        return legal_unit.error();
    return impl_->getOrCompute(
        impl_->reorg_cache, Stage::REORGANIZE, reorgKey(source, options),
        [&]() -> support::Result<ReorgRef> {
            const LegalRef &dep = legal_unit.value();
            auto artifact = std::make_shared<ReorgArtifact>();
            artifact->legal = dep;
            if (source.language == Language::SCHEDULED) {
                artifact->final_unit = *dep;
                artifact->live_in = reorg::blockLiveIn(*dep);
            } else {
                reorg::ReorgResult result =
                    reorg::reorganize(*dep, options.reorg);
                artifact->stats = result.stats;
                artifact->hints = std::move(result.hints);
                artifact->live_in = std::move(result.live_in);
                artifact->final_unit = std::move(result.unit);
            }
            auto program = assembler::link(artifact->final_unit);
            if (program.ok())
                artifact->program = program.take();
            else
                artifact->link_error = program.error();
            return ReorgRef(artifact);
        });
}

support::Result<VerifyRef>
Session::hazardVerify(const Source &source, const StageOptions &options)
{
    auto reorg = reorganize(source, options);
    if (!reorg.ok())
        return reorg.error();
    return impl_->getOrCompute(
        impl_->verify_cache, Stage::HAZARD_VERIFY,
        keyOf(options.verify) + "|" + reorgKey(source, options),
        [&]() -> support::Result<VerifyRef> {
            const ReorgRef &dep = reorg.value();
            auto artifact = std::make_shared<VerifyArtifact>();
            artifact->reorg = dep;
            // Each computed unit feeds the verify.unit_ms histogram;
            // cache hits replay the artifact without re-verifying and
            // are deliberately not re-observed.
            Clock::time_point verify_start = Clock::now();
            artifact->report = verify::verifyReorganization(
                *dep->legal, dep->final_unit, options.verify);
            obs::verifyUnitMs().observe(msSince(verify_start));
            return VerifyRef(artifact);
        });
}

support::Result<TvRef>
Session::translationValidate(const Source &source,
                             const StageOptions &options)
{
    auto reorg = reorganize(source, options);
    if (!reorg.ok())
        return reorg.error();
    return impl_->getOrCompute(
        impl_->tv_cache, Stage::TRANSLATION_VALIDATE,
        strprintf("M%zu|", options.tv_limits.max_steps) +
            reorgKey(source, options),
        [&]() -> support::Result<TvRef> {
            const ReorgRef &dep = reorg.value();
            verify::TvOptions tvopts;
            tvopts.alias = options.reorg.alias;
            tvopts.limits = options.tv_limits;
            auto artifact = std::make_shared<TvArtifact>();
            artifact->reorg = dep;
            artifact->report = verify::validateTranslation(
                *dep->legal, dep->final_unit, dep->hints, dep->live_in,
                tvopts);
            return TvRef(artifact);
        });
}

support::Result<SimRef>
Session::simulate(const Source &source, const StageOptions &options)
{
    auto reorg = reorganize(source, options);
    if (!reorg.ok())
        return reorg.error();
    return impl_->getOrCompute(
        impl_->sim_cache, Stage::SIMULATE,
        keyOf(options.sim) + "|" + reorgKey(source, options),
        [&]() -> support::Result<SimRef> {
            const ReorgRef &dep = reorg.value();
            if (dep->link_error)
                return *dep->link_error;
            sim::Machine machine;
            machine.load(dep->program);
            machine.cpu().enableProfiling(options.sim.profile);
            auto artifact = std::make_shared<SimArtifact>();
            artifact->reorg = dep;
            artifact->stop = machine.cpu().run(options.sim.max_cycles);
            if (artifact->stop != sim::StopReason::HALT)
                artifact->error = machine.cpu().errorMessage();
            artifact->console = machine.memory().consoleOutput();
            artifact->cycles = machine.cpu().stats().cycles;
            artifact->free_data_cycles =
                machine.cpu().stats().free_data_cycles;
            if (options.sim.profile) {
                workload::accumulateRefs(dep->final_unit,
                                         dep->program.origin,
                                         machine.cpu(),
                                         &artifact->refs);
                artifact->exec_counts = machine.cpu().execCounts(
                    dep->program.origin, dep->final_unit.items.size());
            }
            // Fresh machine, one run: fold its counters into the
            // process-wide sim.* metrics (cache hits re-serve the
            // artifact without re-simulating, so nothing is counted
            // twice).
            sim::publishMetrics(machine);
            return SimRef(artifact);
        });
}

support::Result<CostRef>
Session::costModel(const Source &source, const StageOptions &options)
{
    auto reorg = reorganize(source, options);
    if (!reorg.ok())
        return reorg.error();
    // The model is a pure function of the reorganized unit: no
    // verify/sim options in the key.
    return impl_->getOrCompute(
        impl_->cost_cache, Stage::COST_MODEL,
        "cost|" + reorgKey(source, options),
        [&]() -> support::Result<CostRef> {
            const ReorgRef &dep = reorg.value();
            verify::Cfg cfg = verify::buildCfg(dep->final_unit, nullptr);
            verify::CallGraph graph = verify::buildCallGraph(cfg);
            auto artifact = std::make_shared<CostArtifact>();
            artifact->reorg = dep;
            artifact->report = verify::computeCostModel(
                cfg, graph, "reorganized");
            verify::publishCostMetrics(artifact->report);
            return CostRef(artifact);
        });
}

support::Result<RangeRef>
Session::valueRange(const Source &source, const StageOptions &options)
{
    auto reorg = reorganize(source, options);
    if (!reorg.ok())
        return reorg.error();
    // Pure function of the reorganized unit plus the range knobs: no
    // verify/sim options in the key.
    return impl_->getOrCompute(
        impl_->range_cache, Stage::VALUE_RANGE,
        "range|" + keyOf(options.range) + "|" + reorgKey(source, options),
        [&]() -> support::Result<RangeRef> {
            const ReorgRef &dep = reorg.value();
            // The CFG's structural findings (VF*) are HazardVerify's to
            // report: `diags` collects the MS findings only.
            verify::Cfg cfg = verify::buildCfg(dep->final_unit, nullptr);
            verify::CallGraph graph = verify::buildCallGraph(cfg);
            verify::DiagnosticEngine diags(&dep->final_unit);
            auto artifact = std::make_shared<RangeArtifact>();
            artifact->reorg = dep;
            artifact->report = verify::checkMemorySafety(
                cfg, graph, options.range, "reorganized", &diags);
            artifact->diags = diags.diagnostics();
            verify::publishRangeMetrics(artifact->report);
            return RangeRef(artifact);
        });
}

// --------------------------------------------------- batched chains

std::vector<ChainResult>
runAll(Session &session,
       const std::vector<workload::CorpusProgram> &corpus,
       const ChainSpec &stages, const StageOptions &options,
       unsigned jobs)
{
    BatchRunner runner(jobs);
    return runner.runAll(
        corpus,
        [&](const workload::CorpusProgram &program, size_t) {
            ChainResult r;
            r.name = program.name;
            obs::Span span("chain", program.name);
            Clock::time_point start = Clock::now();
            auto fail = [&](const support::Error &error) {
                r.error = error.str();
                r.elapsed_ms = msSince(start);
                return r;
            };

            auto compiled = session.compile(program.source, options);
            if (!compiled.ok())
                return fail(compiled.error());
            r.compile = compiled.value();

            auto reorg = session.reorganize(program.source, options);
            if (!reorg.ok())
                return fail(reorg.error());
            r.reorg = reorg.value();
            if (stages.hazard_verify) {
                auto v = session.hazardVerify(program.source, options);
                if (!v.ok())
                    return fail(v.error());
                r.verify = v.value();
            }
            if (stages.translation_validate) {
                auto tv = session.translationValidate(program.source,
                                                      options);
                if (!tv.ok())
                    return fail(tv.error());
                r.tv = tv.value();
            }
            if (stages.simulate) {
                auto sim = session.simulate(program.source, options);
                if (!sim.ok())
                    return fail(sim.error());
                r.sim = sim.value();
            }
            if (stages.cost_model) {
                auto cost = session.costModel(program.source, options);
                if (!cost.ok())
                    return fail(cost.error());
                r.cost = cost.value();
            }
            if (stages.value_range) {
                auto range = session.valueRange(program.source, options);
                if (!range.ok())
                    return fail(range.error());
                r.range = range.value();
            }
            r.elapsed_ms = msSince(start);
            return r;
        });
}

} // namespace mips::pipeline
