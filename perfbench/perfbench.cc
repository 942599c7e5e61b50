/**
 * @file
 * perfbench: one workload of the repository benchmark per process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--expect FILE]
 *
 * The driver reaches every layer from outside, through its public API
 * only: fuzz::generateBatch and fuzz::runDifferential, the
 * pipeline::Session stage calls and BatchRunner, and sim::Machine
 * construction, load and cpu().run. It reads only counters that
 * already exist (Session::stats(), the obs::Registry snapshot) plus
 * getrusage, checks every output, and prints one JSON record as the
 * last line of stdout. run.py builds this binary, adds the host
 * description and prints the benchmark's result line.
 *
 * Load is one closed loop: a serial loop, or one BatchRunner whose
 * workers each take the next item only after the previous one
 * finished. Each fuzz pass runs in a child process of its own (see
 * fuzzPass); everything else runs in this process.
 *
 * --trace 0 measures the whole window with tracing off and reports the
 * end-to-end metrics. --trace 1 splits the window in two halves, the
 * first untraced and the second with obs::Tracer on, and reports the
 * per-layer metrics of the traced half (registry, session and rusage
 * deltas over that half only) plus the tracing overhead: the traced
 * half's wall time per item over the untraced half's, minus one. A
 * metric is only emitted when the workload exercised its layer.
 */
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asm/assembler.h"
#include "fuzz/differ.h"
#include "fuzz/generator.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/batch.h"
#include "pipeline/session.h"
#include "plc/driver.h"
#include "reorg/reorganizer.h"
#include "sim/machine.h"
#include "workload/corpus.h"

namespace {

using namespace mips;
using Clock = std::chrono::steady_clock;

/** Set-up is repeated this many times per run; setup_s is the median. */
constexpr int kSetupRepeats = 9;
/** One fuzz batch: the first kFuzzPascal Pascal programs and the first
 *  kFuzzAsm assembly units of the seed's generateBatch stream, in
 *  stream order. A Pascal program costs ~8x an assembly unit, so a
 *  batch whose mix floated with the seed (the generator draws each
 *  kind independently, 60/40) would move every per-program figure
 *  with the seed; the fixed mix is the generator's own ratio. Each pass
 *  runs the whole batch against one fresh Session, so the Session's
 *  cache peaks at one batch. */
constexpr size_t kFuzzPascal = 144;
constexpr size_t kFuzzAsm = 96;
/** Span ring for the traced half; spans are harvested after every
 *  pass, so this bounds one pass, and a pass that overflows it fails
 *  the run. */
constexpr size_t kSpanRing = size_t{1} << 20;
/** Cycle budget for the stepping kernels (all halt far below it). */
constexpr uint64_t kStepBudget = 100'000'000;

// ------------------------------------------------------------ timing

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

/** CPU time of the calling thread, milliseconds. */
double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

/** Process resource usage (getrusage) at one instant. */
struct Usage
{
    double user_ms = 0;
    double sys_ms = 0;
    double minor_faults = 0;
    double involuntary_switches = 0;
};

/** This process plus its finished children (the fuzz passes). */
Usage
usageNow()
{
    Usage total;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        auto ms = [](const timeval &tv) {
            return static_cast<double>(tv.tv_sec) * 1e3 +
                   static_cast<double>(tv.tv_usec) / 1e3;
        };
        total.user_ms += ms(ru.ru_utime);
        total.sys_ms += ms(ru.ru_stime);
        total.minor_faults += static_cast<double>(ru.ru_minflt);
        total.involuntary_switches += static_cast<double>(ru.ru_nivcsw);
    }
    return total;
}

Usage
operator-(const Usage &a, const Usage &b)
{
    return {a.user_ms - b.user_ms, a.sys_ms - b.sys_ms,
            a.minor_faults - b.minor_faults,
            a.involuntary_switches - b.involuntary_switches};
}

/** Peak RSS of this process or of its largest finished child. */
double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(std::max(self.ru_maxrss,
                                        children.ru_maxrss)) /
           1024.0;
}

unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
}

// ------------------------------------------------------------- stats

/** Linear-interpolated percentile `p` (0..100) of `v`. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** The highest of the reported percentiles with at least ten samples
 *  beyond it (50 when even p90 has fewer). */
double
tailPercentile(size_t samples)
{
    // In per-mille, so that 100 samples put exactly 10 beyond p90.
    for (size_t per_mille : {999, 990, 950, 900})
        if (samples * (1000 - per_mille) >= 10 * 1000)
            return static_cast<double>(per_mille) / 10.0;
    return 50.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ------------------------------------------------------------ report

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** What one run measured and checked, rendered as one JSON line. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** A figure printed beside the metrics (counts, the tail
     *  percentile, the tracing overhead's bases). */
    void note(const std::string &key, double value) { notes_[key] = value; }

    void attempt(size_t items) { attempted_ += items; }

    /** One failed check. Only the first few messages are kept. */
    void
    fail(const std::string &message)
    {
        ++failed_;
        if (failures_.size() < 10)
            failures_.push_back(message);
    }

    bool ok() const { return failed_ == 0; }

    std::string
    json(const std::string &workload) const
    {
        std::string out = "{\"workload\": " + jsonString(workload);
        out += ", \"correct\": ";
        out += ok() ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted_);
        out += ", \"failed\": " + std::to_string(failed_);
        out += ", \"failures\": [";
        for (size_t i = 0; i < failures_.size(); ++i)
            out += (i ? ", " : "") + jsonString(failures_[i]);
        out += "], \"notes\": {";
        bool first = true;
        for (const auto &[key, value] : notes_) {
            out += (first ? "" : ", ") + jsonString(key) + ": " +
                   number(value);
            first = false;
        }
        out += "}, \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            out += (i ? ", " : "") + jsonString(m.name) +
                   ": {\"value\": " + number(m.value) +
                   ", \"unit\": " + jsonString(m.unit) + "}";
        }
        return out + "}}";
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::map<std::string, double> notes_;
    std::vector<std::string> failures_;
    size_t attempted_ = 0;
    size_t failed_ = 0;
};

// ------------------------------------------------------------ window

/** Stages the benchmark reports (parse has no consumer here). */
constexpr pipeline::Stage kStages[] = {
    pipeline::Stage::COMPILE,
    pipeline::Stage::ASSEMBLE,
    pipeline::Stage::REORGANIZE,
    pipeline::Stage::HAZARD_VERIFY,
    pipeline::Stage::TRANSLATION_VALIDATE,
    pipeline::Stage::SIMULATE,
    pipeline::Stage::COST_MODEL,
    pipeline::Stage::VALUE_RANGE,
};

void
addStats(pipeline::PipelineStats *into, const pipeline::PipelineStats &s)
{
    for (size_t i = 0; i < pipeline::kStageCount; ++i) {
        into->stage[i].hits += s.stage[i].hits;
        into->stage[i].misses += s.stage[i].misses;
        into->stage[i].wait_blocks += s.stage[i].wait_blocks;
        into->stage[i].miss_ms += s.stage[i].miss_ms;
    }
    into->shard_conflicts += s.shard_conflicts;
}

const pipeline::StageCounters &
stageOf(const pipeline::PipelineStats &s, pipeline::Stage stage)
{
    return s.stage[static_cast<size_t>(stage)];
}

/** One measured window: whole passes over the workload's inputs, with
 *  every counter taken as a delta over the window. */
struct Window
{
    double wall_s = 0;
    size_t passes = 0;
    size_t items = 0;
    /** Verdict times, one per program, trust pass or stepping round. */
    std::vector<double> latency_ms;
    /** Throughput and CPU cost of each pass. Their medians are the
     *  window's figures, so a burst of load from outside the process
     *  that spans less than half the passes does not move them. */
    std::vector<double> pass_items_per_s;
    std::vector<double> pass_cpu_ms_per_item;
    Usage usage;
    obs::Snapshot before;
    obs::Snapshot after;
    /** Session counters, summed over the window's sessions. */
    pipeline::PipelineStats pipe;
    /** Workload-specific sums (stage CPU time, stepping time, ...). */
    std::map<std::string, double> sums;
    /** Registry deltas reported by the window's child processes. */
    std::map<std::string, double, std::less<>> child_counters;
    /** Traced windows: self time per span name, and spans seen. */
    std::map<std::string, double> self_ms;
    double spans = 0;

    double
    counter(std::string_view name) const
    {
        auto child = child_counters.find(name);
        return static_cast<double>(after.counter(name) -
                                   before.counter(name)) +
               (child == child_counters.end() ? 0.0 : child->second);
    }

    /** Sum of the window deltas of every counter named prefix*. */
    double
    counterPrefix(std::string_view prefix) const
    {
        double total = 0;
        for (const obs::Sample &s : after.samples)
            if (s.kind == obs::MetricKind::COUNTER &&
                std::string_view(s.name).substr(0, prefix.size()) ==
                    prefix)
                total += counter(s.name);
        return total;
    }
};

/** Fold the spans of one pass into `w` and clear the ring. Self time
 *  is a span's duration minus its direct children's (a child runs on
 *  its parent's thread, inside it, so children never overlap). */
void
harvestSpans(Window *w, Report *report)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    if (uint64_t dropped = tracer.dropped())
        report->fail("span ring overflowed: " + std::to_string(dropped) +
                     " spans dropped");
    std::vector<obs::SpanRecord> spans = tracer.spans();
    std::unordered_map<uint64_t, int64_t> child_us;
    for (const obs::SpanRecord &s : spans)
        if (s.parent != 0)
            child_us[s.parent] += s.dur_us;
    for (const obs::SpanRecord &s : spans) {
        auto it = child_us.find(s.id);
        int64_t self = s.dur_us - (it == child_us.end() ? 0 : it->second);
        w->self_ms[s.name] +=
            static_cast<double>(std::max<int64_t>(self, 0)) / 1e3;
    }
    w->spans += static_cast<double>(spans.size());
    tracer.enable(true); // re-arm: clears the ring for the next pass
}

/**
 * Run whole passes until `seconds` have elapsed (at least one pass).
 * With `traced`, obs::Tracer is on for the window and its spans are
 * harvested after every pass.
 */
Window
measure(double seconds, bool traced, Report *report,
        const std::function<void(Window &)> &pass)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    if (traced) {
        tracer.setCapacity(kSpanRing);
        tracer.enable(true);
    }
    Window w;
    w.before = obs::Registry::instance().snapshot();
    Usage start_usage = usageNow();
    Clock::time_point start = Clock::now();
    do {
        Clock::time_point pass_start = Clock::now();
        Usage pass_usage = usageNow();
        size_t items = w.items;
        pass(w);
        double n = static_cast<double>(w.items - items);
        Usage used = usageNow() - pass_usage;
        w.pass_items_per_s.push_back(ratio(n, secondsSince(pass_start)));
        w.pass_cpu_ms_per_item.push_back(
            ratio(used.user_ms + used.sys_ms, n));
        ++w.passes;
        if (traced)
            harvestSpans(&w, report);
    } while (secondsSince(start) < seconds);
    w.wall_s = secondsSince(start);
    w.usage = usageNow() - start_usage;
    w.after = obs::Registry::instance().snapshot();
    if (traced)
        tracer.enable(false);
    report->attempt(w.items);
    return w;
}

/** The end-to-end metrics every workload reports. `latency_ms` holds
 *  one sample per verdict: a fuzz program (its median over the passes),
 *  a corpus trust pass or a stepping round. */
void
reportEndToEnd(Report *r, const Window &w, double setup_s,
               const std::vector<double> &latency_ms)
{
    double tail_p = tailPercentile(latency_ms.size());
    r->metric("setup_s", setup_s, "s");
    r->metric("programs_per_s", median(w.pass_items_per_s), "1/s");
    r->metric("verdict_ms_p50", percentile(latency_ms, 50.0), "ms");
    r->metric("verdict_ms_tail", percentile(latency_ms, tail_p), "ms");
    r->metric("cpu_ms_per_item", median(w.pass_cpu_ms_per_item), "ms");
    r->metric("peak_rss_mb", peakRssMb(), "MB");
    r->note("tail_percentile", tail_p);
    r->note("tail_samples", static_cast<double>(latency_ms.size()));
    r->note("window_s", w.wall_s);
    r->note("window_passes", static_cast<double>(w.passes));
    r->note("window_items", static_cast<double>(w.items));
}

/** Per-layer metrics every workload can read from the same sources:
 *  rusage, the Registry and the Session counters of the window. */
void
reportCommonLayers(Report *r, const Window &w)
{
    r->metric("os.user_ms", w.usage.user_ms, "ms");
    r->metric("os.sys_ms", w.usage.sys_ms, "ms");
    r->metric("os.minor_faults", w.usage.minor_faults, "count");
    r->metric("os.involuntary_ctx_switches", w.usage.involuntary_switches,
              "count");

    double hits = 0, lookups = 0, waits = 0;
    for (pipeline::Stage stage : kStages) {
        const pipeline::StageCounters &c = stageOf(w.pipe, stage);
        hits += static_cast<double>(c.hits);
        lookups += static_cast<double>(c.hits + c.misses);
        waits += static_cast<double>(c.wait_blocks);
    }
    if (lookups > 0) {
        for (pipeline::Stage stage : kStages) {
            const pipeline::StageCounters &c = stageOf(w.pipe, stage);
            std::string prefix =
                std::string("pipeline.") + pipeline::stageName(stage);
            r->metric(prefix + ".hits", static_cast<double>(c.hits),
                      "count");
            r->metric(prefix + ".misses", static_cast<double>(c.misses),
                      "count");
            r->metric(prefix + ".miss_ms", c.miss_ms, "ms");
        }
        r->metric("pipeline.cache.hit_ratio", ratio(hits, lookups),
                  "ratio");
        r->metric("pipeline.cache.wait_blocks", waits, "count");
        r->metric("pipeline.cache.shard_conflicts",
                  static_cast<double>(w.pipe.shard_conflicts), "count");
    }

    if (w.counter("sim.runs") > 0) {
        double dh = w.counter("sim.decode_cache.hits");
        double dm = w.counter("sim.decode_cache.misses");
        double th = w.counter("sim.tlb.hits");
        double tm = w.counter("sim.tlb.misses");
        r->metric("sim.instructions", w.counter("sim.instructions"),
                  "count");
        r->metric("sim.decode_cache.hit_ratio", ratio(dh, dh + dm),
                  "ratio");
        if (th + tm > 0)
            r->metric("sim.tlb.hit_ratio", ratio(th, th + tm), "ratio");
    }
    if (w.counter("verify.units") > 0)
        r->metric("verify.diagnostics", w.counterPrefix("verify.diag."),
                  "count");
    if (w.counter("tv.units") > 0)
        r->metric("tv.proved_ratio",
                  ratio(w.counter("tv.proved"), w.counter("tv.units")),
                  "ratio");
}

/** Run the window untraced (end-to-end metrics) or as an untraced and
 *  a traced half (per-layer metrics and overhead). `layers` adds the
 *  workload's own per-layer metrics of the traced half. */
void
runWindows(double seconds, bool trace, Report *r,
           const std::function<void(Window &)> &pass,
           const std::function<void(const Window &)> &end_to_end,
           const std::function<void(const Window &)> &layers)
{
    if (!trace) {
        end_to_end(measure(seconds, false, r, pass));
        return;
    }
    Window plain = measure(seconds / 2, false, r, pass);
    Window traced = measure(seconds / 2, true, r, pass);
    double plain_ms = ratio(plain.wall_s * 1e3,
                            static_cast<double>(plain.items));
    double traced_ms = ratio(traced.wall_s * 1e3,
                             static_cast<double>(traced.items));
    r->metric("trace.overhead_ratio", ratio(traced_ms, plain_ms) - 1.0,
              "ratio");
    r->note("trace.untraced_ms_per_item", plain_ms);
    r->note("trace.traced_ms_per_item", traced_ms);
    r->note("trace.spans", traced.spans);
    r->note("window_s", traced.wall_s);
    r->note("window_items", static_cast<double>(traced.items));
    reportCommonLayers(r, traced);
    layers(traced);
}

// -------------------------------------------------------------- fuzz

/** A verdict as one line of text: what must repeat across passes and
 *  between the serial and the parallel runner. */
std::string
verdictLine(const fuzz::DiffResult &v)
{
    std::string line = v.name + (v.ok ? " ok " : " FAIL ") +
                       (v.front_end_error ? "front-end " : "") +
                       std::to_string(v.configs) + " " + v.failure;
    std::replace(line.begin(), line.end(), '\n', ' ');
    return line;
}

/** Pipeline cycles and static words of `program` under the first
 *  (fully optimizing) matrix configuration. */
std::pair<uint64_t, uint64_t>
primaryConfigCost(pipeline::Session &session,
                  const fuzz::GeneratedProgram &program, Report *r)
{
    const std::string source = program.render();
    fuzz::DiffOptions diff;
    fuzz::FuzzConfig primary = program.kind == fuzz::ProgramKind::PASCAL
                                   ? fuzz::pascalMatrix().front()
                                   : fuzz::asmMatrix().front();
    if (program.kind == fuzz::ProgramKind::PASCAL) {
        pipeline::StageOptions o;
        o.compile.layout = primary.layout;
        o.compile.jump_tables = primary.jump_tables;
        o.reorg = primary.reorg;
        o.sim.max_cycles = diff.max_cycles;
        auto sim = session.simulate(source, o);
        if (!sim.ok()) {
            r->fail(program.name + ": " + sim.error().str());
            return {0, 0};
        }
        return {sim.value()->cycles,
                sim.value()->reorg->program.image.size()};
    }
    auto unit = session.assemble(source);
    if (!unit.ok()) {
        r->fail(program.name + ": " + unit.error().str());
        return {0, 0};
    }
    reorg::ReorgResult rr =
        reorg::reorganize(unit.value()->unit, primary.reorg);
    auto linked = assembler::link(rr.unit);
    if (!linked.ok()) {
        r->fail(program.name + ": " + linked.error().str());
        return {0, 0};
    }
    sim::Machine machine;
    machine.load(linked.value());
    if (machine.cpu().run(diff.max_cycles) != sim::StopReason::HALT)
        r->fail(program.name + ": primary configuration did not halt");
    return {machine.cpu().stats().cycles, linked.value().image.size()};
}

/** The seed's batch: see kFuzzPascal. */
std::vector<fuzz::GeneratedProgram>
fuzzBatch(uint64_t seed)
{
    for (size_t stream = 2 * (kFuzzPascal + kFuzzAsm);; stream *= 2) {
        std::vector<fuzz::GeneratedProgram> batch;
        size_t pascal = 0, assembly = 0;
        for (fuzz::GeneratedProgram &p : fuzz::generateBatch(seed, stream)) {
            bool is_pascal = p.kind == fuzz::ProgramKind::PASCAL;
            size_t &taken = is_pascal ? pascal : assembly;
            if (taken < (is_pascal ? kFuzzPascal : kFuzzAsm)) {
                ++taken;
                batch.push_back(std::move(p));
            }
        }
        if (pascal == kFuzzPascal && assembly == kFuzzAsm)
            return batch;
    }
}

/**
 * Run `body` in a child forked from this process, which must hold no
 * other thread, and return what the child wrote into its string.
 */
std::string
inChild(const std::function<void(std::string *)> &body, Report *r)
{
    std::fflush(nullptr);
    int fds[2];
    if (pipe(fds) != 0) {
        r->fail("pipe failed");
        return "";
    }
    pid_t pid = fork();
    if (pid < 0) {
        r->fail("fork failed");
        close(fds[0]);
        close(fds[1]);
        return "";
    }
    if (pid == 0) {
        close(fds[0]);
        std::string out;
        body(&out);
        for (size_t done = 0; done < out.size();) {
            ssize_t n = write(fds[1], out.data() + done, out.size() - done);
            if (n <= 0)
                _exit(3);
            done += static_cast<size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);
    std::string out;
    char buf[1 << 16];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
        out.append(buf, static_cast<size_t>(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        r->fail("fuzz pass process ended with status " +
                std::to_string(status));
    return out;
}

/**
 * One fuzz pass: every program of the batch through runDifferential on
 * `runner`, against one fresh Session, in a child process. The child
 * reports per-program times and verdicts, the Session counters, its
 * Registry deltas and, when tracing, its span self times, as lines of
 * text.
 *
 * Each pass gets a fresh process because a campaign in a fresh process
 * is what `mipsverify --fuzz` runs. In one long-lived process, the
 * previous pass's freed Session leaves the heap full of free chunks,
 * later Machines are carved from them instead of fresh pages, and the
 * pass loses ~90% of its page faults and system time. How much it loses
 * depends on the order of the frees, so the same batch then ran 30%
 * faster or slower from one seed to the next.
 */
std::string
fuzzPass(const std::vector<fuzz::GeneratedProgram> &batch,
         const pipeline::BatchRunner &runner)
{
    obs::Snapshot before = obs::Registry::instance().snapshot();
    pipeline::Session session;
    std::vector<double> ms(batch.size());
    std::vector<fuzz::DiffResult> verdicts = runner.runAll(
        batch, [&](const fuzz::GeneratedProgram &p, size_t i) {
            obs::Span span("fuzz.differ", p.name);
            Clock::time_point start = Clock::now();
            fuzz::DiffResult result = fuzz::runDifferential(session, p);
            ms[i] = msSince(start);
            return result;
        });
    obs::Snapshot after = obs::Registry::instance().snapshot();

    std::ostringstream out;
    out.precision(17);
    for (size_t i = 0; i < batch.size(); ++i)
        out << "program " << i << " " << ms[i] << " "
            << verdictLine(verdicts[i]) << "\n";
    pipeline::PipelineStats stats = session.stats();
    for (size_t i = 0; i < pipeline::kStageCount; ++i)
        out << "stage " << i << " " << stats.stage[i].hits << " "
            << stats.stage[i].misses << " " << stats.stage[i].wait_blocks
            << " " << stats.stage[i].miss_ms << "\n";
    out << "conflicts " << stats.shard_conflicts << "\n";
    for (const obs::Sample &s : after.samples)
        if (s.kind == obs::MetricKind::COUNTER)
            if (uint64_t d = s.counter_value - before.counter(s.name))
                out << "counter " << s.name << " " << d << "\n";
    obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
        Window spans;
        Report dropped;
        harvestSpans(&spans, &dropped);
        if (!dropped.ok())
            out << "dropped\n";
        for (const auto &[name, self] : spans.self_ms)
            out << "self " << name << " " << self << "\n";
        out << "spans " << spans.spans << "\n";
    }
    return out.str();
}

void
runFuzz(uint64_t seed, double seconds, bool trace, bool parallel,
        Report *r)
{
    std::vector<fuzz::GeneratedProgram> batch;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        Clock::time_point start = Clock::now();
        batch = fuzzBatch(seed);
        setup_s.push_back(secondsSince(start));
    }
    malloc_trim(0); // the passes fork from this heap

    unsigned workers = parallel ? std::min(affinityCpus(), 4u) : 1u;
    pipeline::BatchRunner runner(workers);
    r->note("fuzz.workers", workers);

    std::vector<std::string> reference; // verdicts of the first pass
    std::vector<std::vector<double>> program_ms(batch.size());
    auto pass = [&](Window &w) {
        std::istringstream in(inChild(
            [&](std::string *out) { *out = fuzzPass(batch, runner); }, r));
        std::vector<std::string> verdicts(batch.size());
        pipeline::PipelineStats stats;
        for (std::string kind; in >> kind;) {
            if (kind == "program") {
                size_t i = 0;
                double ms = 0;
                std::string verdict;
                in >> i >> ms;
                std::getline(in >> std::ws, verdict);
                if (i >= batch.size())
                    continue;
                program_ms[i].push_back(ms);
                verdicts[i] = verdict;
            } else if (kind == "stage") {
                size_t i = 0;
                pipeline::StageCounters c;
                in >> i >> c.hits >> c.misses >> c.wait_blocks >> c.miss_ms;
                if (i < pipeline::kStageCount)
                    stats.stage[i] = c;
            } else if (kind == "conflicts") {
                in >> stats.shard_conflicts;
            } else if (kind == "counter") {
                std::string name;
                double delta = 0;
                in >> name >> delta;
                w.child_counters[name] += delta;
            } else if (kind == "self") {
                std::string name;
                double ms = 0;
                in >> name >> ms;
                w.self_ms[name] += ms;
            } else if (kind == "spans") {
                double n = 0;
                in >> n;
                w.spans += n;
            } else if (kind == "dropped") {
                r->fail("span ring overflowed in a fuzz pass");
            }
        }
        addStats(&w.pipe, stats);
        w.items += batch.size();
        for (size_t i = 0; i < batch.size(); ++i) {
            const std::string &v = verdicts[i];
            if (v.empty())
                r->fail(batch[i].name + ": no verdict");
            else if (v.find(" ok ") == std::string::npos)
                r->fail(v);
            else if (!reference.empty() && v != reference[i])
                r->fail(batch[i].name + ": verdict changed between "
                                        "passes");
        }
        if (reference.empty())
            reference = std::move(verdicts);
    };

    auto end_to_end = [&](const Window &w) {
        // One sample per program (its median over the passes): passes
        // repeat the batch, so the programs are the independent draws.
        std::vector<double> latency_ms;
        for (const std::vector<double> &v : program_ms)
            latency_ms.push_back(median(v));
        reportEndToEnd(r, w, median(setup_s), latency_ms);
    };

    auto layers = [&](const Window &w) {
        r->metric("fuzz.generate_ms", median(setup_s) * 1e3, "ms");
        r->metric("fuzz.programs", w.counter("fuzz.programs"), "count");
        r->metric("fuzz.asm_programs", kFuzzAsm, "count");
        r->metric("fuzz.differ_ms", w.self_ms.count("fuzz.differ")
                                        ? w.self_ms.at("fuzz.differ")
                                        : 0.0,
                  "ms");
        r->metric("fuzz.configs", w.counter("pipeline.fuzz.chains") -
                                      w.counter("pipeline.fuzz.oracle_failures"),
                  "count");
        r->metric("sim_minstr_per_s",
                  ratio(w.counter("sim.instructions"),
                        stageOf(w.pipe, pipeline::Stage::SIMULATE).miss_ms *
                            1e3),
                  "Minstr/s");
        double busy_ms = w.counter("batch.worker_busy_us") / 1e3;
        r->metric("batch.workers", workers, "count");
        r->metric("batch.worker_busy_ms", busy_ms, "ms");
        r->metric("batch.idle_ratio",
                  1.0 - ratio(busy_ms, workers * w.wall_s * 1e3), "ratio");
        r->metric("batch.steals", w.counter("batch.steals"), "count");
        r->metric("batch.chunk_claims", w.counter("batch.chunk_claims"),
                  "count");
        pipeline::Session session;
        double cycles = 0, words = 0;
        for (const fuzz::GeneratedProgram &p : batch) {
            auto [c, n] = primaryConfigCost(session, p, r);
            cycles += static_cast<double>(c);
            words += static_cast<double>(n);
        }
        r->metric("guest_cycles", cycles, "cycles");
        r->metric("code_words", words, "words");
    };

    runWindows(seconds, trace, r, pass, end_to_end, layers);

    // After the window, the whole batch once more on this thread against
    // a fresh Session: the serial and the parallel verdicts must agree.
    if (parallel) {
        pipeline::Session serial;
        r->attempt(batch.size());
        for (size_t i = 0; i < batch.size(); ++i)
            if (verdictLine(fuzz::runDifferential(serial, batch[i])) !=
                reference[i])
                r->fail(batch[i].name +
                        ": serial and parallel verdicts differ");
    }
}

// ------------------------------------------------------ corpus trust

struct TrustProgram
{
    std::string name;
    std::string source;
    std::string expected; ///< console output the chain must produce
};

/** The 14 hand-written programs: corpus(), dispatchCorpus() and the
 *  three Table 11 programs. */
std::vector<TrustProgram>
trustPrograms()
{
    std::vector<workload::CorpusProgram> all = workload::corpus();
    for (const workload::CorpusProgram &p : workload::dispatchCorpus())
        all.push_back(p);
    all.push_back(workload::fibonacciProgram());
    all.push_back(workload::puzzle0Program());
    all.push_back(workload::puzzle1Program());
    std::vector<TrustProgram> out;
    for (const workload::CorpusProgram &p : all)
        out.push_back({p.name, p.source, p.expected_output});
    return out;
}

/** Fill in the expected output of programs that carry none: their
 *  legal (pre-reorganization) code on the functional machine. */
void
functionalReference(std::vector<TrustProgram> *programs,
                    const pipeline::StageOptions &options, Report *r)
{
    pipeline::Session session;
    for (TrustProgram &p : *programs) {
        if (!p.expected.empty())
            continue;
        auto compiled = session.compile(p.source, options);
        if (!compiled.ok()) {
            r->fail(p.name + ": " + compiled.error().str());
            continue;
        }
        auto legal = assembler::link(compiled.value()->legal_unit);
        if (!legal.ok()) {
            r->fail(p.name + ": " + legal.error().str());
            continue;
        }
        sim::FunctionalRun run =
            sim::runFunctional(legal.value(), options.sim.max_cycles);
        if (run.reason != sim::StopReason::HALT)
            r->fail(p.name + ": functional reference did not halt");
        p.expected = run.memory->consoleOutput();
    }
}

void
runCorpusTrust(double seconds, bool trace, Report *r)
{
    pipeline::StageOptions options;
    options.sim.profile = true;

    std::vector<TrustProgram> programs;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        Clock::time_point start = Clock::now();
        programs = trustPrograms();
        functionalReference(&programs, options, r);
        setup_s.push_back(secondsSince(start));
    }

    // Per-pass figures must repeat exactly; the first pass defines them.
    double guest_cycles = -1, code_words = -1;
    reorg::ReorgStats reorg_stats;

    auto pass = [&](Window &w) {
        Clock::time_point pass_start = Clock::now();
        pipeline::Session session;
        double cycles = 0, words = 0;
        reorg::ReorgStats stats;
        for (const TrustProgram &p : programs) {
            bool chain_ok = true;
            auto check = [&](bool ok, const std::string &what) {
                if (!ok && chain_ok) {
                    r->fail(p.name + ": " + what);
                    chain_ok = false;
                }
                return ok;
            };
            // Each stage call is timed on its own; its dependencies are
            // cache hits by then, so the time is the stage's own work.
            auto timed = [&](pipeline::Stage stage, auto call) {
                std::string name = pipeline::stageName(stage);
                obs::Span span("trust." + name, p.name);
                double cpu = threadCpuMs();
                Clock::time_point start = Clock::now();
                auto result = call();
                double ms = msSince(start);
                w.sums["cpu_ms." + name] += threadCpuMs() - cpu;
                if (stage == pipeline::Stage::SIMULATE)
                    w.sums["sim_ms"] += ms;
                if (!result.ok())
                    check(false, name + ": " + result.error().str());
                return result;
            };
            using pipeline::Stage;
            auto compiled = timed(Stage::COMPILE, [&] {
                return session.compile(p.source, options);
            });
            auto reorganized = timed(Stage::REORGANIZE, [&] {
                return session.reorganize(p.source, options);
            });
            auto verified = timed(Stage::HAZARD_VERIFY, [&] {
                return session.hazardVerify(p.source, options);
            });
            auto validated = timed(Stage::TRANSLATION_VALIDATE, [&] {
                return session.translationValidate(p.source, options);
            });
            auto simulated = timed(Stage::SIMULATE, [&] {
                return session.simulate(p.source, options);
            });
            auto costed = timed(Stage::COST_MODEL, [&] {
                return session.costModel(p.source, options);
            });
            auto ranged = timed(Stage::VALUE_RANGE, [&] {
                return session.valueRange(p.source, options);
            });
            ++w.items;
            if (!compiled.ok() || !reorganized.ok() || !verified.ok() ||
                !validated.ok() || !simulated.ok() || !costed.ok() ||
                !ranged.ok())
                continue;
            check(verified.value()->report.clean(),
                  "hazard verification not clean");
            const verify::VerifyReport &tv = validated.value()->report;
            check(tv.errors == 0 && tv.notes == 0,
                  "translation validation not proved");
            const pipeline::SimArtifact &sim = *simulated.value();
            check(sim.stop == sim::StopReason::HALT,
                  "pipeline machine did not halt");
            check(sim.console == p.expected,
                  "console \"" + sim.console + "\" != expected \"" +
                      p.expected + "\"");
            cycles += static_cast<double>(sim.cycles);
            words += static_cast<double>(
                reorganized.value()->program.image.size());
            const reorg::ReorgStats &s = reorganized.value()->stats;
            stats.output_words += s.output_words;
            stats.noops_inserted += s.noops_inserted;
            stats.packed_words += s.packed_words;
            stats.slots_filled_move += s.slots_filled_move;
            stats.slots_filled_dup += s.slots_filled_dup;
            stats.slots_filled_hoist += s.slots_filled_hoist;
        }
        addStats(&w.pipe, session.stats());
        w.sums["sim_cycles"] += cycles;
        w.latency_ms.push_back(msSince(pass_start));
        if (guest_cycles < 0) {
            guest_cycles = cycles;
            code_words = words;
            reorg_stats = stats;
        } else if (cycles != guest_cycles || words != code_words) {
            r->fail("guest cycles or code words changed between passes");
        }
    };

    auto end_to_end = [&](const Window &w) {
        reportEndToEnd(r, w, median(setup_s), w.latency_ms);
    };

    auto layers = [&](const Window &w) {
        r->metric("sim_minstr_per_s",
                  ratio(w.sums.at("sim_cycles"), w.sums.at("sim_ms") * 1e3),
                  "Minstr/s");
        for (pipeline::Stage stage : kStages) {
            std::string name = pipeline::stageName(stage);
            auto it = w.sums.find("cpu_ms." + name);
            r->metric("pipeline." + name + ".cpu_ms",
                      it == w.sums.end() ? 0.0 : it->second, "ms");
        }
        r->metric("reorg.output_words",
                  static_cast<double>(reorg_stats.output_words), "words");
        r->metric("reorg.noops_inserted",
                  static_cast<double>(reorg_stats.noops_inserted),
                  "count");
        r->metric("reorg.slots_filled",
                  static_cast<double>(reorg_stats.slots_filled_move +
                                      reorg_stats.slots_filled_dup +
                                      reorg_stats.slots_filled_hoist),
                  "count");
        r->metric("reorg.packed_words",
                  static_cast<double>(reorg_stats.packed_words), "words");
        r->metric("guest_cycles", guest_cycles, "cycles");
        r->metric("code_words", code_words, "words");
    };

    runWindows(seconds, trace, r, pass, end_to_end, layers);
}

// ------------------------------------------------------ sim stepping

/** One stepping run: a linked program, unmapped or under an identity
 *  page map. */
struct Kernel
{
    std::string name;
    assembler::Program program;
    bool mapped = false;
};

/** The raw busy loop: 300K instructions, one store per iteration. */
const char *const kBusyLoop = "  ldi #100000, r1\n"
                              "loop: sub r1, #1, r1\n"
                              "  st r1, @500\n"
                              "  bgt r1, #0, loop\n"
                              "  nop\n"
                              "  halt\n";

/** Copy a 100K-word block: 2 data references per 5 instructions. The
 *  `sub` fills the load's delay slot. */
const char *const kCopyLoop = "  ldi #100000, r1\n"
                              "  ldi #200000, r2\n"
                              "  ldi #400000, r3\n"
                              "loop: ld (r2+r1), r4\n"
                              "  sub r1, #1, r1\n"
                              "  st r4, (r3+r1)\n"
                              "  bgt r1, #0, loop\n"
                              "  nop\n"
                              "  halt\n";

std::vector<Kernel>
buildKernels(Report *r)
{
    std::vector<std::pair<std::string, assembler::Program>> base;
    for (const workload::CorpusProgram *p :
         {&workload::fibonacciProgram(), &workload::puzzle0Program(),
          &workload::puzzle1Program(),
          &workload::dispatchCorpus().front()}) {
        auto exe = plc::buildExecutable(p->source);
        if (!exe.ok()) {
            r->fail(std::string(p->name) + ": " + exe.error().str());
            continue;
        }
        base.emplace_back(p->name, exe.value().program);
    }
    for (auto [name, text] : {std::pair{"busy_loop", kBusyLoop},
                              std::pair{"copy_loop", kCopyLoop}}) {
        auto program = assembler::assemble(text);
        if (!program.ok()) {
            r->fail(std::string(name) + ": " + program.error().str());
            continue;
        }
        base.emplace_back(name, program.value());
    }
    std::vector<Kernel> kernels;
    for (const auto &[name, program] : base)
        kernels.push_back({name, program, false});
    for (const auto &[name, program] : base)
        kernels.push_back({name + "_mapped", program, true});
    return kernels;
}

/** Identity-map all of physical memory (seg_bits 0 folds low
 *  addresses to themselves), so mapped runs translate every fetch and
 *  data reference through the micro-TLB. */
void
identityMap(sim::Machine *machine)
{
    sim::MappingUnit &mu = machine->mapping();
    mu.configure(0, 0);
    uint32_t frames = machine->memory().size() >> sim::kPageBits;
    for (uint32_t frame = 0; frame < frames; ++frame)
        mu.installPage(frame << sim::kPageBits, frame);
}

std::string
hexOf(const std::string &s)
{
    if (s.empty())
        return "-";
    std::string out;
    char buf[4];
    for (unsigned char c : s) {
        std::snprintf(buf, sizeof(buf), "%02x", c);
        out += buf;
    }
    return out;
}

/** The recorded outcome of each kernel: `name cycles console-hex`
 *  lines ('-' for an empty console; '#' starts a comment). */
std::map<std::string, std::pair<uint64_t, std::string>>
readExpected(const std::string &path, Report *r)
{
    std::map<std::string, std::pair<uint64_t, std::string>> out;
    std::ifstream in(path);
    if (!in) {
        r->fail("cannot read recorded kernel outcomes " + path);
        return out;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, console;
        uint64_t cycles = 0;
        if (fields >> name >> cycles >> console)
            out[name] = {cycles, console};
        else
            r->fail("malformed line in " + path + ": " + line);
    }
    return out;
}

void
runSimStepping(double seconds, bool trace, const std::string &expect_path,
               Report *r)
{
    auto expected = readExpected(expect_path, r);

    std::vector<Kernel> kernels;
    std::unique_ptr<sim::Machine> machine;
    std::vector<double> setup_s, construct_us;
    for (int i = 0; i < kSetupRepeats; ++i) {
        Clock::time_point start = Clock::now();
        kernels = buildKernels(r);
        Clock::time_point construct = Clock::now();
        machine = std::make_unique<sim::Machine>();
        construct_us.push_back(msSince(construct) * 1e3);
        identityMap(machine.get());
        setup_s.push_back(secondsSince(start));
    }

    double guest_cycles = 0, code_words = 0;
    for (const Kernel &k : kernels) {
        auto it = expected.find(k.name);
        if (it == expected.end())
            r->fail(k.name + ": no recorded outcome");
        else
            guest_cycles += static_cast<double>(it->second.first);
        if (!k.mapped)
            code_words += static_cast<double>(k.program.image.size());
    }

    sim::Cpu &cpu = machine->cpu();
    auto pass = [&](Window &w) {
        Clock::time_point round_start = Clock::now();
        uint64_t decode_hits = cpu.decodeCacheHits();
        uint64_t decode_misses = cpu.decodeCacheMisses();
        uint64_t tlb_hits = machine->mapping().tlbHits();
        uint64_t tlb_misses = machine->mapping().tlbMisses();
        for (const Kernel &k : kernels) {
            Clock::time_point start = Clock::now();
            {
                obs::Span span("sim.load", k.name);
                machine->load(k.program);
                if (k.mapped)
                    cpu.surprise().map_enable = true;
                cpu.clearStats();
            }
            size_t console_from = machine->memory().consoleOutput().size();
            Clock::time_point stepped = Clock::now();
            sim::StopReason stop;
            {
                obs::Span span("sim.run", k.name);
                stop = cpu.run(kStepBudget);
            }
            double step_s = secondsSince(stepped);
            ++w.items;
            w.sums["load_us"] +=
                std::chrono::duration<double, std::micro>(stepped - start)
                    .count();
            w.sums["step_s"] += step_s;
            uint64_t cycles = cpu.stats().cycles;
            w.sums["instructions"] += static_cast<double>(cycles);
            std::string console =
                machine->memory().consoleOutput().substr(console_from);
            auto it = expected.find(k.name);
            if (stop != sim::StopReason::HALT)
                r->fail(k.name + ": did not halt");
            else if (it == expected.end() || it->second.first != cycles ||
                     it->second.second != hexOf(console))
                r->fail(k.name + ": observed '" + k.name + " " +
                        std::to_string(cycles) + " " + hexOf(console) +
                        "', not the recorded outcome");
        }
        w.sums["decode_hits"] +=
            static_cast<double>(cpu.decodeCacheHits() - decode_hits);
        w.sums["decode_misses"] +=
            static_cast<double>(cpu.decodeCacheMisses() - decode_misses);
        w.sums["tlb_hits"] += static_cast<double>(
            machine->mapping().tlbHits() - tlb_hits);
        w.sums["tlb_misses"] += static_cast<double>(
            machine->mapping().tlbMisses() - tlb_misses);
        w.latency_ms.push_back(msSince(round_start));
    };

    auto end_to_end = [&](const Window &w) {
        reportEndToEnd(r, w, median(setup_s), w.latency_ms);
    };

    auto layers = [&](const Window &w) {
        r->metric("sim_minstr_per_s",
                  ratio(w.sums.at("instructions"), w.sums.at("step_s")) /
                      1e6,
                  "Minstr/s");
        r->metric("sim.machine_setup_us", median(construct_us), "us");
        r->metric("sim.load_us",
                  ratio(w.sums.at("load_us"), static_cast<double>(w.items)),
                  "us");
        r->metric("sim.step_s", w.sums.at("step_s"), "s");
        r->metric("sim.instructions", w.sums.at("instructions"), "count");
        double dh = w.sums.at("decode_hits"), dm = w.sums.at("decode_misses");
        double th = w.sums.at("tlb_hits"), tm = w.sums.at("tlb_misses");
        r->metric("sim.decode_cache.hit_ratio", ratio(dh, dh + dm),
                  "ratio");
        r->metric("sim.tlb.hit_ratio", ratio(th, th + tm), "ratio");
        r->metric("guest_cycles", guest_cycles, "cycles");
        r->metric("code_words", code_words, "words");
    };

    runWindows(seconds, trace, r, pass, end_to_end, layers);
}

// -------------------------------------------------------------- main

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--expect FILE]\n"
                 "workloads: fuzz_serial fuzz_parallel corpus_trust "
                 "sim_stepping\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, expect = "perfbench/sim_expected.txt";
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(value);
        else if (flag == "--expect")
            expect = value;
        else
            usage();
    }
    if (argc % 2 != 1 || workload.empty() || seconds <= 0 ||
        (trace != 0 && trace != 1))
        usage();

    obs::registerBuiltinMetrics();
    Report report;
    if (workload == "fuzz_serial" || workload == "fuzz_parallel")
        runFuzz(seed, seconds, trace == 1, workload == "fuzz_parallel",
                &report);
    else if (workload == "corpus_trust")
        runCorpusTrust(seconds, trace == 1, &report);
    else if (workload == "sim_stepping")
        runSimStepping(seconds, trace == 1, expect, &report);
    else
        usage();

    std::printf("%s\n", report.json(workload).c_str());
    return report.ok() ? 0 : 1;
}
