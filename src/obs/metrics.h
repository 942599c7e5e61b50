/**
 * @file
 * Lock-cheap metrics registry: named monotonic counters, gauges, and
 * fixed-bucket histograms for the whole toolchain.
 *
 * The paper's method is *measuring* where cycles and bytes go (the
 * free-memory-cycle profiling of Section 3, the static size accounting
 * of Table 11); this module is the host-side equivalent for the
 * toolchain itself. Every subsystem (pipeline session, batch runner,
 * simulator, verifier) reports through one process-wide `Registry`,
 * and every consumer (mipsverify --stats, perfbench,
 * examples/observability) reads one `Snapshot` of it.
 *
 * Concurrency model: hot-path updates never take a lock. A `Counter`
 * (and each `Histogram` bucket) is one relaxed atomic. Every update in
 * the toolchain happens once per unit, run, lookup or miss, a few
 * thousand per second at most, so contention never pays for striping.
 * Relaxed ordering is deliberate: metrics are monotonic event counts,
 * not synchronization; a snapshot taken while writers run is a
 * consistent *per-metric* view, not a global atomic cut.
 *
 * Registration is idempotent and keyed by name: the first
 * `counter(name, ...)` call defines the metric, later calls return
 * the same handle (a kind conflict panics — two subsystems may share
 * a metric, never redefine it). Handles are stable for the process
 * lifetime; the intended pattern is a function-local static:
 *
 *   static obs::Counter &hits =
 *       obs::Registry::instance().counter("x.hits", "count", "...");
 *   hits.add();
 *
 * The canonical name list lives in obs/catalog.h; docs/METRICS.md
 * documents every name and scripts/check_metrics_docs.sh keeps the
 * two from drifting.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mips::obs {

/** Small dense id of the calling thread (0, 1, 2, ... in first-use
 *  order, process-wide): the tracer's Chrome-trace tid. */
unsigned threadId();

/** What a metric measures. */
enum class MetricKind : uint8_t
{
    COUNTER,   ///< monotonic event count
    GAUGE,     ///< instantaneous level, can go down
    HISTOGRAM, ///< distribution over fixed buckets
};

/** Kind name for rendering, e.g. "counter". */
const char *metricKindName(MetricKind kind);

/** Monotonic counter. */
class Counter
{
  public:
    /** Add `n` (relaxed; never takes a lock). */
    void add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }

    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

    /** Zero (tests and Registry::reset only). */
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Instantaneous level. */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
    int64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { set(0); }

  private:
    std::atomic<int64_t> v_{0};
};

/**
 * Fixed-bucket histogram. Bucket `i` counts observations with
 * `v <= bounds[i]` (and greater than the previous bound); one overflow
 * bucket past the last bound catches the rest. Each bucket count and
 * the observed-value sum is one relaxed atomic.
 */
class Histogram
{
  public:
    /** `bounds` must be non-empty and strictly increasing (panics
     *  otherwise: bucket layout is part of the documented surface). */
    explicit Histogram(std::vector<double> bounds);

    /** Record one observation (relaxed; never takes a lock). */
    void observe(double v);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Per-bucket counts, size bounds().size() + 1 (the last entry is
     *  the overflow bucket). */
    std::vector<uint64_t> bucketCounts() const;

    /** Observation count / value sum. */
    uint64_t count() const;
    double sum() const;

    /** Zero (tests and Registry::reset only). */
    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> counts_; ///< bounds + 1
    std::atomic<double> sum_{0.0};
};

/** One merged metric value inside a Snapshot. */
struct Sample
{
    std::string name;
    MetricKind kind = MetricKind::COUNTER;
    std::string unit;
    std::string help;
    uint64_t counter_value = 0; ///< COUNTER
    int64_t gauge_value = 0;    ///< GAUGE
    // HISTOGRAM:
    std::vector<double> bounds;
    std::vector<uint64_t> bucket_counts; ///< bounds + 1 (overflow last)
    uint64_t hist_count = 0;
    double hist_sum = 0.0;
};

/** A point-in-time read of every registered metric, sorted by name. */
struct Snapshot
{
    std::vector<Sample> samples;

    /** Sample by name, or nullptr. */
    const Sample *find(std::string_view name) const;

    /** Counter value by name (0 if absent or not a counter) — the
     *  convenience most callers want. */
    uint64_t counter(std::string_view name) const;

    /**
     * Render as a JSON array of metric objects:
     *   [{"name": ..., "kind": "counter", "unit": ..., "value": N},
     *    {"kind": "gauge", "value": N},
     *    {"kind": "histogram", "count": N, "sum": S,
     *     "buckets": [{"le": B, "count": N}, ...,
     *                 {"le": "+inf", "count": N}]}]
     * `indent` spaces prefix each line so reports can embed it.
     */
    std::string jsonMetricsArray(int indent = 2) const;

    /** Standalone JSON document: {"schema": 1, "metrics": [...]}. */
    std::string json() const;

    /** Render as a support::TextTable (mipsverify --stats). */
    std::string table() const;
};

/**
 * The process-wide name → metric map. All registration methods are
 * idempotent per name and thread-safe; returned references stay valid
 * for the process lifetime.
 */
class Registry
{
  public:
    static Registry &instance();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Define-or-fetch. Panics if `name` exists with another kind or,
     *  for histograms, with different bucket bounds. */
    Counter &counter(std::string_view name, std::string_view unit,
                     std::string_view help);
    Gauge &gauge(std::string_view name, std::string_view unit,
                 std::string_view help);
    Histogram &histogram(std::string_view name, std::string_view unit,
                         std::string_view help,
                         std::vector<double> bounds);

    /** Every registered name, sorted. */
    std::vector<std::string> names() const;

    /** Merged point-in-time read of everything, sorted by name. */
    Snapshot snapshot() const;

    /** Zero every value; definitions stay registered (tests). */
    void reset();

  private:
    struct Entry
    {
        MetricKind kind;
        std::string unit;
        std::string help;
        Counter *counter = nullptr;
        Gauge *gauge = nullptr;
        Histogram *histogram = nullptr;
    };

    // std::map: ordered iteration makes snapshots deterministic by
    // construction. deques give the metric objects stable addresses.
    mutable std::mutex mu_;
    std::map<std::string, Entry, std::less<>> entries_;
    std::deque<Counter> counters_;
    std::deque<Gauge> gauges_;
    std::deque<Histogram> histograms_;
};

} // namespace mips::obs
