#include "obs/metrics.h"

#include <algorithm>

#include "support/logging.h"
#include "support/strings.h"
#include "support/table.h"

namespace mips::obs {

using support::jsonEscape;
using support::panic;
using support::strprintf;

unsigned
threadId()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::COUNTER: return "counter";
    case MetricKind::GAUGE: return "gauge";
    case MetricKind::HISTOGRAM: return "histogram";
    }
    return "?";
}

// --------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    if (bounds_.empty())
        panic("Histogram: empty bucket bounds");
    for (size_t i = 1; i < bounds_.size(); ++i)
        if (bounds_[i] <= bounds_[i - 1])
            panic("Histogram: bounds not strictly increasing at %zu",
                  i);
}

void
Histogram::observe(double v)
{
    size_t idx = std::upper_bound(bounds_.begin(), bounds_.end(), v) -
                 bounds_.begin();
    // upper_bound finds the first bound > v; bucket semantics are
    // v <= bound, so step back when v sits exactly on a bound.
    if (idx > 0 && v == bounds_[idx - 1])
        --idx;
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::vector<uint64_t> counts;
    for (const auto &c : counts_)
        counts.push_back(c.load(std::memory_order_relaxed));
    return counts;
}

uint64_t
Histogram::count() const
{
    uint64_t total = 0;
    for (const auto &c : counts_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------- Snapshot

const Sample *
Snapshot::find(std::string_view name) const
{
    for (const Sample &s : samples)
        if (s.name == name)
            return &s;
    return nullptr;
}

uint64_t
Snapshot::counter(std::string_view name) const
{
    const Sample *s = find(name);
    return s != nullptr && s->kind == MetricKind::COUNTER
               ? s->counter_value
               : 0;
}

namespace {

/** Trim a %g rendering so bounds print as "10" / "0.5", not "1e+01". */
std::string
numStr(double v)
{
    return strprintf("%g", v);
}

} // namespace

std::string
Snapshot::jsonMetricsArray(int indent) const
{
    std::string pad(static_cast<size_t>(indent), ' ');
    std::string out = "[\n";
    for (size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        out += pad + "  {\"name\": \"" + jsonEscape(s.name) +
               "\", \"kind\": \"" + metricKindName(s.kind) +
               "\", \"unit\": \"" + jsonEscape(s.unit) + "\", ";
        switch (s.kind) {
        case MetricKind::COUNTER:
            out += strprintf(
                "\"value\": %llu",
                static_cast<unsigned long long>(s.counter_value));
            break;
        case MetricKind::GAUGE:
            out += strprintf("\"value\": %lld",
                             static_cast<long long>(s.gauge_value));
            break;
        case MetricKind::HISTOGRAM: {
            out += strprintf(
                "\"count\": %llu, \"sum\": %.6f, \"buckets\": [",
                static_cast<unsigned long long>(s.hist_count),
                s.hist_sum);
            for (size_t b = 0; b < s.bucket_counts.size(); ++b) {
                if (b > 0)
                    out += ", ";
                std::string le =
                    b < s.bounds.size()
                        ? numStr(s.bounds[b])
                        : std::string("\"+inf\"");
                out += strprintf(
                    "{\"le\": %s, \"count\": %llu}", le.c_str(),
                    static_cast<unsigned long long>(s.bucket_counts[b]));
            }
            out += "]";
            break;
        }
        }
        out += "}";
        out += i + 1 < samples.size() ? ",\n" : "\n";
    }
    out += pad + "]";
    return out;
}

std::string
Snapshot::json() const
{
    return "{\n  \"schema\": 1,\n  \"metrics\": " +
           jsonMetricsArray(2) + "\n}\n";
}

std::string
Snapshot::table() const
{
    support::TextTable t("Metrics registry snapshot");
    t.setHeader({"Metric", "Kind", "Value", "Unit"});
    for (const Sample &s : samples) {
        std::string value;
        switch (s.kind) {
        case MetricKind::COUNTER:
            value = strprintf(
                "%llu", static_cast<unsigned long long>(s.counter_value));
            break;
        case MetricKind::GAUGE:
            value = strprintf("%lld",
                              static_cast<long long>(s.gauge_value));
            break;
        case MetricKind::HISTOGRAM:
            value = strprintf(
                "n=%llu sum=%s",
                static_cast<unsigned long long>(s.hist_count),
                numStr(s.hist_sum).c_str());
            break;
        }
        t.addRow({s.name, metricKindName(s.kind), value, s.unit});
    }
    return t.render();
}

// ---------------------------------------------------------- Registry

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(std::string_view name, std::string_view unit,
                  std::string_view help)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (it->second.kind != MetricKind::COUNTER)
            panic("metric %s already registered as %s",
                  std::string(name).c_str(),
                  metricKindName(it->second.kind));
        return *it->second.counter;
    }
    Counter &c = counters_.emplace_back();
    Entry e;
    e.kind = MetricKind::COUNTER;
    e.unit = std::string(unit);
    e.help = std::string(help);
    e.counter = &c;
    entries_.emplace(std::string(name), std::move(e));
    return c;
}

Gauge &
Registry::gauge(std::string_view name, std::string_view unit,
                std::string_view help)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (it->second.kind != MetricKind::GAUGE)
            panic("metric %s already registered as %s",
                  std::string(name).c_str(),
                  metricKindName(it->second.kind));
        return *it->second.gauge;
    }
    Gauge &g = gauges_.emplace_back();
    Entry e;
    e.kind = MetricKind::GAUGE;
    e.unit = std::string(unit);
    e.help = std::string(help);
    e.gauge = &g;
    entries_.emplace(std::string(name), std::move(e));
    return g;
}

Histogram &
Registry::histogram(std::string_view name, std::string_view unit,
                    std::string_view help, std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (it->second.kind != MetricKind::HISTOGRAM)
            panic("metric %s already registered as %s",
                  std::string(name).c_str(),
                  metricKindName(it->second.kind));
        if (it->second.histogram->bounds() != bounds)
            panic("metric %s re-registered with different buckets",
                  std::string(name).c_str());
        return *it->second.histogram;
    }
    Histogram &h = histograms_.emplace_back(std::move(bounds));
    Entry e;
    e.kind = MetricKind::HISTOGRAM;
    e.unit = std::string(unit);
    e.help = std::string(help);
    e.histogram = &h;
    entries_.emplace(std::string(name), std::move(e));
    return h;
}

std::vector<std::string>
Registry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_)
        out.push_back(name);
    return out;
}

Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot snap;
    snap.samples.reserve(entries_.size());
    for (const auto &[name, entry] : entries_) {
        Sample s;
        s.name = name;
        s.kind = entry.kind;
        s.unit = entry.unit;
        s.help = entry.help;
        switch (entry.kind) {
        case MetricKind::COUNTER:
            s.counter_value = entry.counter->value();
            break;
        case MetricKind::GAUGE:
            s.gauge_value = entry.gauge->value();
            break;
        case MetricKind::HISTOGRAM:
            s.bounds = entry.histogram->bounds();
            s.bucket_counts = entry.histogram->bucketCounts();
            s.hist_sum = entry.histogram->sum();
            for (uint64_t c : s.bucket_counts)
                s.hist_count += c;
            break;
        }
        snap.samples.push_back(std::move(s));
    }
    return snap;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Counter &c : counters_)
        c.reset();
    for (Gauge &g : gauges_)
        g.reset();
    for (Histogram &h : histograms_)
        h.reset();
}

} // namespace mips::obs
