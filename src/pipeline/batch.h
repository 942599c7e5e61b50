/**
 * @file
 * BatchRunner: a fixed-thread-pool fan-out over one claim cursor.
 *
 * `runAll` runs min(jobs, items) worker threads. Every worker runs the
 * same loop — claim the next item index off one shared atomic cursor,
 * run it, repeat until the cursor passes the end — and `jobs <= 1`
 * runs that loop on the calling thread. One claim per item
 * costs one relaxed `fetch_add` per millisecond-scale item, and a
 * worker stuck on a slow item holds nothing but that item, so no
 * claimed work is stranded behind it. The shared mutable state stays
 * auditable: the cursor, per-slot results and errors (each written by
 * exactly one thread), and whatever the callback itself shares — for
 * pipeline work that is a `Session`, whose stage caches are internally
 * synchronized.
 *
 * Determinism: results are collected by input index, so the returned
 * vector is element-wise identical at any job count. Every item runs
 * at every job count; exceptions are captured per item and the
 * lowest-index one is rethrown after all workers finish.
 *
 * `jobs == 0` means auto: one worker per core the process may use
 * (`defaultJobs()`).
 *
 * Observability: every run reports through the `batch.*` metrics
 * (items, claims, workers spawned, worker busy time, and a live
 * queue-depth gauge — see docs/METRICS.md). The gauge is add/sub
 * only: a run adds its item count when it starts and subtracts one
 * per finished item, so it counts the unfinished items of every
 * in-flight run, and concurrent runners never disturb each other.
 * Each run checks its own completion count after its workers finish.
 * Workers accumulate busy time and claim counts in locals and publish
 * them once at exit.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/catalog.h"
#include "support/cores.h"
#include "support/logging.h"

namespace mips::pipeline {

class BatchRunner
{
  public:
    /** `jobs == 0` means auto (`defaultJobs()`). */
    explicit BatchRunner(unsigned jobs)
        : jobs_(jobs == 0 ? defaultJobs() : jobs)
    {
    }

    /** One worker per core the process may use: the affinity mask
     *  capped by any cgroup CPU quota (`support::effectiveCores()`). */
    static unsigned defaultJobs() { return support::effectiveCores(); }

    unsigned jobs() const { return jobs_; }

    /**
     * Apply `fn(item, index)` to every item; returns the results in
     * input order. The result type must be default-constructible and
     * movable. `fn` must be safe to call concurrently when jobs > 1.
     */
    template <typename In, typename Fn>
    auto
    runAll(const std::vector<In> &items, Fn &&fn) const
        -> std::vector<
            std::decay_t<std::invoke_result_t<Fn &, const In &, size_t>>>
    {
        using Out =
            std::decay_t<std::invoke_result_t<Fn &, const In &, size_t>>;
        using BusyClock = std::chrono::steady_clock;
        std::vector<Out> results(items.size());
        obs::BatchMetrics &bm = obs::batchMetrics();
        bm.runs->add();
        bm.items->add(items.size());
        if (items.empty())
            return results;
        bm.queue_depth->add(static_cast<int64_t>(items.size()));

        std::vector<std::exception_ptr> errors(items.size());
        std::atomic<size_t> cursor{0};
        std::atomic<size_t> done{0};
        auto worker = [&] {
            uint64_t busy_us = 0;
            uint64_t claims = 0;
            for (;;) {
                size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= items.size())
                    break;
                ++claims;
                BusyClock::time_point start = BusyClock::now();
                try {
                    results[i] = fn(items[i], i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
                busy_us += static_cast<uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(BusyClock::now() -
                                                   start)
                        .count());
                done.fetch_add(1, std::memory_order_relaxed);
                bm.queue_depth->add(-1);
            }
            bm.worker_busy_us->add(busy_us);
            bm.claims->add(claims);
        };

        size_t threads = std::min<size_t>(jobs_, items.size());
        if (threads <= 1) {
            worker();
        } else {
            bm.workers_spawned->add(threads);
            std::vector<std::thread> pool;
            pool.reserve(threads);
            for (size_t t = 0; t < threads; ++t)
                pool.emplace_back(worker);
            for (std::thread &t : pool)
                t.join();
        }
        if (size_t n = done.load(); n != items.size())
            support::panic("BatchRunner: %zu of %zu items completed "
                           "after a run",
                           n, items.size());
        for (std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
        return results;
    }

  private:
    unsigned jobs_;
};

} // namespace mips::pipeline
