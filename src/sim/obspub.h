/**
 * @file
 * Bridge from the simulator's native counters to the obs registry.
 *
 * The cycle loop keeps its counters as plain struct fields (CpuStats,
 * the decode-cache and micro-TLB hit/miss counts) — the hot path must
 * not pay even a relaxed atomic per cycle. Instead, `publishMetrics`
 * folds a machine's counters into the process-wide `sim.*` metrics
 * once, after a run.
 *
 * Contract: the machine's counters are *cumulative over its lifetime*
 * (clearStats() resets CpuStats but not the host-side cache counters),
 * so publish a given Machine at most once, after its last run —
 * publishing twice double-counts. The pipeline simulate stage and the
 * fuzz differ's assembly runs both follow this pattern: fresh machine
 * → run → publish.
 */
#pragma once

namespace mips::sim {

class Machine;

/** Fold `machine`'s execution counters into the `sim.*` metrics of
 *  obs::Registry::instance(). Call once per machine, post-run. */
void publishMetrics(const Machine &machine);

} // namespace mips::sim
