/**
 * @file
 * How many cores the process may actually use.
 */
#pragma once

#include <string_view>

namespace mips::support {

/**
 * Whole cores a cgroup CPU quota grants: quota ÷ period, rounded down,
 * at least 1. `text` is "QUOTA PERIOD": the cgroup v2 `cpu.max` line,
 * or the cgroup v1 `cpu.cfs_quota_us` and `cpu.cfs_period_us` values
 * joined by a space. Returns 0 when the text sets no limit: a quota of
 * "max" (v2) or -1 (v1), or text that does not parse.
 */
unsigned quotaCores(std::string_view text);

/**
 * Cores the process may run on at once: the CPUs in its affinity mask,
 * capped by the cgroup v2 or v1 CPU quota, at least 1. Unlike
 * `std::thread::hardware_concurrency()`, this does not count CPUs a
 * container's quota keeps the process from using.
 */
unsigned effectiveCores();

} // namespace mips::support
