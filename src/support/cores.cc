#include "support/cores.h"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

namespace mips::support {

namespace {

/** The first line of a file; empty when it cannot be read. */
std::string
firstLine(const char *path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

} // namespace

unsigned
quotaCores(std::string_view text)
{
    std::istringstream in{std::string(text)};
    long long quota = 0;
    long long period = 0;
    // "max" fails the integer read, as does a missing file's "".
    if (!(in >> quota >> period) || quota <= 0 || period <= 0)
        return 0;
    return static_cast<unsigned>(std::clamp<long long>(
        quota / period, 1, std::numeric_limits<unsigned>::max()));
}

unsigned
effectiveCores()
{
    unsigned cores = std::max(affinityCpus(), 1u);
    unsigned quota = quotaCores(firstLine("/sys/fs/cgroup/cpu.max"));
    if (quota == 0)
        quota = quotaCores(
            firstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") + " " +
            firstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us"));
    return quota == 0 ? cores : std::min(cores, quota);
}

} // namespace mips::support
