#include "sim/surprise.h"

#include "support/bits.h"
#include "support/logging.h"

namespace mips::sim {

using support::bits;
using support::insertBits;

uint32_t
Surprise::pack() const
{
    uint32_t w = 0;
    w = insertBits(w, 0, 0, supervisor);
    w = insertBits(w, 1, 1, prev_supervisor);
    w = insertBits(w, 2, 2, int_enable);
    w = insertBits(w, 3, 3, prev_int_enable);
    w = insertBits(w, 4, 4, ovf_enable);
    w = insertBits(w, 5, 5, prev_ovf_enable);
    w = insertBits(w, 6, 6, map_enable);
    w = insertBits(w, 7, 7, prev_map_enable);
    w = insertBits(w, 15, 12, static_cast<uint32_t>(cause));
    w = insertBits(w, 27, 16, detail);
    return w;
}

Surprise
Surprise::unpack(uint32_t w)
{
    Surprise s;
    s.supervisor = bits(w, 0, 0);
    s.prev_supervisor = bits(w, 1, 1);
    s.int_enable = bits(w, 2, 2);
    s.prev_int_enable = bits(w, 3, 3);
    s.ovf_enable = bits(w, 4, 4);
    s.prev_ovf_enable = bits(w, 5, 5);
    s.map_enable = bits(w, 6, 6);
    s.prev_map_enable = bits(w, 7, 7);
    s.cause = static_cast<Cause>(bits(w, 15, 12));
    s.detail = static_cast<uint16_t>(bits(w, 27, 16));
    return s;
}

void
Surprise::enterException(Cause new_cause, uint16_t new_detail)
{
    prev_supervisor = supervisor;
    prev_int_enable = int_enable;
    prev_ovf_enable = ovf_enable;
    prev_map_enable = map_enable;
    supervisor = true;
    int_enable = false;
    map_enable = false;
    cause = new_cause;
    detail = new_detail;
}

void
Surprise::returnFromException()
{
    supervisor = prev_supervisor;
    int_enable = prev_int_enable;
    ovf_enable = prev_ovf_enable;
    map_enable = prev_map_enable;
    cause = Cause::NONE;
    detail = 0;
}

} // namespace mips::sim
