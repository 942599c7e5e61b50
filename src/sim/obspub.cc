#include "sim/obspub.h"

#include "obs/catalog.h"
#include "sim/machine.h"

namespace mips::sim {

void
publishMetrics(const Machine &machine)
{
    const Cpu &cpu = machine.cpu();
    const MappingUnit &map = machine.mapping();
    const CpuStats &st = cpu.stats();
    obs::SimMetrics &m = obs::simMetrics();

    m.runs->add();
    m.instructions->add(st.cycles);
    m.free_data_cycles->add(st.free_data_cycles);
    m.alu_pieces->add(st.alu_pieces);
    m.loads->add(st.loads);
    m.stores->add(st.stores);
    m.long_immediates->add(st.long_immediates);
    m.branches->add(st.branches);
    m.branches_taken->add(st.branches_taken);
    m.jumps->add(st.jumps);
    m.nops->add(st.nops);
    m.packed_words->add(st.packed_words);
    m.traps->add(st.traps);
    m.exceptions->add(st.exceptions);
    m.decode_hits->add(cpu.decodeCacheHits());
    m.decode_misses->add(cpu.decodeCacheMisses());
    m.decode_invalidations->add(machine.memory().decodeInvalidations());
    m.memory_pages->add(machine.memory().residentPages());
    m.tlb_hits->add(map.tlbHits());
    m.tlb_misses->add(map.tlbMisses());
    m.tlb_flushes->add(map.tlbFlushes());
    m.map_translations->add(map.translations());
    m.map_faults->add(map.faults());
}

} // namespace mips::sim
