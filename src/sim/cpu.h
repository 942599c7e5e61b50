/**
 * @file
 * The pipeline-semantics CPU: a cycle-level simulator of the paper's
 * five-stage, interlock-free machine.
 *
 * "All instructions execute in exactly five pipe stages" and there is
 * *no interlock hardware* (Section 4.2.1), so the simulator runs one
 * instruction per cycle and exposes the raw pipeline semantics to
 * software:
 *
 *  - **Load delay.** The register written by a load is not visible to
 *    the immediately following instruction; that instruction reads the
 *    *old* value (there is nothing to stall it). The reorganizer must
 *    schedule around this or insert a no-op.
 *  - **Delayed branches.** A taken branch executes exactly one
 *    following instruction before control transfers; indirect jumps
 *    execute two ("indirect jumps, which have a branch delay of two").
 *    A taken transfer inside the shadow of another taken transfer is
 *    architecturally undefined and stops the simulation with an error.
 *  - **ALU bypass.** ALU results are forwarded, so an ALU result *is*
 *    visible to the next instruction.
 *
 * Exceptions follow Section 3.3: instructions logically before the
 * offender complete; the offender's writes are inhibited (including
 * the ALU piece of a packed word whose memory piece faults); the
 * three return addresses needed to restart an instruction stream in
 * the shadow of an indirect jump are captured; the surprise register
 * swaps to supervisor state; and the PC is zeroed onto the dispatch
 * ROM. RFE resumes the saved three-address stream.
 *
 * The dual instruction/data memory interface is modelled by counting,
 * each cycle, whether the data port was used; idle data cycles are the
 * paper's *free memory cycles* (Section 3.1).
 *
 * **Host fast path.** Cycle-level fidelity does not require paying
 * host-side decode and hash-lookup costs every cycle. The simulator
 * keeps a direct-mapped *predecoded instruction cache* of
 * {physical address, word, Instruction} entries consulted before
 * isa::decode(), invalidated per word on every memory write (CPU
 * stores, host poke()/loadImage() — PhysMemory holds the shared tag
 * array and clears the matching tag in place, see attachDecodeTags)
 * and wholesale on reset(); together with the MappingUnit micro-TLB it
 * makes the common step() a handful of array accesses. The fast path
 * is behaviour-preserving by construction; enableFastPath(false)
 * forces the reference slow path (full decode + hash translate every
 * cycle) so tests can assert bit-identical statistics.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "isa/instruction.h"
#include "sim/mapping.h"
#include "sim/memory.h"
#include "sim/surprise.h"

namespace mips::sim {

/** Why the CPU stopped (or did not). */
enum class StopReason
{
    RUNNING,     ///< step() completed, more to do
    HALT,        ///< HALT instruction retired
    CYCLE_LIMIT, ///< run() exhausted its budget
    SIM_ERROR,   ///< architecturally undefined behaviour detected
};

/**
 * Execution statistics, including the free-memory-cycle accounting.
 *
 * `cycles` counts every issued instruction word, one per machine
 * cycle — *including* the cycles spent in exception dispatch and
 * handler code, since the machine issues those words too. Metrics
 * derived from `cycles` (freeBandwidth() in particular) therefore
 * reflect whole-machine behaviour, not just the user program.
 */
struct CpuStats
{
    uint64_t cycles = 0;          ///< instructions issued (see above)
    uint64_t alu_pieces = 0;
    uint64_t loads = 0;           ///< memory-referencing loads
    uint64_t stores = 0;
    uint64_t long_immediates = 0;
    uint64_t branches = 0;
    uint64_t branches_taken = 0;
    uint64_t jumps = 0;
    uint64_t nops = 0;            ///< words with no pieces at all
    uint64_t packed_words = 0;    ///< words carrying ALU + memory
    uint64_t traps = 0;
    uint64_t exceptions = 0;      ///< all causes, including traps
    uint64_t free_data_cycles = 0;///< cycles with the data port idle
    /** Per-cause fault accounting (read-only export for the static
     *  value-range oracle, verify/memsafety.h): how many exceptions
     *  were overflow traps, mapping page faults, and address errors.
     *  All three are included in `exceptions` above. */
    uint64_t overflow_traps = 0;
    uint64_t page_faults = 0;
    uint64_t address_errors = 0;

    /**
     * Fraction of data-memory bandwidth left unused: the Section 3.1
     * "free memory cycles" ratio, free_data_cycles / cycles. This is
     * the one canonical place the ratio is computed; report code
     * should call it rather than re-deriving it from the fields.
     */
    double
    freeBandwidth() const
    {
        return cycles ? static_cast<double>(free_data_cycles) /
                        static_cast<double>(cycles) : 0.0;
    }

    bool operator==(const CpuStats &) const = default;
};

/** The simulated processor. */
class Cpu
{
  public:
    Cpu(PhysMemory &memory, MappingUnit &mapping);
    ~Cpu();

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    /** Reset: supervisor, unmapped, PC = `pc`, registers cleared.
     *  Also clears the profiling counts. The predecode cache survives:
     *  write-driven invalidation keeps it coherent across resets. */
    void reset(uint32_t pc = 0);

    /** Execute one instruction (one cycle). */
    StopReason step();

    /** Run until HALT, an error, or `max_cycles` cycles. */
    StopReason run(uint64_t max_cycles = 10'000'000);

    // --- Architectural state -------------------------------------------

    uint32_t reg(isa::Reg r) const { return regs_[r]; }
    void setReg(isa::Reg r, uint32_t value);
    uint32_t lo() const { return lo_; }
    void setLo(uint32_t value) { lo_ = value; }

    /** Address of the next instruction to execute. */
    uint32_t pc() const { return stream_[0]; }
    void setPc(uint32_t pc);

    Surprise &surprise() { return sr_; }
    const Surprise &surprise() const { return sr_; }

    uint32_t returnAddress(int i) const { return ra_.at(i); }

    /** Faulting address captured by the last page fault/address error. */
    uint32_t faultAddress() const { return fault_addr_; }

    const CpuStats &stats() const { return stats_; }
    void clearStats() { stats_ = CpuStats{}; }

    /**
     * One observed fault event (overflow trap, page fault, or address
     * error). `pc` is the restart address of the offending word —
     * for the static oracle this maps back onto a unit item as
     * `pc - origin`. `addr` is the faulting data/virtual address
     * (0 for overflow traps, which have none).
     */
    struct FaultEvent
    {
        Cause cause = Cause::NONE;
        uint32_t pc = 0;
        uint32_t addr = 0;
    };

    /** The first kMaxFaultEvents fault events since the last reset(),
     *  in order. A handler-less program restarts at the dispatch ROM
     *  and may fault in a loop, so the log is bounded; the per-cause
     *  CpuStats counters keep exact totals. */
    static constexpr size_t kMaxFaultEvents = 64;
    const std::vector<FaultEvent> &faultEvents() const
    {
        return fault_events_;
    }

    // --- Profiling ------------------------------------------------------

    /** Record per-PC execution counts (used by the reference-pattern
     *  experiments); off by default. Counts are dense per-page arrays,
     *  not a hash map, so profiled runs stay fast. */
    void enableProfiling(bool on) { profiling_ = on; }

    /** Times the instruction at `pc` issued since the last reset(). */
    uint64_t execCount(uint32_t pc) const;

    /** Dense harvest: execCount for `n` consecutive words starting at
     *  `base` (counts[i] == execCount(base + i)). Used by the static
     *  cost model's parity oracle. */
    std::vector<uint64_t> execCounts(uint32_t base, size_t n) const;

    // --- Host fast path -------------------------------------------------

    /**
     * Enable/disable the simulator fast path (predecoded instruction
     * cache here plus the MappingUnit micro-TLB). On by default;
     * disabling forces the reference decode/translate path on every
     * cycle. Results are identical either way — the switch exists so
     * benchmarks can measure the speedup and tests can assert parity.
     */
    void enableFastPath(bool on);
    bool fastPathEnabled() const { return fast_path_; }

    /** Predecode-cache hit/miss counters (host-side, not simulated). */
    uint64_t decodeCacheHits() const { return decode_hits_; }
    uint64_t decodeCacheMisses() const { return decode_misses_; }

    /** Description of the last SIM_ERROR. */
    const std::string &errorMessage() const { return error_; }

  private:
    /** Translate for fetch/data; false and takes the exception on fault.
     *  `cur` is the address of the (restartable) offending word. */
    bool translateOrFault(uint32_t cur, uint32_t vaddr, bool is_write,
                          bool is_fetch, uint32_t *phys);

    /** Take an exception whose restart point is the *current*
     *  (not completed) instruction at `cur`. */
    void faultAt(uint32_t cur, Cause cause, uint16_t detail);

    /** Take an exception that resumes with the not-yet-popped stream
     *  (traps and interrupts: the offender completed / nothing ran). */
    void interruptNow(Cause cause, uint16_t detail);

    /** Shared exception entry: capture RAs and redirect to ROM. */
    void enter(Cause cause, uint16_t detail,
               const std::array<uint32_t, 3> &ras);

    /** Redirect the stream: keep the first `delay` upcoming addresses
     *  (the transfer's delay slots), then continue at `target`. */
    void redirectStream(int delay, uint32_t target);

    StopReason simError(std::string message);

    /** Bump the execution count for `pc` (profiling enabled). */
    void recordExec(uint32_t pc);

    /** Compute the execution shape (Kind) of a decoded word. */
    static uint8_t classifyWord(const isa::Instruction &inst);

    PhysMemory &mem_;
    MappingUnit &map_;

    std::array<uint32_t, isa::kNumRegs> regs_{};
    uint32_t lo_ = 0;
    Surprise sr_;
    std::array<uint32_t, 3> ra_{};
    uint32_t fault_addr_ = 0;

    /** The next three instruction addresses; [0] is the next to run.
     *  Always full — a fixed array, not a deque, because this is
     *  touched every simulated cycle. Three entries suffice: no
     *  transfer has more than two delay slots, so the stream beyond
     *  [2] is always sequential ([2]+1, [2]+2, ...). */
    std::array<uint32_t, 3> stream_{};

    /** Pending load write (commits after the next instruction reads). */
    bool load_pending_ = false;
    isa::Reg load_reg_ = 0;
    uint32_t load_value_ = 0;

    /** Taken-transfer shadow countdown for undefined-behaviour checks. */
    int shadow_ = 0;

    bool halted_ = false;
    std::string error_;

    CpuStats stats_;
    std::vector<FaultEvent> fault_events_;

    // Profiling state: dense counters for the PCs real programs use,
    // with a hash-map overflow for pathological (wild-jump) addresses.
    static constexpr uint32_t kProfileDenseLimit = 1u << 22;
    bool profiling_ = false;
    std::vector<uint64_t> exec_dense_;
    std::unordered_map<uint32_t, uint64_t> exec_sparse_;

    // Predecoded instruction cache: direct-mapped, keyed by physical
    // address. An entry is valid iff tag == address (kNoTag never
    // matches a fetchable address). MMIO fetches are never cached.
    // Besides the decoded pieces, an entry carries the per-word
    // predicates step() needs every cycle, precomputed once at fill,
    // and the word's execution *shape* so the fast path can dispatch
    // straight to a specialized handler instead of re-discovering
    // which pieces are present every cycle.
    enum Kind : uint8_t
    {
        K_GENERIC = 0, ///< anything unusual: specials, odd packings
        K_NOP,
        K_ALU,     ///< ALU piece only
        K_LONGIMM, ///< long-immediate load (no memory reference)
        K_LOAD,    ///< memory-referencing load, no ALU piece
        K_STORE,   ///< store, no ALU piece
        K_PACKED,  ///< ALU + memory-referencing load/store in one word
        K_BRANCH,
        K_JUMP,
    };
    struct DecodeEntry
    {
        uint32_t word;
        bool uses_data_port;
        bool is_nop;
        isa::Instruction inst;
    };

    /** Memory-piece parameters compacted for the dispatch cases,
     *  including the branchless effective-address formula precomputed
     *  at fill:
     *    ea = (base & ea_base_mask)
     *       + ((index >> ea_shift) & ea_index_mask)
     *       + ea_imm
     *  covering all four referencing modes without the per-cycle
     *  mode switch. */
    struct MemLite
    {
        uint32_t ea_base_mask;
        uint32_t ea_index_mask;
        uint32_t ea_imm;
        uint8_t ea_shift;
        uint8_t base;  ///< base register number
        uint8_t index; ///< index register number
        uint8_t rd;    ///< data register number
    };

    /** Hot predecoded entry: exactly what the specialized dispatch
     *  reads per cycle, in 28 bytes. The full DecodeEntry above is
     *  only 32 bytes since the Instruction is packed, so the hot array
     *  pays for itself by the work it does at fill, not by its size:
     *  the shape (Kind) replaces the per-cycle piece-presence tests,
     *  and MemLite's effective-address formula the per-cycle mode
     *  switch. Full entries are only touched by the fill path and by
     *  K_GENERIC words (specials, odd packings). */
    struct HotEntry
    {
        uint8_t kind = K_GENERIC;
        bool mem_is_store = false; ///< K_STORE / K_PACKED store piece
        union U
        {
            isa::AluPiece alu;       ///< K_ALU
            MemLite mem;             ///< K_LOAD / K_STORE / K_LONGIMM
            struct
            {
                isa::AluPiece alu;
                MemLite mem;
            } packed;                ///< K_PACKED
            isa::BranchPiece branch; ///< K_BRANCH
            isa::JumpPiece jump;     ///< K_JUMP

            U() : alu{} {}
        } u;
    };

    /** Compact a memory piece for the dispatch cases. */
    static MemLite memLite(const isa::MemPiece &m);

    /** Classify `inst` and fill `h` with its dispatch parameters. */
    static void fillHot(HotEntry *h, const isa::Instruction &inst);

    /** step() without the halted check; run() guards once up front. */
    StopReason stepInner();

    /** Decode-cache miss: read the word, decode, fill the slot (or the
     *  MMIO scratch pair) and point *h / *e at it. False if the word is
     *  illegal — the caller raises the fault. */
    bool fillDecodeSlot(uint32_t fetch_phys, uint32_t slot,
                        const HotEntry **h, const DecodeEntry **e);
    static constexpr uint32_t kNoTag = 0xffffffffu;
    static constexpr uint32_t kDecodeCacheSize = 1u << 12; ///< power of 2

    /** Storage for one T that stays unconstructed (and its pages
     *  untouched) until fillDecodeSlot constructs it. */
    template <typename T>
    union Unfilled
    {
        Unfilled() {}
        T value;
    };
    static_assert(std::is_trivially_destructible_v<HotEntry> &&
                  std::is_trivially_destructible_v<DecodeEntry>);
    static_assert(sizeof(HotEntry) <= 28 && sizeof(DecodeEntry) <= 32);

    bool fast_path_ = true;
    /** Tags live apart from the payloads: the 16 KB tag array stays
     *  L1-resident, so the per-fetch probe and the per-store
     *  invalidation check never touch the big payload array unless
     *  they actually hit. decode_tags_[i] owns the validity of
     *  decode_cache_[i] and decode_hot_[i]: a payload slot is read
     *  only under a matching tag, which its fill set. */
    std::vector<uint32_t> decode_tags_;
    std::unique_ptr<Unfilled<HotEntry>[]> decode_hot_;
    std::unique_ptr<Unfilled<DecodeEntry>[]> decode_cache_;
    uint64_t decode_hits_ = 0;
    uint64_t decode_misses_ = 0;
    isa::Instruction slow_inst_; ///< decode target when not caching
    DecodeEntry mmio_entry_;     ///< scratch for uncacheable MMIO fetches
    HotEntry mmio_hot_;          ///< dispatch scratch for MMIO fetches
};

} // namespace mips::sim
