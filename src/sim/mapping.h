/**
 * @file
 * Memory mapping: on-chip segmentation plus the optional off-chip
 * page-level mapping unit (Section 3.1 of the paper).
 *
 * The on-chip unit "divides the virtual address space into a variable
 * number of variably sized segments ... by masking out the top n bits
 * of every address and inserting an n-bit process identification
 * number". A process sees a 32-bit program address space whose valid
 * words are "split into two halves: one residing at the top of the
 * program's virtual 32-bit address space, and the other at the
 * bottom"; anything in between is an address error that the operating
 * system treats like a page fault.
 *
 * The folded (PID-inserted) address is a *system virtual address*
 * inside the machine-wide 16M-word (24-bit) virtual space, which the
 * off-chip page map translates to physical page frames with demand
 * paging.
 *
 * A host-side **micro-TLB** sits in front of the fold + page-map hash
 * lookup: a small direct-mapped array of {program page, frame,
 * writable} entries, so the common translate is a mask-and-compare
 * instead of a hash-map probe. It is purely a simulation fast path —
 * hit and miss paths produce identical translations, fault causes,
 * referenced/dirty bits, and translation/fault counters. The TLB is
 * flushed on every page-map mutation (installPage/evictPage) and on
 * reconfiguration (configure); the CPU additionally flushes it on
 * mapping enable/disable and supervisor/user swaps (exception entry,
 * RFE, and surprise-register writes).
 */
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "sim/surprise.h"

namespace mips::sim {

/** Width of the machine-wide virtual word-address space (16M words). */
constexpr int kVirtualBits = 24;

/** Words per page of the off-chip map (1K words). */
constexpr int kPageBits = 10;
constexpr uint32_t kPageWords = 1u << kPageBits;

/** Result of a translation attempt. */
struct Translation
{
    bool ok = false;
    uint32_t phys = 0;      ///< valid when ok
    Cause cause = Cause::NONE; ///< PAGE_FAULT or ADDRESS_ERROR when !ok
    uint32_t fault_vaddr = 0;  ///< program address that faulted
    uint32_t fault_sva = 0;    ///< folded system virtual address
};

/** One page-map entry of the off-chip unit. */
struct PageEntry
{
    uint32_t frame = 0;    ///< physical page frame number
    bool resident = false; ///< demand paging: false => page fault
    bool writable = true;
    bool referenced = false;
    bool dirty = false;
};

/**
 * The complete mapping path. The CPU consults it on every reference
 * when mapping is enabled; when disabled, addresses are physical.
 */
class MappingUnit
{
  public:
    /**
     * Configure the on-chip segmentation. `seg_bits` (n, 0..8) is the
     * number of masked top bits; the process space is 2^(24-n) words
     * split into two halves. `pid` must fit in n bits.
     */
    void configure(uint8_t seg_bits, uint32_t pid);

    uint8_t segBits() const { return seg_bits_; }
    uint32_t pid() const { return pid_; }

    /** Words in each half of the process address space. */
    uint32_t halfWindowWords() const;

    /**
     * Fold a 32-bit program address into a system virtual address, or
     * nullopt if it falls between the two valid halves.
     */
    std::optional<uint32_t> fold(uint32_t program_addr) const;

    /** Translate a program address through segmentation + page map.
     *  On the CPU's per-reference critical path: the micro-TLB hit is
     *  fully inline; misses fall out of line to the fold + hash-map
     *  reference walk. Hit and miss are side-effect-identical (same
     *  counters, same referenced/dirty updates). */
    Translation
    translate(uint32_t program_addr, bool is_write)
    {
        if (tlb_enabled_) {
            uint32_t vpage = program_addr >> kPageBits;
            TlbEntry &e = tlb_[vpage & (kTlbSize - 1)];
            // Write access through a read-only entry falls through so
            // the reference walk raises the fault.
            if (e.tag == vpage && (!is_write || e.writable)) [[likely]] {
                ++translations_;
                ++tlb_hits_;
                // referenced was set when the entry was filled and
                // clearUsageBits() flushes the TLB, so a live entry
                // implies the bit is already up to date; dirty is
                // propagated once per entry lifetime.
                if (is_write && !e.dirty_done) {
                    e.entry->dirty = true;
                    e.dirty_done = true;
                }
                Translation hit;
                hit.ok = true;
                hit.phys = e.phys_base | (program_addr & (kPageWords - 1));
                return hit;
            }
            ++tlb_misses_;
        }
        return translateSlow(program_addr, is_write);
    }

    // --- Page-map management (what the OS would do) --------------------

    /** Install a page-map entry for the page containing `sva`. */
    void installPage(uint32_t sva, uint32_t phys_frame,
                     bool resident = true, bool writable = true);

    /** Mark the page containing `sva` non-resident (page it out). */
    void evictPage(uint32_t sva);

    /** Entry for the page containing `sva`, if present. */
    const PageEntry *findPage(uint32_t sva) const;

    /** Clear referenced/dirty bits (page-replacement bookkeeping).
     *  Flushes the micro-TLB: cached entries assume the bits of a live
     *  entry are already set, so the next reference must re-walk. */
    void clearUsageBits();

    /** Number of installed (resident or not) page entries. */
    size_t pageCount() const { return pages_.size(); }

    /** Total translations and faults, for the experiment harness. */
    uint64_t translations() const { return translations_; }
    uint64_t faults() const { return faults_; }

    // --- Micro-TLB (simulation fast path) -------------------------------

    /** Drop every cached translation. Correct-by-construction callers:
     *  page-map mutation, reconfiguration, mapping enable/disable,
     *  usage-bit clearing, and privilege swaps. */
    void flushTlb();

    /** Enable/disable the micro-TLB (disabling also flushes). The
     *  reference (`--no-fastpath`) runs disable it to prove parity. */
    void setTlbEnabled(bool on);

    uint64_t tlbHits() const { return tlb_hits_; }
    uint64_t tlbMisses() const { return tlb_misses_; }
    uint64_t tlbFlushes() const { return tlb_flushes_; }

  private:
    /** TLB-missing translate: fold + page-map walk, then refill. */
    Translation translateSlow(uint32_t program_addr, bool is_write);

    /** Direct-mapped micro-TLB entry, keyed by program page number. */
    struct TlbEntry
    {
        uint32_t tag = kInvalidTlbTag; ///< program-address page number
        uint32_t phys_base = 0;        ///< frame << kPageBits
        bool writable = false;
        bool dirty_done = false;       ///< page dirty bit already set
        PageEntry *entry = nullptr;    ///< for dirty propagation
    };

    static constexpr uint32_t kInvalidTlbTag = 0xffffffffu;
    static constexpr uint32_t kTlbSize = 16; ///< power of two

    uint8_t seg_bits_ = 0;
    uint32_t pid_ = 0;
    std::unordered_map<uint32_t, PageEntry> pages_; ///< by sva page no.
    uint64_t translations_ = 0;
    uint64_t faults_ = 0;

    std::array<TlbEntry, kTlbSize> tlb_{};
    bool tlb_enabled_ = true;
    uint64_t tlb_hits_ = 0;
    uint64_t tlb_misses_ = 0;
    uint64_t tlb_flushes_ = 0;
};

} // namespace mips::sim
