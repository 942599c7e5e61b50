/**
 * @file
 * Physical word-addressed memory with memory-mapped devices.
 *
 * The memory is an array of 32-bit words (there is deliberately no
 * byte access path — Section 4.1 of the paper). A small MMIO window at
 * the top of the physical space hosts the console and the external
 * interrupt-prioritization logic the paper's global interrupt handler
 * queries ("the global interrupt handler queries any external
 * prioritization logic to determine which device was requesting
 * service").
 *
 * Storage is sparse, in the spirit of the paper's large address space
 * backed by frames supplied on demand: a table of 1024-word pages in
 * which every page nothing has changed points at one shared, read-only
 * zero page. A RAM read is two loads with no branch; the first write
 * that changes a word of an absent page gives that page its storage.
 * A fuzz program writes a few pages of the 4 MB default space, so a
 * Machine costs an 8 KB page table plus those pages.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mips::sim {

/** Default physical memory size in words (4 MB). */
constexpr uint32_t kDefaultPhysWords = 1u << 20;

/** First word of the MMIO window (within the default size). */
constexpr uint32_t kMmioBase = 0x000ff000;

/** Words in the MMIO window. */
constexpr uint32_t kMmioWindowWords = 16;

/** MMIO registers (word offsets from kMmioBase). */
enum class MmioReg : uint32_t
{
    CONSOLE_OUT = 0,   ///< write: emit low byte to the console
    CONSOLE_STATUS = 1,///< read: 1 (always ready)
    INT_SOURCE = 2,    ///< read: id of highest-priority pending device
    INT_ACK = 3,       ///< write: acknowledge (clear) device id
    CYCLES_LO = 4,     ///< read: low word of the cycle counter
    MAP_SVA = 5,       ///< write: latch system virtual address
    MAP_INSTALL = 6,   ///< write frame number: install page for MAP_SVA
    MAP_EVICT = 7,     ///< write anything: evict the MAP_SVA page
};

/**
 * Physical memory plus devices. Word granularity only.
 */
class PhysMemory
{
  public:
    explicit PhysMemory(uint32_t size_words = kDefaultPhysWords);

    /** Number of addressable words. */
    uint32_t size() const { return size_words_; }

    /** True if `addr` is a valid physical word address. */
    bool valid(uint32_t addr) const { return addr < size_words_; }

    /** True if `addr` falls in the MMIO window. */
    bool
    isMmio(uint32_t addr) const
    {
        // Unsigned wrap: one compare for [kMmioBase, kMmioBase + 16).
        return addr - kMmioBase < kMmioWindowWords && addr < size_words_;
    }

    /** Read a word; MMIO reads consult the devices. On the CPU's
     *  critical path — the common (RAM) case is fully inline. */
    uint32_t
    read(uint32_t addr)
    {
        if (addr >= size_words_)
            outOfRange("read", addr);
        if (addr - kMmioBase < kMmioWindowWords)
            return readMmio(addr);
        return ram(addr);
    }

    /** Write a word; MMIO writes drive the devices. On the CPU's
     *  critical path — the common (RAM) case is fully inline. */
    void
    write(uint32_t addr, uint32_t value)
    {
        if (addr >= size_words_)
            outOfRange("write", addr);
        if (addr - kMmioBase < kMmioWindowWords) {
            writeMmio(addr, value);
            return;
        }
        ramWrite(addr, value);
    }

    /**
     * Unchecked RAM word access for callers that have already proven
     * `addr` in range and outside the MMIO window (the CPU fast path:
     * the translate step bounds-checks and the MMIO test is explicit
     * there). ramWrite keeps the predecode tags coherent like write().
     */
    uint32_t
    ram(uint32_t addr) const
    {
        return pages_[addr >> kPageBits][addr & (kPageWords - 1)];
    }

    void
    ramWrite(uint32_t addr, uint32_t value)
    {
        // Value-aware invalidation: a store that leaves the word's
        // contents unchanged cannot stale a predecoded entry, so e.g.
        // reloading the same program image keeps the cache warm. The
        // same test keeps zero writes from allocating: the shared zero
        // page already holds the value.
        uint32_t *&page = pages_[addr >> kPageBits];
        uint32_t offset = addr & (kPageWords - 1);
        if (page[offset] == value)
            return;
        if (page == zeroPage())
            page = allocatePage();
        page[offset] = value;
        notifyWrite(addr);
    }

    /** Raw (device-free) access for loaders and tests. */
    uint32_t peek(uint32_t addr) const;
    void poke(uint32_t addr, uint32_t value);

    /** Copy a program image into memory at `base`. */
    void loadImage(uint32_t base, const std::vector<uint32_t> &image);

    /** Pages given their own storage: each had a word changed by a
     *  write. Every other page reads as zeros. */
    uint32_t
    residentPages() const
    {
        return static_cast<uint32_t>(storage_.size());
    }

    // --- Devices -------------------------------------------------------

    /** Everything written to CONSOLE_OUT so far. */
    const std::string &consoleOutput() const { return console_; }

    /** Assert a device interrupt request (device ids 1..31). */
    void raiseDevice(uint32_t device_id);

    /** True if any device request is pending (drives the single
     *  interrupt line onto the chip). */
    bool interruptPending() const { return pending_devices_ != 0; }

    /** Highest-priority (lowest id) pending device, 0 if none. */
    uint32_t highestPendingDevice() const;

    /** Cycle-counter value surfaced through CYCLES_LO (set by hosts
     *  without a live CPU attached; the CPU registers a source below). */
    void setCycleCounter(uint64_t cycles) { cycles_ = cycles; }

    /** Register a live counter read on demand by CYCLES_LO, so the CPU
     *  does not have to push the count into the device every cycle.
     *  Pass nullptr to detach (falls back to setCycleCounter's value). */
    void setCycleSource(const uint64_t *source) { cycle_source_ = source; }

    /**
     * Hook for the MAP_* registers: the exterior mapping unit sits on
     * the bus ("an off-chip page map", Section 3.1), so the OS
     * programs it through stores. Machine wires this to MappingUnit.
     * Called as hook(install_or_evict, sva, frame).
     */
    void
    setMapHook(std::function<void(bool, uint32_t, uint32_t)> hook)
    {
        map_hook_ = std::move(hook);
    }

    // --- Write observation ---------------------------------------------

    /**
     * Predecode-cache coherence: the CPU shares its direct-mapped tag
     * array so that every store that changes memory contents — CPU
     * stores, host poke()/loadImage(), any bus write — invalidates a
     * stale predecoded entry *in place*, with no indirect call on the
     * store path. `mask` must be (size of tag array - 1), a power of
     * two minus one; a store to word `addr` clears tags[addr & mask]
     * when it equals addr. Pass tags = nullptr to detach.
     */
    void
    attachDecodeTags(uint32_t *tags, uint32_t mask, uint32_t invalid)
    {
        decode_tags_ = tags;
        decode_tags_mask_ = mask;
        decode_tags_invalid_ = invalid;
    }

    /** Predecoded entries actually invalidated by writes (stores that
     *  hit a live tag; the common store misses every tag and costs
     *  nothing extra). */
    uint64_t decodeInvalidations() const { return decode_invalidations_; }

  private:
    /** Words per storage page: a host allocation unit, not the
     *  mapping unit's architectural page (same size, separate role). */
    static constexpr uint32_t kPageBits = 10;
    static constexpr uint32_t kPageWords = 1u << kPageBits;

    /** The page every absent table entry points at, shared by every
     *  PhysMemory. It is constant data, so a stray write would fault;
     *  ramWrite allocates before any write that would change it. */
    alignas(64) static constexpr uint32_t kZeroPage[kPageWords] = {};

    static uint32_t *
    zeroPage()
    {
        // The table holds writable pointers; this one is never written
        // through (see ramWrite).
        return const_cast<uint32_t *>(kZeroPage);
    }

    /** Give a page its own zeroed storage (first changing write). */
    uint32_t *allocatePage();

    /** Out-of-line slow paths for the inline read()/write() above. */
    [[noreturn]] void outOfRange(const char *op, uint32_t addr) const;
    uint32_t readMmio(uint32_t addr);
    void writeMmio(uint32_t addr, uint32_t value);

    void
    notifyWrite(uint32_t addr)
    {
        // Drop the predecoded entry covering this word, if any. Only
        // the tag is cleared — the CPU may be mid-step holding a
        // pointer into the matching payload.
        if (decode_tags_ != nullptr) {
            uint32_t idx = addr & decode_tags_mask_;
            if (decode_tags_[idx] == addr) {
                decode_tags_[idx] = decode_tags_invalid_;
                ++decode_invalidations_;
            }
        }
    }

    uint32_t size_words_ = 0;
    std::vector<uint32_t *> pages_; ///< zeroPage() or a storage_ page
    std::vector<std::unique_ptr<uint32_t[]>> storage_;
    std::string console_;
    uint32_t pending_devices_ = 0; ///< bitmask of requesting devices
    uint64_t cycles_ = 0;
    const uint64_t *cycle_source_ = nullptr;
    uint32_t map_sva_ = 0;
    std::function<void(bool, uint32_t, uint32_t)> map_hook_;
    uint32_t *decode_tags_ = nullptr;
    uint32_t decode_tags_mask_ = 0;
    uint32_t decode_tags_invalid_ = 0;
    uint64_t decode_invalidations_ = 0;
};

} // namespace mips::sim
