/**
 * @file
 * The surprise register: "all the miscellaneous state of the processor
 * is encapsulated into a single surprise register -- the MIPS
 * equivalent of a processor status word. The surprise register
 * includes the current and previous privilege levels, and enable bits
 * for interrupts, overflow traps and memory mapping. Finally, there
 * are two fields that specify the exact nature of the last exception."
 *
 * Bit layout of the packed 32-bit form (this rendition):
 *
 *   [0]      current privilege (1 = supervisor)
 *   [1]      previous privilege
 *   [2]      interrupt enable
 *   [3]      previous interrupt enable
 *   [4]      overflow trap enable
 *   [5]      previous overflow trap enable
 *   [6]      memory mapping enable
 *   [7]      previous mapping enable
 *   [15:12]  exception cause (major field)
 *   [27:16]  exception detail (minor field; holds the full 12-bit
 *            trap code for monitor calls)
 *   [31:28]  reserved, read as zero
 *
 * On an exception the "previous" bits capture the "current" bits and
 * the processor enters supervisor mode with interrupts and mapping
 * off; RFE restores from the previous bits. The dispatch routine at
 * address zero extracts the two cause fields "from the top of the
 * surprise register" and indexes a jump table with them.
 */
#pragma once

#include <cstdint>

namespace mips::sim {

/** Major exception-cause codes (the first surprise field). */
enum class Cause : uint8_t
{
    NONE = 0,
    RESET = 1,
    INTERRUPT = 2,      ///< external interrupt line
    TRAP = 3,           ///< software trap (monitor call)
    OVERFLOW = 4,       ///< enabled arithmetic overflow
    PAGE_FAULT = 5,     ///< mapping miss (detail: 0 ifetch, 1 data)
    ADDRESS_ERROR = 6,  ///< reference between the two valid segments
    PRIVILEGE = 7,      ///< privileged instruction in user mode
    ILLEGAL = 8,        ///< undecodable instruction word
};

/** Detail codes for PAGE_FAULT / ADDRESS_ERROR. */
constexpr uint8_t kDetailIfetch = 0;
constexpr uint8_t kDetailData = 1;

/** Unpacked surprise-register state. */
struct Surprise
{
    bool supervisor = true;       ///< boot in supervisor mode
    bool prev_supervisor = true;
    bool int_enable = false;
    bool prev_int_enable = false;
    bool ovf_enable = false;
    bool prev_ovf_enable = false;
    bool map_enable = false;
    bool prev_map_enable = false;
    Cause cause = Cause::RESET;
    uint16_t detail = 0;          ///< trap code / fault detail (12 bits)

    /** Pack into the architectural 32-bit form. */
    uint32_t pack() const;

    /** Unpack from the architectural 32-bit form. */
    static Surprise unpack(uint32_t word);

    /**
     * Take an exception: capture current bits into previous bits,
     * enter supervisor mode with interrupts and mapping disabled,
     * record the cause fields.
     */
    void enterException(Cause new_cause, uint16_t new_detail);

    /** RFE: restore current bits from previous bits. */
    void returnFromException();

    bool operator==(const Surprise &) const = default;
};

} // namespace mips::sim
