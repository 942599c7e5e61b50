/**
 * @file
 * The memory (load/store) instruction piece.
 *
 * The machine is *word addressed*: every effective address names a
 * 32-bit word, and there is no byte addressing (Section 4.1 of the
 * paper). The five load/store types are exactly the paper's list:
 * "long immediate, absolute, displacement(base), (base+index), and
 * base shifted by n" — the last accesses packed arrays of 2^n-bit
 * objects by shifting a sub-word element index down to a word index.
 */
#pragma once

#include <cstdint>
#include <string>

#include "isa/registers.h"

namespace mips::isa {

/** Addressing modes (3-bit field). */
enum class MemMode : uint8_t
{
    LONG_IMM = 0,   ///< rd = sign-extended 21-bit constant (load only)
    ABSOLUTE = 1,   ///< ea = unsigned 21-bit word address
    DISP = 2,       ///< ea = base + signed 17-bit word displacement
    BASE_INDEX = 3, ///< ea = base + index
    BASE_SHIFT = 4, ///< ea = base + (index >> shift); packed arrays
};

/** Field-width limits for the unpacked memory format. */
constexpr int kLongImmBits = 21;   ///< signed
constexpr int kAbsoluteBits = 21;  ///< unsigned
constexpr int kDispBits = 17;      ///< signed
constexpr int kPackedDispBits = 4; ///< unsigned, packed format only
constexpr int kShiftBits = 3;      ///< shift amount 0..7

/** One memory piece. */
struct MemPiece
{
    bool is_store = false; ///< LONG_IMM must be a load
    MemMode mode = MemMode::DISP;
    Reg rd = kZeroReg;     ///< data register (destination or source)
    Reg base = kZeroReg;   ///< base register (DISP/BASE_INDEX/BASE_SHIFT)
    Reg index = kZeroReg;  ///< index register (BASE_INDEX/BASE_SHIFT)
    int32_t imm = 0;       ///< displacement / absolute address / constant
    uint8_t shift = 0;     ///< right-shift of index (BASE_SHIFT)

    bool operator==(const MemPiece &) const = default;
};

namespace detail {
/** Out-of-line panic keeping the hot inline path free of logging. */
[[noreturn]] void badMemMode(int mode);
} // namespace detail

/**
 * Compute the effective *word* address given operand register values.
 * Must not be called for LONG_IMM (which makes no memory reference).
 * Inline — the pipeline simulator computes one per simulated memory
 * reference.
 */
inline uint32_t
memEffectiveAddress(const MemPiece &piece, uint32_t base_val,
                    uint32_t index_val)
{
    switch (piece.mode) {
      case MemMode::LONG_IMM:
        break; // no memory reference; fall through to the panic
      case MemMode::ABSOLUTE:
        return static_cast<uint32_t>(piece.imm);
      case MemMode::DISP:
        return base_val + static_cast<uint32_t>(piece.imm);
      case MemMode::BASE_INDEX:
        return base_val + index_val;
      case MemMode::BASE_SHIFT:
        return base_val + (index_val >> piece.shift);
    }
    detail::badMemMode(static_cast<int>(piece.mode));
}

/** True if the piece actually touches memory (everything but LONG_IMM). */
bool memReferencesMemory(const MemPiece &piece);

/** True if the piece reads its base register. */
bool memReadsBase(const MemPiece &piece);

/** True if the piece reads its index register. */
bool memReadsIndex(const MemPiece &piece);

/** Validate field ranges; returns a description of the first problem. */
std::string memValidate(const MemPiece &piece);

} // namespace mips::isa
