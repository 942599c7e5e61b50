#include "isa/mem.h"

#include "support/bits.h"
#include "support/logging.h"

namespace mips::isa {

namespace detail {

void
badMemMode(int mode)
{
    support::panic("memEffectiveAddress: bad mode %d (LONG_IMM makes "
                   "no memory reference)", mode);
}

} // namespace detail

bool
memReferencesMemory(const MemPiece &piece)
{
    return piece.mode != MemMode::LONG_IMM;
}

bool
memReadsBase(const MemPiece &piece)
{
    return piece.mode == MemMode::DISP ||
           piece.mode == MemMode::BASE_INDEX ||
           piece.mode == MemMode::BASE_SHIFT;
}

bool
memReadsIndex(const MemPiece &piece)
{
    return piece.mode == MemMode::BASE_INDEX ||
           piece.mode == MemMode::BASE_SHIFT;
}

std::string
memValidate(const MemPiece &piece)
{
    using support::fitsSigned;
    using support::fitsUnsigned;

    switch (piece.mode) {
      case MemMode::LONG_IMM:
        if (piece.is_store)
            return "long-immediate must be a load";
        if (!fitsSigned(piece.imm, kLongImmBits))
            return "long-immediate constant out of range";
        break;
      case MemMode::ABSOLUTE:
        if (piece.imm < 0 ||
            !fitsUnsigned(static_cast<uint64_t>(piece.imm), kAbsoluteBits))
            return "absolute address out of range";
        break;
      case MemMode::DISP:
        if (!fitsSigned(piece.imm, kDispBits))
            return "displacement out of range";
        break;
      case MemMode::BASE_INDEX:
        break;
      case MemMode::BASE_SHIFT:
        if (piece.shift > support::mask(kShiftBits))
            return "shift amount out of range";
        break;
    }
    return "";
}

} // namespace mips::isa
