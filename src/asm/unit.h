/**
 * @file
 * The assembler's intermediate representation.
 *
 * Instructions are held with *symbolic* control-transfer targets so a
 * post-pass (the reorganizer of src/reorg) can reorder, pack, and
 * insert/delete words before branch offsets are resolved. link()
 * resolves labels and produces the final word image.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "isa/encoding.h"
#include "isa/instruction.h"
#include "support/result.h"

namespace mips::assembler {

/** One instruction (or data word) plus its assembly-time metadata. */
struct Item
{
    isa::Instruction inst;

    /**
     * Label this branch/jump targets; empty when the numeric target
     * encoded in `inst` is already absolute. Resolved by link().
     */
    std::string target;

    /** Labels defined at this item's address. */
    std::vector<std::string> labels;

    /**
     * Set inside .noreorder regions: the front end has already handled
     * delay slots and hazards here; the reorganizer must not touch it
     * (the paper: "it emits a pseudo-op which tells the reorganizer
     * that this sequence is not to be touched").
     */
    bool no_reorder = false;

    /** True for .word/.space data (never an instruction). */
    bool is_data = false;

    /** Raw value for data items. */
    uint32_t data_value = 0;

    /** 1-based source line, 0 when synthesized. */
    int source_line = 0;

    /**
     * Data-reference annotation for memory pieces, set by the compiler
     * and consumed by the reference-pattern experiments (Tables 7/8):
     * the logical size of the object accessed (8 or 32 bits; 0 when
     * not annotated) and whether it is character data.
     */
    uint8_t ref_size = 0;
    bool ref_is_char = false;
};

/** A translation unit: items at consecutive word addresses. */
struct Unit
{
    uint32_t origin = 0;
    std::vector<Item> items;

    /** Labels defined at end-of-unit (after the last item). */
    std::vector<std::string> trailing_labels;
};

/**
 * Label -> item index over one unit, sorted by label name. Trailing
 * labels map to items.size(), and a later definition of a label wins.
 * The names are views into the unit's own label strings, so the unit
 * must outlive the index and keep its labels unchanged.
 */
class LabelIndex
{
  public:
    static constexpr size_t kNone = static_cast<size_t>(-1);

    explicit LabelIndex(const Unit &unit);

    /** Item index of `label`, or kNone. */
    size_t find(std::string_view label) const;

    /** Every label once, as (name, item index), in name order. */
    const std::vector<std::pair<std::string_view, size_t>> &
    entries() const
    {
        return entries_;
    }

  private:
    std::vector<std::pair<std::string_view, size_t>> entries_;
};

/** A linked program: encoded words plus the resolved symbol table. */
struct Program
{
    uint32_t origin = 0;
    std::vector<uint32_t> image; ///< one encoded word per unit item
    std::map<std::string, uint32_t> symbols;

    /** Address of a required symbol; panics if absent. */
    uint32_t symbol(const std::string &name) const;

    /** Number of words in the image. */
    size_t size() const { return image.size(); }
};

/**
 * Resolve labels and encode. Fails on undefined/duplicate labels and
 * on branch offsets that do not fit their field.
 */
support::Result<Program> link(const Unit &unit);

/** Render a unit as assembly text (labels, one item per line). */
std::string listUnit(const Unit &unit);

} // namespace mips::assembler
