/**
 * @file
 * The assembler's intermediate representation.
 *
 * Instructions are held with *symbolic* control-transfer targets so a
 * post-pass (the reorganizer of src/reorg) can reorder, pack, and
 * insert/delete words before branch offsets are resolved. link()
 * resolves labels and produces the final word image.
 *
 * A target is a LabelId into the unit's one LabelTable, not a name:
 * resolving a label is indexing a vector, and an Item carries no
 * string. Names are read only where text is produced (listings,
 * diagnostics, Program::symbol).
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "isa/encoding.h"
#include "isa/instruction.h"
#include "support/result.h"

namespace mips::assembler {

/** Index of a label in its unit's LabelTable. */
using LabelId = uint32_t;

/** No label: an item that defines none, or targets no label. */
constexpr LabelId kNoLabel = static_cast<LabelId>(-1);

/**
 * The labels of one unit, each name once. An id names its label for
 * the unit's life: references (Item::target) hold ids, and the item a
 * reference resolves to is the label's **first** definition, item().
 *
 * The labels an item defines chain through the table in source order:
 * Item::label is the first, next() the one after it. A name defined a
 * second time gets a further id of its own for that definition, so
 * the chain lists it where the source has it; first() leads back to
 * the id references use. The linker rejects such a unit, and the
 * analyses resolve its references to the first definition.
 *
 * The names live in one string, so copying a table (the reorganizer
 * starts its output from its input's table) copies two arrays.
 */
class LabelTable
{
  public:
    /** item() of a name that is only referenced. */
    static constexpr uint32_t kUndefined = static_cast<uint32_t>(-1);

    size_t size() const { return entries_.size(); }

    std::string_view
    name(LabelId id) const
    {
        const Entry &e = entries_[id];
        return std::string_view(names_).substr(e.name_begin, e.name_size);
    }

    /** Item index of the definition: items.size() for a label
     *  defined past the last item, kUndefined for none. */
    uint32_t item(LabelId id) const { return entries_[id].item; }

    bool defined(LabelId id) const { return item(id) != kUndefined; }

    /** The next label defined at the same item, or kNoLabel. */
    LabelId next(LabelId id) const { return entries_[id].next; }

    /** The id references to this name use: `id` itself unless `id` is
     *  a later definition of a name defined before. */
    LabelId first(LabelId id) const { return entries_[id].first; }

    /** A new, undefined name (callers intern: see UnitBuilder). */
    LabelId add(std::string_view name);

    /** A further definition of `id`'s name, with an id of its own. */
    LabelId redefine(LabelId id);

    void setItem(LabelId id, uint32_t item) { entries_[id].item = item; }
    void setNext(LabelId id, LabelId next) { entries_[id].next = next; }

    /** The first id named `name`, or kNoLabel (a linear scan, for
     *  tests and Program::symbol). */
    LabelId find(std::string_view name) const;

    /** True when this table starts with every id of `prefix`, named
     *  the same: a reorganized unit's table extends its input's. */
    bool extends(const LabelTable &prefix) const;

    /** The ids of a chain from `head`, in order:
     *  `for (LabelId id : table.chain(item.label))`. */
    class Chain
    {
      public:
        class iterator
        {
          public:
            LabelId operator*() const { return id_; }
            iterator &
            operator++()
            {
                id_ = table_->next(id_);
                return *this;
            }
            bool operator==(const iterator &) const = default;

          private:
            friend class Chain;
            iterator(const LabelTable *table, LabelId id)
                : table_(table), id_(id)
            {}
            const LabelTable *table_;
            LabelId id_;
        };

        iterator begin() const { return {table_, head_}; }
        iterator end() const { return {table_, kNoLabel}; }

      private:
        friend class LabelTable;
        Chain(const LabelTable *table, LabelId head)
            : table_(table), head_(head)
        {}
        const LabelTable *table_;
        LabelId head_;
    };

    Chain chain(LabelId head) const { return Chain(this, head); }

  private:
    struct Entry
    {
        uint32_t name_begin = 0;
        uint32_t name_size = 0;
        uint32_t item = kUndefined;
        LabelId next = kNoLabel;
        LabelId first = kNoLabel;
    };
    std::vector<Entry> entries_;
    std::string names_;
};

/** One instruction (or data word) plus its assembly-time metadata. */
struct Item
{
    isa::Instruction inst;

    /**
     * Label this branch/jump targets; kNoLabel when the numeric target
     * encoded in `inst` is already absolute. Resolved by link().
     */
    LabelId target = kNoLabel;

    /** First label defined at this item's address; the others follow
     *  it through LabelTable::next. */
    LabelId label = kNoLabel;

    /**
     * Set inside .noreorder regions: the front end has already handled
     * delay slots and hazards here; the reorganizer must not touch it
     * (the paper: "it emits a pseudo-op which tells the reorganizer
     * that this sequence is not to be touched").
     */
    bool no_reorder = false;

    /** True for .word/.space data (never an instruction). */
    bool is_data = false;

    /**
     * Data-reference annotation for memory pieces, set by the compiler
     * and consumed by the reference-pattern experiments (Tables 7/8):
     * the logical size of the object accessed (8 or 32 bits; 0 when
     * not annotated) and whether it is character data.
     */
    uint8_t ref_size = 0;
    bool ref_is_char = false;

    /** Raw value for data items. */
    uint32_t data_value = 0;

    /** 1-based source line, 0 when synthesized. */
    int source_line = 0;
};

static_assert(sizeof(Item) <= 44, "an Item holds no strings");

/** A translation unit: items at consecutive word addresses. */
struct Unit
{
    uint32_t origin = 0;
    std::vector<Item> items;
    LabelTable labels;

    /** First label defined at end-of-unit (after the last item); the
     *  others follow it through LabelTable::next. */
    LabelId trailing = kNoLabel;
};

/** The name of `item`'s target in `unit`; empty for kNoLabel. Compares
 *  targets across units whose tables may differ. */
inline std::string_view
targetName(const Unit &unit, const Item &item)
{
    return item.target == kNoLabel ? std::string_view()
                                   : unit.labels.name(item.target);
}

/**
 * Recompute every label's item from the items' label chains: for code
 * that inserted, erased or reordered items by hand. A label whose
 * chain no item (nor `trailing`) holds becomes undefined.
 */
void locateLabels(Unit *unit);

/** A linked program: encoded words plus the unit's labels. */
struct Program
{
    uint32_t origin = 0;
    std::vector<uint32_t> image; ///< one encoded word per unit item
    LabelTable labels;           ///< item() indexes `image`

    /** Address of a required symbol; panics if absent. */
    uint32_t symbol(std::string_view name) const;

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
