/**
 * @file
 * Semantic analysis: name resolution, type checking, and storage
 * layout.
 *
 * Layout is where the paper's word-vs-byte experiment plugs in
 * (Section 4.1, Tables 7/8): under WORD_ALLOCATED, "all objects are
 * allocated as words unless they occur in a packed structure"; under
 * BYTE_ALLOCATED, every char/boolean array is byte-packed (four
 * elements per 32-bit word, accessed with the insert/extract-byte
 * sequences). Scalars always occupy a word of their own — what
 * changes between the modes is how array elements are packed and
 * therefore how many logical references are byte-sized.
 */
#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "plc/ast.h"
#include "support/result.h"

namespace mips::plc {

/** The two allocation policies of Tables 7 and 8. */
enum class Layout
{
    WORD_ALLOCATED,
    BYTE_ALLOCATED,
};

/** Where a symbol lives. */
enum class SymKind : uint8_t
{
    GLOBAL_VAR,
    LOCAL_VAR,  ///< frame slot(s)
    PARAM,      ///< frame slot, filled from an argument register
    CONSTANT,
    ROUTINE,
    RESULT,     ///< the function-result pseudo-variable
};

/** A resolved symbol. */
struct Symbol
{
    SymKind kind = SymKind::GLOBAL_VAR;
    std::string name;
    Type type;
    int32_t const_value = 0; ///< CONSTANT

    /** True when this (array) symbol is byte-packed under the active
     *  layout; element accesses use the byte sequences. */
    bool byte_packed = false;

    /** GLOBAL_VAR: assembler label. */
    std::string label;

    /** LOCAL_VAR / PARAM / RESULT: word offset within the frame. */
    int frame_offset = 0;

    /** ROUTINE: index into ProgramAst::routines, or -1 for builtins
     *  and -2 for the main body. */
    int routine_index = -1;

    /** Words this symbol occupies in its storage area. */
    int32_t sizeWords() const;
};

/** Per-routine layout summary. */
struct FrameInfo
{
    /** Total frame words: link + params + locals + result + temps. */
    int size = 0;
    /** First of the expression-spill/loop-temp slots. */
    int temps_base = 0;
    /** Number of temp slots (eval-stack spills and FOR limits). */
    int temps_count = 0;
};

/** Result of semantic analysis, consumed by the code generator. */
struct SemaResult
{
    Layout layout = Layout::WORD_ALLOCATED;

    /** Stable symbol storage; AST nodes point into it. */
    std::deque<Symbol> symbols;

    /** Global scope (program consts, globals, routines, builtins). */
    std::map<std::string, Symbol *> global_scope;

    /** Frame layout per routine index; index routines.size() is the
     *  main body. */
    std::vector<FrameInfo> frames;

    /** Total words of global variable storage. */
    int32_t global_words = 0;
};

/**
 * Analyze `program` in place (annotating Expr::symbol/type and
 * Stmt::symbol) and compute layout under `layout`.
 */
support::Result<SemaResult> analyze(ProgramAst &program, Layout layout);

/** True when array elements of `type` are byte-packed under `layout`. */
bool typeBytePacked(const Type &type, Layout layout);

} // namespace mips::plc
