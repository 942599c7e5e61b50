/**
 * @file
 * Symbolic execution over the ISA semantics, for translation
 * validation of the reorganizer (see tv.h).
 *
 * Machine state is represented as terms in a hash-consed expression
 * DAG (ExprArena): two terms are semantically identical whenever they
 * normalize to the same node, so state comparison is pointer (ref)
 * equality. The arena's smart constructors perform the normalization
 * the validator relies on:
 *
 *  - constant folding and the usual ALU identities (x+0, x|0, x^x,
 *    shift-by-0, constant reassociation of ADD chains, canonical
 *    operand order for commutative operators);
 *  - memory as an ordered store log: STORE(prev, addr, val) chains
 *    rooted at MEM_INIT. Chains of *provably disjoint* stores are
 *    kept insertion-sorted by address term so any legal reordering of
 *    independent stores normalizes to the same chain, and LOAD nodes
 *    forward from / skip over stores exactly when the reorganizer's
 *    own alias discipline (reorg::Dag::mayAlias) would allow the
 *    reordering: equal address terms forward, both-constant distinct
 *    non-volatile addresses or same-base-term distinct-displacement
 *    addresses skip, anything else is left opaque.
 *
 * Two interpreters produce region runs over the same arena:
 * runSequential() implements the sequential (functional-machine)
 * semantics for the legal input unit, and runPipeline() implements
 * the interlock-free pipeline semantics (load delay slots, packed
 * pieces reading pre-instruction state, 1- and 2-word delay shadows
 * whose slots execute before a taken transfer) for the reorganized
 * output unit. Because both build terms in one shared arena, "the
 * same value" on both sides is literally the same ExprRef.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "asm/unit.h"
#include "isa/cond.h"
#include "reorg/dag.h"

namespace mips::verify {

/** Reference to a node in an ExprArena (index into the node table). */
using ExprRef = uint32_t;

/** Null reference (field unused). */
constexpr ExprRef kNoExpr = static_cast<ExprRef>(-1);

/** Expression node operators. */
enum class ExprOp : uint8_t
{
    CONST,      ///< value = the constant
    INPUT,      ///< value = input id (entry register, opaque token)
    LABEL_ADDR, ///< value = the unit's label id; the label's address
    ADD, SUB, AND, OR, XOR, NOT,
    SHL, SHRL, SHRA, ///< b is the shift amount, masked to 5 bits
    XBYTE,      ///< extract byte: a = byte selector, b = word
    IBYTE,      ///< insert byte: a = old word, b = source, c = selector
    CMP,        ///< aux = Cond; 1 if evalCond(aux, a, b) else 0
    SELECT,     ///< a != 0 ? b : c
    MEM_INIT,   ///< initial memory
    MEM_STORE,  ///< a = prev memory, b = address, c = value
    MEM_LOAD,   ///< a = memory, b = address
    SYS_INIT,   ///< initial system (special-register) state
    SYS_EFFECT, ///< a = prev system state, b = value, aux = SpecialReg
    SYS_READ,   ///< a = system state, aux = SpecialReg
};

/** One expression node. Nodes are immutable once interned. */
struct ExprNode
{
    ExprOp op = ExprOp::CONST;
    uint8_t aux = 0; ///< Cond for CMP; SpecialReg for SYS_EFFECT/READ
    ExprRef a = kNoExpr;
    ExprRef b = kNoExpr;
    ExprRef c = kNoExpr;
    uint32_t value = 0; ///< CONST value / INPUT id / LabelId

    bool operator==(const ExprNode &) const = default;
};

/** Reserved INPUT ids. Entry GPR r(n) is id n (1..15). */
constexpr uint32_t kInputLo = 16;       ///< entry value of LO
constexpr uint32_t kInputCallLink = 17; ///< opaque call return address

/**
 * Hash-consing expression arena with normalizing smart constructors.
 * Satisfies the expression-builder contract of isa/symbolic.h, so
 * isa::evalAluSymbolic<ExprArena> *is* the symbolic ALU.
 *
 * Nodes are interned by open addressing over an index table into the
 * node vector. One arena serves many region runs: reset() between
 * them keeps the storage.
 */
class ExprArena
{
  public:
    using Expr = ExprRef; ///< builder contract for isa/symbolic.h

    explicit ExprArena(const reorg::AliasOptions &alias =
                           reorg::AliasOptions{},
                       size_t max_nodes = 1u << 20);

    /**
     * Forget every node. Afterwards the arena builds the same refs and
     * str() as a fresh one: node 0 is konst(0). Storage is kept unless
     * a run grew it past a small bound.
     */
    void reset();

    /** The table str() names label addresses from (`&name`; `&?`
     *  without one). It must outlive its use here. */
    void setLabels(const assembler::LabelTable *names) { names_ = names; }

    // --- leaves -------------------------------------------------
    ExprRef konst(uint32_t v);
    ExprRef input(uint32_t id);
    /** The address of label `label`. Both units of a validation share
     *  label ids, so one label is one node on either side. */
    ExprRef labelAddr(assembler::LabelId label);

    // --- ALU (the isa/symbolic.h builder contract) --------------
    ExprRef add(ExprRef a, ExprRef b);
    ExprRef sub(ExprRef a, ExprRef b);
    ExprRef and_(ExprRef a, ExprRef b);
    ExprRef or_(ExprRef a, ExprRef b);
    ExprRef xor_(ExprRef a, ExprRef b);
    ExprRef not_(ExprRef a);
    ExprRef shl(ExprRef a, ExprRef amt);
    ExprRef shrl(ExprRef a, ExprRef amt);
    ExprRef shra(ExprRef a, ExprRef amt);
    ExprRef extractByte(ExprRef sel, ExprRef w);
    ExprRef insertByte(ExprRef old, ExprRef src, ExprRef sel);
    ExprRef cmp(isa::Cond c, ExprRef a, ExprRef b);
    ExprRef select(ExprRef c, ExprRef t, ExprRef f);

    // --- memory and system state --------------------------------
    ExprRef memInit();
    ExprRef memStore(ExprRef mem, ExprRef addr, ExprRef val);
    ExprRef memLoad(ExprRef mem, ExprRef addr);
    ExprRef sysInit();
    ExprRef sysEffect(ExprRef sys, uint8_t sreg, ExprRef val);
    ExprRef sysRead(ExprRef sys, uint8_t sreg);

    const ExprNode &node(ExprRef r) const { return nodes_[r]; }
    size_t size() const { return nodes_.size(); }

    /** True once the node budget was exhausted; all results after
     *  that point are unreliable and the caller must give up. */
    bool overflowed() const { return overflowed_; }

    /**
     * True if the two address terms provably name different words
     * under the reorganizer's alias discipline (both constant,
     * distinct, and below the volatile window; or same base term with
     * distinct constant displacements). Conservative: false means
     * "might alias", not "do alias".
     */
    bool definitelyDisjoint(ExprRef p, ExprRef q) const;

    /** Compact, depth-limited rendering for diagnostics. */
    std::string str(ExprRef r, int max_depth = 4) const;

  private:
    ExprRef intern(const ExprNode &n);
    /** Split `addr` into (base term, constant offset); base kNoExpr
     *  means the address is the constant itself. */
    std::pair<ExprRef, uint32_t> decompose(ExprRef addr) const;

    reorg::AliasOptions alias_;
    size_t max_nodes_;
    bool overflowed_ = false;
    std::vector<ExprNode> nodes_;
    /** Open-addressing table of node refs (kNoExpr: empty slot); a
     *  power of two in size, at most half full. */
    std::vector<ExprRef> node_slots_;
    const assembler::LabelTable *names_ = nullptr;
};

/** Symbolic machine state. regs[0] is always the zero constant. */
struct SymState
{
    std::array<ExprRef, 16> regs{};
    ExprRef lo = kNoExpr;
    ExprRef mem = kNoExpr;
    ExprRef sys = kNoExpr;
};

/** The canonical region-entry state: fresh inputs for every GPR and
 *  LO, initial memory and system state. */
SymState entryState(ExprArena &arena);

/** How a symbolic region run left the region. */
enum class SymExitKind : uint8_t
{
    FALL_LABEL,    ///< fell into a labeled item (see `label`)
    FALL_FENCE,    ///< fell into a .noreorder/data run (`ordinal`)
    FALL_END,      ///< fell off the end of the unit
    BRANCH,        ///< conditional branch (side exit; run continues)
    GOTO,          ///< unconditional branch or direct jump
    CALL,          ///< direct or indirect call (link already written)
    JUMP_INDIRECT, ///< indirect jump through a register
    TRAP,          ///< trap instruction (`trap_code`)
    RFE,           ///< return from exception
    HALT,          ///< halt
    JUMP_TABLE,    ///< table dispatch (`target` = fetched entry term)
};

/** One region exit: where control goes and the state it goes with. */
struct SymExit
{
    SymExitKind kind = SymExitKind::FALL_END;
    ExprRef cond = kNoExpr;    ///< BRANCH: 0/1 condition term
    /** Symbolic target (kNoLabel: none). */
    assembler::LabelId label = assembler::kNoLabel;
    bool has_addr = false;     ///< numeric target valid
    uint32_t addr = 0;         ///< numeric target
    ExprRef target = kNoExpr;  ///< indirect target term
    uint16_t trap_code = 0;    ///< TRAP
    size_t ordinal = 0;        ///< FALL_FENCE: fenced-run ordinal
    size_t at = 0;             ///< item index of the exiting word
    SymState state;            ///< architectural state at the exit
};

/** Result of symbolically executing one region. */
struct SymRun
{
    /** Side exits in program order, then exactly one final exit. */
    std::vector<SymExit> exits;
    bool ok = false;     ///< false: inconclusive (see why/fail_at)
    std::string why;
    size_t fail_at = 0;
};

/** Per-run resource limits. */
struct SymLimits
{
    size_t max_steps = 4096;
};

/**
 * Static region geometry for one unit, shared by both interpreters:
 * where runs must stop and how fenced (.noreorder / data) items are
 * grouped into ordinal-numbered runs.
 */
struct RegionMap
{
    /** stop[i]: a run entering item i (other than at its start) must
     *  exit with FALL_LABEL named stop_label[i]. */
    std::vector<char> stop;
    std::vector<assembler::LabelId> stop_label;
    /** fence[i]: ordinal of the fenced run containing item i, or -1. */
    std::vector<int> fence;
};

/** Build the region map: stops at every item carrying a label that
 *  `known` defines (null = all labels). `known` shares `unit`'s label
 *  ids up to its size, as an input's table does with its reorganized
 *  unit's. */
RegionMap buildRegionMap(const assembler::Unit &unit,
                         const assembler::LabelTable *known);

/**
 * Run the *sequential* (functional-machine) semantics from item
 * `start` until a region boundary. Transfers take effect
 * immediately; there are no delay slots and no load delay. Overwrites
 * `*run`, reusing its storage.
 */
void runSequential(ExprArena &arena, const assembler::Unit &unit,
                   const RegionMap &map, size_t start,
                   const SymState &entry, const SymLimits &limits,
                   SymRun *run);

/**
 * Run the *pipeline* semantics from item `start` until a region
 * boundary: operand reads see pre-instruction state, a load's
 * register write commits one word later (before that word's own
 * writes), and taken transfers execute their 1- or 2-word delay
 * shadow before leaving. Overwrites `*run`, reusing its storage.
 */
void runPipeline(ExprArena &arena, const assembler::Unit &unit,
                 const RegionMap &map, size_t start,
                 const SymState &entry, const SymLimits &limits,
                 SymRun *run);

/**
 * Advance `state` by sequentially executing `count` items starting at
 * `start` — used by the validator to replay scheme-2 duplicated
 * words on the input side of a retargeted exit. Only slot-safe words
 * (ALU, long-immediate moves, no-ops) are allowed; returns false
 * (state unspecified) on anything else.
 */
bool advanceSequential(ExprArena &arena, const assembler::Unit &unit,
                       size_t start, size_t count, SymState *state);

} // namespace mips::verify
