/**
 * @file
 * Whole-program interprocedural analysis over the execution CFG.
 *
 * The intraprocedural CFG (verify/cfg.h) treats every call and
 * indirect jump as "statically unknown". This layer upgrades those
 * edges where they are provable: it partitions a unit into functions
 * (the unit entry plus every resolved call target and labeled region
 * that local control flow cannot fall into; fallen-into call targets
 * become secondary entries of the containing function rather than
 * splitting it), matches call sites to callees (direct calls by
 * label/address, indirect calls by a local
 * constant-address definition of the target register), matches
 * return sites (indirect jumps through the link register), detects
 * recursion via strongly connected components, and records the
 * resolved interprocedural edges.
 *
 * On top of the call graph, checkCallingConventions() verifies the
 * stack/register discipline every call edge relies on:
 *
 *   CC001 (error)   a function returns while a configured
 *                   callee-saved register may still be clobbered
 *   CC002 (error)   the return address is overwritten (nested call
 *                   or explicit write) and reaches a return without
 *                   a restoring load
 *   CC003 (error)   a provably non-zero net stack adjustment at a
 *                   return, or provably mismatched adjustments
 *                   joining at a call or return
 *   CC004 (warning) a call target reads an argument register no
 *                   definition of which reaches the call site
 *   LT004 (warning) a function unreachable through the call graph
 *
 * All CC analyses are *may/must* analyses tuned for zero false
 * positives: whenever a fact is not provable (untracked stack writes,
 * unresolved indirect calls, address-taken functions) they stay
 * silent rather than guess.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "verify/cfg.h"

namespace mips::verify {

/** Sentinel for "no function". */
constexpr size_t kNoFunc = static_cast<size_t>(-1);

/** One call instruction and its (possibly resolved) callee. */
struct CallSite
{
    size_t item = kNoItem;      ///< the call jump word
    size_t last_slot = kNoItem; ///< last delay slot inside the unit
    size_t resume = kNoItem;    ///< return resume point (kNoItem at end)
    size_t caller = kNoFunc;
    size_t callee = kNoFunc;    ///< kNoFunc when unresolved
    /** Item the call actually enters: the callee's entry, or one of
     *  its secondary entries (see FunctionInfo::entries). */
    size_t entered = kNoItem;
    bool indirect = false;      ///< CALL_INDIRECT (callee resolved via
                                ///< a local constant-address definition)

    bool resolved() const { return callee != kNoFunc; }
};

/**
 * One discovered function: a contiguous item region.
 *
 * A function may expose *secondary entries*: call targets inside the
 * region that local control flow also reaches. The reorganizer's
 * call-retargeting scheme creates these on purpose — it duplicates a
 * callee's first word into the call's delay slot and retargets the
 * call one word past the entry — so a region is only split at call
 * targets nothing falls into. `entries` lists every entry point
 * (primary first); `CallSite::entered` records which one a call uses.
 */
struct FunctionInfo
{
    std::string name;  ///< entry label, or "<entry>" for the unit entry
    size_t entry = 0;  ///< primary entry item (== begin)
    size_t begin = 0;  ///< first item of the region
    size_t end = 0;    ///< one past the last item of the region
    std::vector<size_t> entries; ///< all entry items, primary first
    std::vector<size_t> sites;   ///< indices into CallGraph::sites
    std::vector<size_t> callees; ///< resolved callee ids, deduplicated
    std::vector<size_t> callers; ///< resolved caller ids, deduplicated
    std::vector<size_t> returns; ///< items: indirect jumps via the link
    bool is_root = false;        ///< the unit entry (item 0)
    bool address_taken = false;  ///< entry label used as a data operand
    bool reachable = false;      ///< from the roots via resolved edges
    bool recursive = false;      ///< in a call-graph cycle (incl. self)
    int scc = -1;                ///< SCC id (callee-first order)
};

/** The whole-program call graph for one unit. */
struct CallGraph
{
    const Cfg *cfg = nullptr;
    std::vector<FunctionInfo> functions;
    std::vector<CallSite> sites;
    /** Item index -> owning function id (every item is owned). */
    std::vector<size_t> function_of;
    size_t scc_count = 0;

    size_t size() const { return functions.size(); }
};

/**
 * Build the call graph. Requires a CFG built over the same unit; the
 * base CFG is not modified (resolved interprocedural edges live in
 * the returned graph's sites/callees).
 */
CallGraph buildCallGraph(const Cfg &cfg);

/**
 * Edge view of the functions: for each item, the CFG predecessors
 * inside its own function's region plus (for call resume points) the
 * last delay slot of the call the control returns past. The resume
 * edge is the resolved interprocedural edge the base CFG leaves
 * unknown: the convention says the callee eventually returns to it
 * with callee-owned state restored, which is exactly what the
 * per-function analyses assume (and what CC001-CC003 verify on the
 * callee side). The regions partition the unit, so one flat layout,
 * indexed by item like the CFG's, serves every function.
 */
struct FuncEdges
{
    /** In-region predecessors of item i:
     *  `pred_list[pred_begin[i] .. pred_begin[i + 1])`. */
    std::vector<uint32_t> pred_begin, pred_list;
    /** Per item: feeding call's last slot, or kNoItem. */
    std::vector<size_t> resume_from;

    std::span<const uint32_t>
    preds(size_t i) const
    {
        return {pred_list.data() + pred_begin[i],
                pred_list.data() + pred_begin[i + 1]};
    }
};

/** Lay out the edge view of `graph`'s functions. */
FuncEdges makeFuncEdges(const CallGraph &graph);

/** Graphviz dot rendering: one digraph, functions as nodes, resolved
 *  call edges as arrows (dotted for indirect calls, a "?" node for
 *  unresolved ones), doubled outline for recursive functions, dashed
 *  for interprocedurally-dead ones. */
std::string callGraphDot(const CallGraph &graph, const std::string &name);

/** Calling-convention checker knobs. */
struct InterprocOptions
{
    /**
     * Registers the convention declares callee-saved (CC001). The
     * repo's own compiler uses a caller-save convention, so the
     * default checks nothing; set bits to opt registers in.
     */
    uint16_t callee_saved = 0;
    /** Registers assumed live-in at the unit entry (mirrors
     *  VerifyOptions::assume_initialized; CC004 never blames them). */
    uint16_t assume_initialized = 0;
};

/** Run the CC001-CC004 / LT004 checks over a built call graph. */
void checkCallingConventions(const CallGraph &graph,
                             const InterprocOptions &options,
                             DiagnosticEngine *diags);

} // namespace mips::verify
