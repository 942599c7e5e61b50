#include "verify/symexec.h"

#include <algorithm>

#include "isa/branch.h"
#include "isa/instruction.h"
#include "isa/registers.h"
#include "isa/special.h"
#include "isa/symbolic.h"
#include "support/strings.h"

namespace mips::verify {

// ===================== ExprArena =====================

namespace {

/** Slots of a fresh table, and the most a reset keeps: one run that
 *  grows an arena past this (up to max_nodes) gives the memory back
 *  instead of clearing it at every later reset. */
constexpr size_t kInitialSlots = 256;
constexpr size_t kKeptSlots = size_t{1} << 13;
constexpr uint32_t kEmptySlot = static_cast<uint32_t>(-1);

uint64_t
hashNode(const ExprNode &n)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<uint64_t>(n.op));
    mix(n.aux);
    mix(n.a);
    mix(n.b);
    mix(n.c);
    mix(n.value);
    return h ^ (h >> 32);
}

/** Linear probing: the slot holding the entry `same` accepts, or the
 *  empty slot where it belongs. */
template <typename Same>
size_t
probe(const std::vector<uint32_t> &slots, uint64_t hash, Same same)
{
    size_t mask = slots.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        if (slots[i] == kEmptySlot || same(slots[i]))
            return i;
    }
}

/** Rebuild `slots` at `size` slots over entries 0..count-1. */
template <typename Hash>
void
rehash(std::vector<uint32_t> *slots, size_t size, size_t count, Hash hash)
{
    slots->assign(size, kEmptySlot);
    for (uint32_t id = 0; id < count; ++id) {
        size_t i = probe(*slots, hash(id), [](uint32_t) { return false; });
        (*slots)[i] = id;
    }
}

/** Empty `slots` for reuse, or shrink it back if it grew too large. */
void
clearSlots(std::vector<uint32_t> *slots, size_t initial)
{
    if (slots->size() > kKeptSlots)
        std::vector<uint32_t>(initial, kEmptySlot).swap(*slots);
    else
        std::fill(slots->begin(), slots->end(), kEmptySlot);
}

} // namespace

ExprArena::ExprArena(const reorg::AliasOptions &alias, size_t max_nodes)
    : alias_(alias), max_nodes_(max_nodes),
      node_slots_(kInitialSlots, kEmptySlot)
{
    konst(0); // node 0: the overflow fallback is always valid
}

void
ExprArena::reset()
{
    overflowed_ = false;
    if (node_slots_.size() > kKeptSlots)
        std::vector<ExprNode>().swap(nodes_);
    else
        nodes_.clear();
    clearSlots(&node_slots_, kInitialSlots);
    konst(0);
}

ExprRef
ExprArena::intern(const ExprNode &n)
{
    size_t i = probe(node_slots_, hashNode(n),
                     [&](ExprRef r) { return nodes_[r] == n; });
    if (node_slots_[i] != kEmptySlot)
        return node_slots_[i];
    if (nodes_.size() >= max_nodes_) {
        overflowed_ = true;
        return 0;
    }
    ExprRef r = static_cast<ExprRef>(nodes_.size());
    nodes_.push_back(n);
    node_slots_[i] = r;
    if (nodes_.size() * 2 > node_slots_.size()) {
        rehash(&node_slots_, node_slots_.size() * 2, nodes_.size(),
               [this](uint32_t id) { return hashNode(nodes_[id]); });
    }
    return r;
}

ExprRef
ExprArena::konst(uint32_t v)
{
    ExprNode n;
    n.op = ExprOp::CONST;
    n.value = v;
    return intern(n);
}

ExprRef
ExprArena::input(uint32_t id)
{
    ExprNode n;
    n.op = ExprOp::INPUT;
    n.value = id;
    return intern(n);
}

ExprRef
ExprArena::labelAddr(assembler::LabelId label)
{
    ExprNode n;
    n.op = ExprOp::LABEL_ADDR;
    n.value = label;
    return intern(n);
}

namespace {

/** Binary node shorthand. */
ExprNode
binary(ExprOp op, ExprRef a, ExprRef b)
{
    ExprNode n;
    n.op = op;
    n.a = a;
    n.b = b;
    return n;
}

} // namespace

ExprRef
ExprArena::add(ExprRef a, ExprRef b)
{
    if (node(a).op == ExprOp::CONST && node(b).op == ExprOp::CONST)
        return konst(node(a).value + node(b).value);
    if (node(a).op == ExprOp::CONST)
        std::swap(a, b);
    if (node(b).op == ExprOp::CONST) {
        uint32_t vb = node(b).value;
        if (vb == 0)
            return a;
        // Reassociate constant chains: (x + c1) + c2 -> x + (c1+c2).
        if (node(a).op == ExprOp::ADD &&
            node(node(a).b).op == ExprOp::CONST) {
            ExprRef x = node(a).a;
            uint32_t c1 = node(node(a).b).value;
            return add(x, konst(c1 + vb));
        }
    } else if (a > b) {
        std::swap(a, b);
    }
    return intern(binary(ExprOp::ADD, a, b));
}

ExprRef
ExprArena::sub(ExprRef a, ExprRef b)
{
    if (node(a).op == ExprOp::CONST && node(b).op == ExprOp::CONST)
        return konst(node(a).value - node(b).value);
    if (node(b).op == ExprOp::CONST)
        return add(a, konst(0u - node(b).value));
    if (a == b)
        return konst(0);
    return intern(binary(ExprOp::SUB, a, b));
}

ExprRef
ExprArena::and_(ExprRef a, ExprRef b)
{
    if (node(a).op == ExprOp::CONST && node(b).op == ExprOp::CONST)
        return konst(node(a).value & node(b).value);
    if (node(a).op == ExprOp::CONST)
        std::swap(a, b);
    if (node(b).op == ExprOp::CONST) {
        uint32_t vb = node(b).value;
        if (vb == 0)
            return konst(0);
        if (vb == 0xffffffffu)
            return a;
    } else if (a == b) {
        return a;
    } else if (a > b) {
        std::swap(a, b);
    }
    return intern(binary(ExprOp::AND, a, b));
}

ExprRef
ExprArena::or_(ExprRef a, ExprRef b)
{
    if (node(a).op == ExprOp::CONST && node(b).op == ExprOp::CONST)
        return konst(node(a).value | node(b).value);
    if (node(a).op == ExprOp::CONST)
        std::swap(a, b);
    if (node(b).op == ExprOp::CONST) {
        uint32_t vb = node(b).value;
        if (vb == 0)
            return a;
        if (vb == 0xffffffffu)
            return konst(0xffffffffu);
    } else if (a == b) {
        return a;
    } else if (a > b) {
        std::swap(a, b);
    }
    return intern(binary(ExprOp::OR, a, b));
}

ExprRef
ExprArena::xor_(ExprRef a, ExprRef b)
{
    if (node(a).op == ExprOp::CONST && node(b).op == ExprOp::CONST)
        return konst(node(a).value ^ node(b).value);
    if (node(a).op == ExprOp::CONST)
        std::swap(a, b);
    if (node(b).op == ExprOp::CONST) {
        if (node(b).value == 0)
            return a;
    } else if (a == b) {
        return konst(0);
    } else if (a > b) {
        std::swap(a, b);
    }
    return intern(binary(ExprOp::XOR, a, b));
}

ExprRef
ExprArena::not_(ExprRef a)
{
    if (node(a).op == ExprOp::CONST)
        return konst(~node(a).value);
    if (node(a).op == ExprOp::NOT)
        return node(a).a;
    ExprNode n;
    n.op = ExprOp::NOT;
    n.a = a;
    return intern(n);
}

ExprRef
ExprArena::shl(ExprRef a, ExprRef amt)
{
    if (node(amt).op == ExprOp::CONST) {
        uint32_t s = node(amt).value & 31;
        if (s == 0)
            return a;
        if (node(a).op == ExprOp::CONST)
            return konst(node(a).value << s);
    }
    return intern(binary(ExprOp::SHL, a, amt));
}

ExprRef
ExprArena::shrl(ExprRef a, ExprRef amt)
{
    if (node(amt).op == ExprOp::CONST) {
        uint32_t s = node(amt).value & 31;
        if (s == 0)
            return a;
        if (node(a).op == ExprOp::CONST)
            return konst(node(a).value >> s);
    }
    return intern(binary(ExprOp::SHRL, a, amt));
}

ExprRef
ExprArena::shra(ExprRef a, ExprRef amt)
{
    if (node(amt).op == ExprOp::CONST) {
        uint32_t s = node(amt).value & 31;
        if (s == 0)
            return a;
        if (node(a).op == ExprOp::CONST)
            return konst(static_cast<uint32_t>(
                static_cast<int32_t>(node(a).value) >> s));
    }
    return intern(binary(ExprOp::SHRA, a, amt));
}

ExprRef
ExprArena::extractByte(ExprRef sel, ExprRef w)
{
    if (node(sel).op == ExprOp::CONST && node(w).op == ExprOp::CONST) {
        return konst((node(w).value >> (8 * (node(sel).value & 3))) &
                     0xff);
    }
    return intern(binary(ExprOp::XBYTE, sel, w));
}

ExprRef
ExprArena::insertByte(ExprRef old, ExprRef src, ExprRef sel)
{
    if (node(old).op == ExprOp::CONST &&
        node(src).op == ExprOp::CONST &&
        node(sel).op == ExprOp::CONST) {
        int shift = 8 * (node(sel).value & 3);
        uint32_t byte_mask = 0xffu << shift;
        return konst((node(old).value & ~byte_mask) |
                     ((node(src).value & 0xff) << shift));
    }
    ExprNode n;
    n.op = ExprOp::IBYTE;
    n.a = old;
    n.b = src;
    n.c = sel;
    return intern(n);
}

ExprRef
ExprArena::cmp(isa::Cond c, ExprRef a, ExprRef b)
{
    using isa::Cond;
    if (c == Cond::ALWAYS)
        return konst(1);
    if (c == Cond::NEVER)
        return konst(0);
    bool unary = c == Cond::MI || c == Cond::PL || c == Cond::EVN ||
                 c == Cond::ODD;
    if (node(a).op == ExprOp::CONST &&
        (unary || node(b).op == ExprOp::CONST)) {
        uint32_t vb = unary ? 0 : node(b).value;
        return konst(isa::evalCond(c, node(a).value, vb) ? 1 : 0);
    }
    if (a == b && !unary) {
        switch (c) {
          case Cond::EQ: case Cond::LE: case Cond::GE:
          case Cond::LEU: case Cond::GEU:
            return konst(1);
          case Cond::NE: case Cond::LT: case Cond::GT:
          case Cond::LTU: case Cond::GTU:
            return konst(0);
          default:
            break;
        }
    }
    ExprNode n = binary(ExprOp::CMP, a, b);
    n.aux = static_cast<uint8_t>(c);
    return intern(n);
}

ExprRef
ExprArena::select(ExprRef c, ExprRef t, ExprRef f)
{
    if (node(c).op == ExprOp::CONST)
        return node(c).value != 0 ? t : f;
    if (t == f)
        return t;
    ExprNode n;
    n.op = ExprOp::SELECT;
    n.a = c;
    n.b = t;
    n.c = f;
    return intern(n);
}

ExprRef
ExprArena::memInit()
{
    ExprNode n;
    n.op = ExprOp::MEM_INIT;
    return intern(n);
}

std::pair<ExprRef, uint32_t>
ExprArena::decompose(ExprRef addr) const
{
    const ExprNode &n = node(addr);
    if (n.op == ExprOp::CONST)
        return {kNoExpr, n.value};
    if (n.op == ExprOp::ADD && node(n.b).op == ExprOp::CONST)
        return {n.a, node(n.b).value};
    return {addr, 0};
}

bool
ExprArena::definitelyDisjoint(ExprRef p, ExprRef q) const
{
    auto [pb, po] = decompose(p);
    auto [qb, qo] = decompose(q);
    if (pb != qb || po == qo)
        return false;
    if (pb == kNoExpr) {
        // Two distinct absolute constants: disjoint unless either is
        // in the volatile (device-register) window — mirroring
        // reorg::Dag::mayAlias.
        return po < alias_.volatile_base && qo < alias_.volatile_base;
    }
    // Same base term, distinct constant displacements. The base is a
    // *value* term, so "never redefined" holds by construction.
    return true;
}

ExprRef
ExprArena::memStore(ExprRef mem, ExprRef addr, ExprRef val)
{
    // Keep chains of provably disjoint stores insertion-sorted by
    // address term so legally reordered independent stores normalize
    // to one canonical chain.
    const ExprNode prev = node(mem); // copy: intern() may reallocate
    if (prev.op == ExprOp::MEM_STORE && addr < prev.b &&
        definitelyDisjoint(addr, prev.b)) {
        ExprRef inner = memStore(prev.a, addr, val);
        ExprNode n;
        n.op = ExprOp::MEM_STORE;
        n.a = inner;
        n.b = prev.b;
        n.c = prev.c;
        return intern(n);
    }
    ExprNode n;
    n.op = ExprOp::MEM_STORE;
    n.a = mem;
    n.b = addr;
    n.c = val;
    return intern(n);
}

ExprRef
ExprArena::memLoad(ExprRef mem, ExprRef addr)
{
    // Forward from a matching store; skip provably disjoint ones;
    // stop (opaque load) at the first possible alias.
    ExprRef walk = mem;
    for (;;) {
        const ExprNode n = node(walk); // copy: intern() may reallocate
        if (n.op != ExprOp::MEM_STORE)
            break;
        if (n.b == addr)
            return n.c;
        if (!definitelyDisjoint(addr, n.b))
            break;
        walk = n.a;
    }
    return intern(binary(ExprOp::MEM_LOAD, walk, addr));
}

ExprRef
ExprArena::sysInit()
{
    ExprNode n;
    n.op = ExprOp::SYS_INIT;
    return intern(n);
}

ExprRef
ExprArena::sysEffect(ExprRef sys, uint8_t sreg, ExprRef val)
{
    ExprNode n = binary(ExprOp::SYS_EFFECT, sys, val);
    n.aux = sreg;
    return intern(n);
}

ExprRef
ExprArena::sysRead(ExprRef sys, uint8_t sreg)
{
    ExprNode n;
    n.op = ExprOp::SYS_READ;
    n.a = sys;
    n.aux = sreg;
    return intern(n);
}

std::string
ExprArena::str(ExprRef r, int max_depth) const
{
    const ExprNode &n = node(r);
    if (max_depth <= 0)
        return "...";
    auto rec = [this, max_depth](ExprRef x) {
        return str(x, max_depth - 1);
    };
    // Concatenation goes through append() rather than operator+ on
    // string temporaries: GCC 12's -Wrestrict misfires on the inlined
    // `const char * + std::string&&` overload at -O3 (PR 105651), and
    // this TU builds with -Werror.
    auto cat = [](std::initializer_list<std::string> parts) {
        std::string out;
        for (const std::string &part : parts)
            out += part;
        return out;
    };
    switch (n.op) {
      case ExprOp::CONST:
        return n.value < 1024
                   ? support::strprintf("%u", n.value)
                   : support::strprintf("0x%x", n.value);
      case ExprOp::INPUT:
        if (n.value >= 1 && n.value <= 15)
            return support::strprintf("r%u@entry", n.value);
        if (n.value == kInputLo)
            return "lo@entry";
        if (n.value == kInputCallLink)
            return "retaddr";
        return support::strprintf("in%u", n.value);
      case ExprOp::LABEL_ADDR:
        return names_ && n.value < names_->size()
                   ? cat({"&", std::string(names_->name(n.value))})
                   : "&?";
      case ExprOp::ADD: return cat({"(", rec(n.a), " + ", rec(n.b), ")"});
      case ExprOp::SUB: return cat({"(", rec(n.a), " - ", rec(n.b), ")"});
      case ExprOp::AND: return cat({"(", rec(n.a), " & ", rec(n.b), ")"});
      case ExprOp::OR:  return cat({"(", rec(n.a), " | ", rec(n.b), ")"});
      case ExprOp::XOR: return cat({"(", rec(n.a), " ^ ", rec(n.b), ")"});
      case ExprOp::NOT: return cat({"~", rec(n.a)});
      case ExprOp::SHL: return cat({"(", rec(n.a), " << ", rec(n.b), ")"});
      case ExprOp::SHRL:
        return cat({"(", rec(n.a), " >> ", rec(n.b), ")"});
      case ExprOp::SHRA:
        return cat({"(", rec(n.a), " >>a ", rec(n.b), ")"});
      case ExprOp::XBYTE:
        return cat({"xc(", rec(n.a), ", ", rec(n.b), ")"});
      case ExprOp::IBYTE:
        return cat({"ic(", rec(n.a), ", ", rec(n.b), ", ", rec(n.c),
                    ")"});
      case ExprOp::CMP:
        return cat({isa::condName(static_cast<isa::Cond>(n.aux)), "(",
                    rec(n.a), ", ", rec(n.b), ")"});
      case ExprOp::SELECT:
        return cat({"sel(", rec(n.a), ", ", rec(n.b), ", ", rec(n.c),
                    ")"});
      case ExprOp::MEM_INIT: return "mem0";
      case ExprOp::MEM_STORE:
        return cat({"st(", rec(n.a), ", [", rec(n.b), "]=", rec(n.c),
                    ")"});
      case ExprOp::MEM_LOAD:
        return cat({"ld(", rec(n.a), ", [", rec(n.b), "])"});
      case ExprOp::SYS_INIT: return "sys0";
      case ExprOp::SYS_EFFECT:
        return cat({support::strprintf("mts%u(", n.aux), rec(n.a), ", ",
                    rec(n.b), ")"});
      case ExprOp::SYS_READ:
        return cat({support::strprintf("mfs%u(", n.aux), rec(n.a), ")"});
    }
    return "?";
}

// ===================== interpreters =====================

SymState
entryState(ExprArena &arena)
{
    SymState s;
    s.regs[0] = arena.konst(0);
    for (int r = 1; r < isa::kNumRegs; ++r)
        s.regs[r] = arena.input(static_cast<uint32_t>(r));
    s.lo = arena.input(kInputLo);
    s.mem = arena.memInit();
    s.sys = arena.sysInit();
    return s;
}

RegionMap
buildRegionMap(const assembler::Unit &unit,
               const assembler::LabelTable *known)
{
    RegionMap m;
    size_t n = unit.items.size();
    m.stop.assign(n, 0);
    m.stop_label.assign(n, assembler::kNoLabel);
    m.fence.assign(n, -1);
    int ordinal = -1;
    bool in_run = false;
    for (size_t i = 0; i < n; ++i) {
        const assembler::Item &it = unit.items[i];
        bool fenced = it.no_reorder || it.is_data;
        if (fenced) {
            if (!in_run)
                ++ordinal;
            m.fence[i] = ordinal;
        }
        in_run = fenced;
        for (assembler::LabelId id : unit.labels.chain(it.label)) {
            if (!known || (id < known->size() && known->defined(id))) {
                m.stop[i] = 1;
                m.stop_label[i] = unit.labels.first(id);
                break;
            }
        }
    }
    return m;
}

namespace {

using assembler::Item;
using assembler::Unit;
using isa::Instruction;

/** One interpreter instance executes one region run. */
class Interp
{
  public:
    Interp(ExprArena &arena, const Unit &unit, const RegionMap &map,
           const SymLimits &limits, bool pipeline, SymRun *run)
        : arena_(arena), unit_(unit), map_(map), limits_(limits),
          pipeline_(pipeline), run_(*run)
    {
        run_.exits.clear();
        run_.ok = false;
        run_.why.clear();
        run_.fail_at = 0;
    }

    void run(size_t start, const SymState &entry);

  private:
    enum class Step { CONTINUE, FINAL, FAIL };

    Step stepSequential(size_t idx);
    Step stepPipeline(size_t idx);

    ExprRef getReg(isa::Reg r) const { return st_.regs[r]; }

    void
    setReg(isa::Reg r, ExprRef v)
    {
        if (r != isa::kZeroReg)
            st_.regs[r] = v;
    }

    /** Pending load committed into a *copy* of the state: side exits
     *  must not perturb the continuing fall-through path. */
    SymState
    captureState() const
    {
        SymState s = st_;
        if (load_pending_ && load_reg_ != isa::kZeroReg)
            s.regs[load_reg_] = load_val_;
        return s;
    }

    Step
    fail(size_t at, std::string why)
    {
        run_.ok = false;
        run_.why = std::move(why);
        run_.fail_at = at;
        return Step::FAIL;
    }

    void
    pushFinal(SymExit e)
    {
        e.state = captureState();
        run_.exits.push_back(std::move(e));
    }

    /** Branch target: symbolic label or computed numeric address. */
    static void
    fillBranchTarget(SymExit *e, const Unit &unit, size_t idx,
                     const isa::BranchPiece &b, const Item &it)
    {
        if (it.target != assembler::kNoLabel) {
            e->label = it.target;
        } else {
            e->has_addr = true;
            e->addr = unit.origin + static_cast<uint32_t>(idx) + 1 +
                      static_cast<uint32_t>(b.offset);
        }
    }

    /** Effective address term; false for unsupported label uses. */
    bool
    effAddr(const Item &it, const isa::MemPiece &m, ExprRef base,
            ExprRef index, ExprRef *out)
    {
        if (it.target != assembler::kNoLabel) {
            if (m.mode != isa::MemMode::ABSOLUTE)
                return false;
            *out = arena_.labelAddr(it.target);
            return true;
        }
        *out = isa::memEffectiveAddressSymbolic(m, arena_, base, index);
        return true;
    }

    ExprRef
    longImmValue(const Item &it, const isa::MemPiece &m)
    {
        if (it.target != assembler::kNoLabel)
            return arena_.labelAddr(it.target);
        return arena_.konst(static_cast<uint32_t>(m.imm));
    }

    ExprArena &arena_;
    const Unit &unit_;
    const RegionMap &map_;
    const SymLimits &limits_;
    const bool pipeline_;
    SymRun &run_;

    SymState st_;

    // Pipeline-only: the one-deep load delay and the pending taken
    // transfer whose delay shadow is still executing.
    bool load_pending_ = false;
    isa::Reg load_reg_ = isa::kZeroReg;
    ExprRef load_val_ = kNoExpr;
    bool exit_pending_ = false;
    SymExit pexit_;
    int pslots_ = 0;
};

void
Interp::run(size_t start, const SymState &entry)
{
    st_ = entry;
    size_t idx = start;
    size_t steps = 0;
    for (;;) {
        if (arena_.overflowed()) {
            fail(idx, "expression budget exhausted");
            return;
        }
        // Region boundaries are checked before executing the item.
        if (idx >= unit_.items.size()) {
            if (exit_pending_) {
                fail(idx, "delay shadow runs off the end of the unit");
                return;
            }
            SymExit e;
            e.kind = SymExitKind::FALL_END;
            e.at = idx;
            pushFinal(std::move(e));
            run_.ok = true;
            return;
        }
        if (map_.fence[idx] >= 0) {
            if (exit_pending_) {
                fail(idx, "delay shadow enters a fenced region");
                return;
            }
            SymExit e;
            e.kind = SymExitKind::FALL_FENCE;
            e.ordinal = static_cast<size_t>(map_.fence[idx]);
            e.at = idx;
            pushFinal(std::move(e));
            run_.ok = true;
            return;
        }
        if (idx != start && map_.stop[idx]) {
            if (exit_pending_) {
                fail(idx, "delay shadow crosses a label");
                return;
            }
            SymExit e;
            e.kind = SymExitKind::FALL_LABEL;
            e.label = map_.stop_label[idx];
            e.at = idx;
            pushFinal(std::move(e));
            run_.ok = true;
            return;
        }
        if (++steps > limits_.max_steps) {
            fail(idx, "step budget exhausted");
            return;
        }

        Step r = pipeline_ ? stepPipeline(idx) : stepSequential(idx);
        if (r == Step::FAIL)
            return;
        if (r == Step::FINAL) {
            run_.ok = true;
            return;
        }
        size_t executed = idx;
        ++idx;
        // Count down the delay shadow of a pending taken transfer;
        // the transfer word itself is not one of its own slots.
        if (exit_pending_ && executed != pexit_.at) {
            if (--pslots_ == 0) {
                SymExit e = pexit_;
                exit_pending_ = false;
                e.state = captureState();
                bool is_final = e.kind != SymExitKind::BRANCH;
                run_.exits.push_back(std::move(e));
                if (is_final) {
                    run_.ok = true;
                    return;
                }
            }
        }
    }
}

Interp::Step
Interp::stepSequential(size_t idx)
{
    const Item &it = unit_.items[idx];
    if (it.is_data)
        return fail(idx, "data word outside a fenced run");
    const Instruction &inst = it.inst;

    // Mirrors sim/functional.cc: pieces execute strictly in order,
    // each seeing the previous piece's writes.
    if (inst.alu()) {
        const isa::AluPiece &p = *inst.alu();
        ExprRef rs = getReg(p.rs);
        ExprRef s2 = p.src2.is_imm ? arena_.konst(p.src2.imm4)
                                   : getReg(p.src2.reg);
        auto out = isa::evalAluSymbolic(p, arena_, rs, s2,
                                        getReg(p.rd), st_.lo);
        if (out.writes_rd)
            setReg(p.rd, out.rd);
        if (out.writes_lo)
            st_.lo = out.lo;
    }

    if (inst.mem()) {
        const isa::MemPiece &m = *inst.mem();
        if (m.mode == isa::MemMode::LONG_IMM) {
            setReg(m.rd, longImmValue(it, m));
        } else {
            ExprRef ea = kNoExpr;
            if (!effAddr(it, m, getReg(m.base), getReg(m.index), &ea))
                return fail(idx, "label-relative addressing mode");
            if (m.is_store)
                st_.mem = arena_.memStore(st_.mem, ea, getReg(m.rd));
            else
                setReg(m.rd, arena_.memLoad(st_.mem, ea));
        }
    }

    if (inst.branch()) {
        const isa::BranchPiece &b = *inst.branch();
        if (b.cond != isa::Cond::NEVER) {
            SymExit e;
            e.at = idx;
            fillBranchTarget(&e, unit_, idx, b, it);
            if (b.cond == isa::Cond::ALWAYS) {
                e.kind = SymExitKind::GOTO;
                pushFinal(std::move(e));
                return Step::FINAL;
            }
            e.kind = SymExitKind::BRANCH;
            ExprRef s2 = b.src2.is_imm ? arena_.konst(b.src2.imm4)
                                       : getReg(b.src2.reg);
            e.cond = arena_.cmp(b.cond, getReg(b.rs), s2);
            e.state = captureState();
            run_.exits.push_back(std::move(e));
        }
    } else if (inst.jump()) {
        const isa::JumpPiece &j = *inst.jump();
        SymExit e;
        e.at = idx;
        if (isa::jumpIsTable(j.kind)) {
            // The dispatched target is the fetched table entry; the
            // table label (metadata) rides along for the validator's
            // entry-sequence comparison.
            e.kind = SymExitKind::JUMP_TABLE;
            e.target = arena_.memLoad(
                st_.mem,
                arena_.add(getReg(j.target_reg), getReg(j.index)));
            e.label = it.target;
            pushFinal(std::move(e));
            return Step::FINAL;
        }
        if (isa::jumpIsIndirect(j.kind))
            e.target = getReg(j.target_reg);
        else if (it.target != assembler::kNoLabel)
            e.label = it.target;
        else {
            e.has_addr = true;
            e.addr = j.target_addr;
        }
        if (isa::jumpIsCall(j.kind)) {
            // Both machines compute different (correct) return
            // addresses; the validator compares them as one shared
            // opaque token.
            setReg(j.link, arena_.input(kInputCallLink));
            e.kind = SymExitKind::CALL;
        } else {
            e.kind = isa::jumpIsIndirect(j.kind)
                         ? SymExitKind::JUMP_INDIRECT
                         : SymExitKind::GOTO;
        }
        pushFinal(std::move(e));
        return Step::FINAL;
    } else if (inst.special()) {
        const isa::SpecialPiece &sp = *inst.special();
        switch (sp.op) {
          case isa::SpecialOp::NOP:
            break;
          case isa::SpecialOp::HALT: {
            SymExit e;
            e.kind = SymExitKind::HALT;
            e.at = idx;
            pushFinal(std::move(e));
            return Step::FINAL;
          }
          case isa::SpecialOp::TRAP: {
            SymExit e;
            e.kind = SymExitKind::TRAP;
            e.trap_code = sp.trap_code;
            e.at = idx;
            pushFinal(std::move(e));
            return Step::FINAL;
          }
          case isa::SpecialOp::RFE: {
            SymExit e;
            e.kind = SymExitKind::RFE;
            e.at = idx;
            pushFinal(std::move(e));
            return Step::FINAL;
          }
          case isa::SpecialOp::MFS:
            if (sp.sreg == isa::SpecialReg::LO)
                setReg(sp.reg, st_.lo);
            else
                setReg(sp.reg,
                       arena_.sysRead(st_.sys,
                                      static_cast<uint8_t>(sp.sreg)));
            break;
          case isa::SpecialOp::MTS:
            if (sp.sreg == isa::SpecialReg::LO)
                st_.lo = getReg(sp.reg);
            else
                st_.sys = arena_.sysEffect(
                    st_.sys, static_cast<uint8_t>(sp.sreg),
                    getReg(sp.reg));
            break;
        }
    }
    return Step::CONTINUE;
}

Interp::Step
Interp::stepPipeline(size_t idx)
{
    const Item &it = unit_.items[idx];
    if (it.is_data)
        return fail(idx, "data word outside a fenced run");
    const Instruction &inst = it.inst;

    // Mirrors sim/cpu.cc stepInner(): ALL operand reads happen before
    // the pending load commits, so the word in a load's delay slot
    // sees the stale register value.
    ExprRef alu_rs = kNoExpr, alu_s2 = kNoExpr, alu_rdold = kNoExpr;
    ExprRef alu_lo = kNoExpr;
    if (inst.alu()) {
        const isa::AluPiece &p = *inst.alu();
        alu_rs = getReg(p.rs);
        alu_s2 = p.src2.is_imm ? arena_.konst(p.src2.imm4)
                               : getReg(p.src2.reg);
        alu_rdold = getReg(p.rd);
        alu_lo = st_.lo;
    }
    ExprRef mem_base = kNoExpr, mem_index = kNoExpr, mem_data = kNoExpr;
    if (inst.mem()) {
        mem_base = getReg(inst.mem()->base);
        mem_index = getReg(inst.mem()->index);
        mem_data = getReg(inst.mem()->rd);
    }
    ExprRef br_rs = kNoExpr, br_s2 = kNoExpr;
    if (inst.branch()) {
        br_rs = getReg(inst.branch()->rs);
        br_s2 = inst.branch()->src2.is_imm
                    ? arena_.konst(inst.branch()->src2.imm4)
                    : getReg(inst.branch()->src2.reg);
    }
    ExprRef jump_tv = kNoExpr, jump_iv = kNoExpr;
    if (inst.jump()) {
        jump_tv = getReg(inst.jump()->target_reg);
        jump_iv = getReg(inst.jump()->index);
    }
    ExprRef special_val = kNoExpr;
    if (inst.special())
        special_val = getReg(inst.special()->reg);

    // The previous word's load lands now, after this word's reads and
    // before its writes (a same-register write below wins).
    if (load_pending_) {
        setReg(load_reg_, load_val_);
        load_pending_ = false;
    }

    isa::SymAluOutputs<ExprArena> alu_out;
    if (inst.alu())
        alu_out = isa::evalAluSymbolic(*inst.alu(), arena_, alu_rs,
                                       alu_s2, alu_rdold, alu_lo);

    // Memory commits before the same word's register writes.
    bool load_issued = false;
    isa::Reg load_rd = isa::kZeroReg;
    ExprRef load_v = kNoExpr;
    if (inst.mem()) {
        const isa::MemPiece &m = *inst.mem();
        if (m.mode == isa::MemMode::LONG_IMM) {
            setReg(m.rd, longImmValue(it, m));
        } else {
            ExprRef ea = kNoExpr;
            if (!effAddr(it, m, mem_base, mem_index, &ea))
                return fail(idx, "label-relative addressing mode");
            if (m.is_store) {
                st_.mem = arena_.memStore(st_.mem, ea, mem_data);
            } else {
                // The value is read from memory now; only the
                // register write is delayed by one word.
                load_issued = true;
                load_rd = m.rd;
                load_v = arena_.memLoad(st_.mem, ea);
            }
        }
    }

    if (inst.alu()) {
        if (alu_out.writes_rd)
            setReg(inst.alu()->rd, alu_out.rd);
        if (alu_out.writes_lo)
            st_.lo = alu_out.lo;
    }
    if (load_issued) {
        load_pending_ = true;
        load_reg_ = load_rd;
        load_val_ = load_v;
    }

    if (inst.branch()) {
        const isa::BranchPiece &b = *inst.branch();
        if (b.cond != isa::Cond::NEVER) {
            if (exit_pending_) {
                return fail(idx,
                            "control transfer inside a delay shadow");
            }
            SymExit e;
            e.at = idx;
            fillBranchTarget(&e, unit_, idx, b, it);
            if (b.cond == isa::Cond::ALWAYS) {
                e.kind = SymExitKind::GOTO;
            } else {
                e.kind = SymExitKind::BRANCH;
                e.cond = arena_.cmp(b.cond, br_rs, br_s2);
            }
            pexit_ = std::move(e);
            pslots_ = isa::kBranchDelay;
            exit_pending_ = true;
        }
    } else if (inst.jump()) {
        const isa::JumpPiece &j = *inst.jump();
        if (exit_pending_)
            return fail(idx, "control transfer inside a delay shadow");
        SymExit e;
        e.at = idx;
        if (isa::jumpIsTable(j.kind)) {
            // The table fetch issues at the jump word: the target term
            // is frozen now, before the delay shadow's own memory
            // effects commit (HZ007 forbids shadow stores anyway).
            e.kind = SymExitKind::JUMP_TABLE;
            e.target = arena_.memLoad(st_.mem,
                                      arena_.add(jump_tv, jump_iv));
            e.label = it.target;
        } else if (isa::jumpIsIndirect(j.kind))
            e.target = jump_tv;
        else if (it.target != assembler::kNoLabel)
            e.label = it.target;
        else {
            e.has_addr = true;
            e.addr = j.target_addr;
        }
        if (isa::jumpIsCall(j.kind)) {
            setReg(j.link, arena_.input(kInputCallLink));
            e.kind = SymExitKind::CALL;
        } else if (!isa::jumpIsTable(j.kind)) {
            e.kind = isa::jumpIsIndirect(j.kind)
                         ? SymExitKind::JUMP_INDIRECT
                         : SymExitKind::GOTO;
        }
        pexit_ = std::move(e);
        pslots_ = isa::jumpDelay(j.kind);
        exit_pending_ = true;
    } else if (inst.special()) {
        const isa::SpecialPiece &sp = *inst.special();
        switch (sp.op) {
          case isa::SpecialOp::NOP:
            break;
          case isa::SpecialOp::HALT:
          case isa::SpecialOp::TRAP:
          case isa::SpecialOp::RFE: {
            if (exit_pending_) {
                return fail(idx,
                            "control transfer inside a delay shadow");
            }
            SymExit e;
            e.at = idx;
            e.kind = sp.op == isa::SpecialOp::HALT
                         ? SymExitKind::HALT
                         : sp.op == isa::SpecialOp::TRAP
                               ? SymExitKind::TRAP
                               : SymExitKind::RFE;
            e.trap_code = sp.trap_code;
            pushFinal(std::move(e));
            return Step::FINAL;
          }
          case isa::SpecialOp::MFS:
            if (sp.sreg == isa::SpecialReg::LO)
                setReg(sp.reg, st_.lo);
            else
                setReg(sp.reg,
                       arena_.sysRead(st_.sys,
                                      static_cast<uint8_t>(sp.sreg)));
            break;
          case isa::SpecialOp::MTS:
            if (sp.sreg == isa::SpecialReg::LO)
                st_.lo = special_val;
            else
                st_.sys = arena_.sysEffect(
                    st_.sys, static_cast<uint8_t>(sp.sreg),
                    special_val);
            break;
        }
    }
    return Step::CONTINUE;
}

} // namespace

void
runSequential(ExprArena &arena, const assembler::Unit &unit,
              const RegionMap &map, size_t start, const SymState &entry,
              const SymLimits &limits, SymRun *run)
{
    Interp(arena, unit, map, limits, /*pipeline=*/false, run)
        .run(start, entry);
}

void
runPipeline(ExprArena &arena, const assembler::Unit &unit,
            const RegionMap &map, size_t start, const SymState &entry,
            const SymLimits &limits, SymRun *run)
{
    Interp(arena, unit, map, limits, /*pipeline=*/true, run)
        .run(start, entry);
}

bool
advanceSequential(ExprArena &arena, const assembler::Unit &unit,
                  size_t start, size_t count, SymState *state)
{
    for (size_t i = 0; i < count; ++i) {
        size_t idx = start + i;
        if (idx >= unit.items.size())
            return false;
        const assembler::Item &it = unit.items[idx];
        if (it.is_data || it.no_reorder)
            return false;
        const Instruction &inst = it.inst;
        if (inst.branch() || inst.jump())
            return false;
        if (inst.special() &&
            inst.special()->op != isa::SpecialOp::NOP)
            return false;
        if (inst.mem() && inst.mem()->mode != isa::MemMode::LONG_IMM)
            return false;
        if (inst.alu()) {
            const isa::AluPiece &p = *inst.alu();
            ExprRef rs = state->regs[p.rs];
            ExprRef s2 = p.src2.is_imm ? arena.konst(p.src2.imm4)
                                       : state->regs[p.src2.reg];
            auto out = isa::evalAluSymbolic(p, arena, rs, s2,
                                            state->regs[p.rd],
                                            state->lo);
            if (out.writes_rd && p.rd != isa::kZeroReg)
                state->regs[p.rd] = out.rd;
            if (out.writes_lo)
                state->lo = out.lo;
        }
        if (inst.mem()) {
            const isa::MemPiece &m = *inst.mem();
            ExprRef v = it.target == assembler::kNoLabel
                            ? arena.konst(static_cast<uint32_t>(m.imm))
                            : arena.labelAddr(it.target);
            if (m.rd != isa::kZeroReg)
                state->regs[m.rd] = v;
        }
    }
    return true;
}

} // namespace mips::verify
