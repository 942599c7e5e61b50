#include "verify/valuerange.h"

#include <algorithm>
#include <bit>
#include <set>

#include "isa/branch.h"
#include "isa/instruction.h"
#include "support/logging.h"

namespace mips::verify {

using assembler::Item;
using isa::AluOp;
using isa::AluPiece;
using isa::MemMode;
using isa::MemPiece;

namespace {

constexpr int64_t kWordSpan = kWordMax + 1; // 2^32
/** Joins into one item that may change its state before the solver
 *  starts widening unstable bounds there. */
constexpr int kWidenAfter = 4;

/** Re-establish the representation invariants (a fully known value is
 *  a singleton interval; low_val carries no bits past low_bits). */
AbsVal
canon(AbsVal v)
{
    if (v.low_bits > 32)
        v.low_bits = 32;
    v.low_val &= maskBits(v.low_bits);
    if (v.low_bits == 32) {
        v.lo = v.low_val;
        v.hi = v.low_val;
    }
    return v;
}

AbsVal
makeInterval(int64_t lo, int64_t hi, bool widened)
{
    AbsVal v;
    v.lo = lo;
    v.hi = hi;
    v.widened = widened;
    return v;
}

/** Modular addition: exact when the sum interval fits one 2^32
 *  window (possibly the wrapped one); TOP interval otherwise. The
 *  known low bits always survive (addition is local in low bits). */
AbsVal
addVals(const AbsVal &a, const AbsVal &b)
{
    AbsVal r;
    r.low_bits = std::min(a.low_bits, b.low_bits);
    r.low_val = (a.low_val + b.low_val) & maskBits(r.low_bits);
    r.widened = a.widened || b.widened;
    int64_t lo = a.lo + b.lo;
    int64_t hi = a.hi + b.hi;
    if (hi <= kWordMax) {
        r.lo = lo;
        r.hi = hi;
    } else if (lo > kWordMax) {
        r.lo = lo - kWordSpan;
        r.hi = hi - kWordSpan;
    } else {
        r.lo = 0;
        r.hi = kWordMax;
    }
    return canon(r);
}

/** Modular subtraction, same window rule as addVals. */
AbsVal
subVals(const AbsVal &a, const AbsVal &b)
{
    AbsVal r;
    r.low_bits = std::min(a.low_bits, b.low_bits);
    r.low_val = (a.low_val - b.low_val) & maskBits(r.low_bits);
    r.widened = a.widened || b.widened;
    int64_t lo = a.lo - b.hi;
    int64_t hi = a.hi - b.lo;
    if (lo >= 0) {
        r.lo = lo;
        r.hi = hi;
    } else if (hi < 0) {
        r.lo = lo + kWordSpan;
        r.hi = hi + kWordSpan;
    } else {
        r.lo = 0;
        r.hi = kWordMax;
    }
    return canon(r);
}

/** Smallest all-ones value covering every bit `v` can set. */
int64_t
onesEnvelope(int64_t v)
{
    return static_cast<int64_t>(
        maskBits(std::bit_width(static_cast<uint64_t>(v))));
}

/** Longest known low-bit prefix of a bitwise op's result.
 *  `op` selects AND (0), OR (1), XOR (2). */
void
bitwiseLowBits(const AbsVal &a, const AbsVal &b, int op, AbsVal *r)
{
    unsigned k = 0;
    uint32_t val = 0;
    for (unsigned i = 0; i < 32; ++i) {
        bool ka = i < a.low_bits;
        bool kb = i < b.low_bits;
        int abit = ka ? (a.low_val >> i) & 1 : -1;
        int bbit = kb ? (b.low_val >> i) & 1 : -1;
        int out = -1;
        if (ka && kb) {
            out = op == 0 ? (abit & bbit)
                          : op == 1 ? (abit | bbit) : (abit ^ bbit);
        } else if (op == 0 && (abit == 0 || bbit == 0)) {
            out = 0; // AND with a known zero
        } else if (op == 1 && (abit == 1 || bbit == 1)) {
            out = 1; // OR with a known one
        }
        if (out < 0)
            break;
        k = i + 1;
        val |= static_cast<uint32_t>(out) << i;
    }
    r->low_bits = static_cast<uint8_t>(k);
    r->low_val = val;
}

AbsVal
andVals(const AbsVal &a, const AbsVal &b)
{
    AbsVal r;
    r.lo = 0;
    r.hi = std::min(a.hi, b.hi);
    bitwiseLowBits(a, b, 0, &r);
    r.widened = a.widened || b.widened;
    return canon(r);
}

AbsVal
orVals(const AbsVal &a, const AbsVal &b)
{
    AbsVal r;
    r.lo = std::max(a.lo, b.lo);
    r.hi = onesEnvelope(std::max(a.hi, b.hi));
    bitwiseLowBits(a, b, 1, &r);
    r.widened = a.widened || b.widened;
    return canon(r);
}

AbsVal
xorVals(const AbsVal &a, const AbsVal &b)
{
    AbsVal r;
    r.lo = 0;
    r.hi = onesEnvelope(std::max(a.hi, b.hi));
    bitwiseLowBits(a, b, 2, &r);
    r.widened = a.widened || b.widened;
    return canon(r);
}

AbsVal
notVal(const AbsVal &a)
{
    AbsVal r;
    r.lo = kWordMax - a.hi;
    r.hi = kWordMax - a.lo;
    r.low_bits = a.low_bits;
    r.low_val = ~a.low_val & maskBits(a.low_bits);
    r.widened = a.widened;
    return canon(r);
}

AbsVal
sllConst(const AbsVal &a, unsigned c)
{
    if (c == 0)
        return a;
    AbsVal r;
    // Low bits: the shift drags known bits up and shifts in zeros.
    r.low_bits = static_cast<uint8_t>(
        std::min<unsigned>(a.low_bits + c, 32));
    r.low_val = static_cast<uint32_t>(
                    static_cast<uint64_t>(a.low_val) << c) &
                maskBits(r.low_bits);
    r.widened = a.widened;
    int64_t hi = a.hi << c;
    if (hi <= kWordMax) {
        r.lo = a.lo << c;
        r.hi = hi;
    } else {
        r.lo = 0;
        r.hi = kWordMax;
    }
    return canon(r);
}

AbsVal
srlConst(const AbsVal &a, unsigned c)
{
    if (c == 0)
        return a;
    AbsVal r;
    r.lo = a.lo >> c;
    r.hi = a.hi >> c;
    r.low_bits =
        static_cast<uint8_t>(a.low_bits > c ? a.low_bits - c : 0);
    r.low_val = (a.low_val >> c) & maskBits(r.low_bits);
    r.widened = a.widened;
    return canon(r);
}

AbsVal
sraConst(const AbsVal &a, unsigned c)
{
    if (c == 0)
        return a;
    AbsVal r;
    // Low bits behave exactly like a logical shift; only the fill
    // bits differ, and those live above the known prefix.
    r.low_bits =
        static_cast<uint8_t>(a.low_bits > c ? a.low_bits - c : 0);
    r.low_val = (a.low_val >> c) & maskBits(r.low_bits);
    r.widened = a.widened;
    auto sr = a.signedRange();
    if (!sr) {
        r.lo = 0;
        r.hi = kWordMax;
        return canon(r);
    }
    int64_t lo = sr->first >> c;  // C++20: arithmetic on negatives
    int64_t hi = sr->second >> c;
    if (lo >= 0) {
        r.lo = lo;
        r.hi = hi;
    } else if (hi < 0) {
        r.lo = lo + kWordSpan;
        r.hi = hi + kWordSpan;
    } else {
        r.lo = 0; // signed interval straddles zero: the unsigned set
        r.hi = kWordMax; // splits into two ranges — give up
    }
    return canon(r);
}

} // namespace

AbsVal
AbsVal::constant(uint32_t v)
{
    AbsVal r;
    r.lo = v;
    r.hi = v;
    r.low_bits = 32;
    r.low_val = v;
    return r;
}

std::optional<uint32_t>
AbsVal::asConst() const
{
    if (lo == hi)
        return static_cast<uint32_t>(lo);
    return std::nullopt;
}

bool
AbsVal::contains(uint32_t v) const
{
    if (static_cast<int64_t>(v) < lo || static_cast<int64_t>(v) > hi)
        return false;
    return (v & maskBits(low_bits)) == low_val;
}

std::optional<std::pair<int64_t, int64_t>>
AbsVal::signedRange() const
{
    constexpr int64_t kSignBit = 1ll << 31;
    if (hi < kSignBit)
        return std::make_pair(lo, hi);
    if (lo >= kSignBit)
        return std::make_pair(lo - kWordSpan, hi - kWordSpan);
    return std::nullopt;
}

AbsVal
joinVals(const AbsVal &a, const AbsVal &b)
{
    AbsVal r;
    r.lo = std::min(a.lo, b.lo);
    r.hi = std::max(a.hi, b.hi);
    unsigned k = std::min(a.low_bits, b.low_bits);
    uint32_t diff = (a.low_val ^ b.low_val) & maskBits(k);
    if (diff)
        k = static_cast<unsigned>(std::countr_zero(diff));
    r.low_bits = static_cast<uint8_t>(k);
    r.low_val = a.low_val & maskBits(k);
    r.widened = a.widened || b.widened;
    return canon(r);
}

AbsVal
widenVals(const AbsVal &before, const AbsVal &after)
{
    AbsVal r = after;
    if (after.lo < before.lo) {
        r.lo = 0;
        r.widened = true;
    }
    if (after.hi > before.hi) {
        r.hi = kWordMax;
        r.widened = true;
    }
    return r;
}

AluRangeResult
evalAluRange(const AluPiece &piece, const AbsVal &rs, const AbsVal &src2,
             const AbsVal &rd_old, const AbsVal &lo)
{
    AluRangeResult out;
    out.writes_rd = isa::aluWritesRd(piece.op);
    out.writes_lo = isa::aluWritesLo(piece.op);
    out.rd = AbsVal::top();
    out.lo = AbsVal::top();

    // Fully constant inputs: the abstract result is the concrete one.
    bool all_const =
        (!isa::aluReadsRs(piece.op) || rs.asConst()) &&
        (!isa::aluReadsSrc2(piece.op) || src2.asConst()) &&
        (!isa::aluReadsRdOld(piece.op) || rd_old.asConst()) &&
        (!isa::aluReadsLo(piece.op) || lo.asConst());
    if (all_const) {
        isa::AluInputs in;
        in.rs = rs.asConst().value_or(0);
        in.src2 = src2.asConst().value_or(0);
        in.rd_old = rd_old.asConst().value_or(0);
        in.lo = lo.asConst().value_or(0);
        isa::AluOutputs o = isa::evalAlu(piece, in);
        if (o.writes_rd)
            out.rd = AbsVal::constant(o.rd);
        if (o.writes_lo)
            out.lo = AbsVal::constant(o.lo);
        return out;
    }

    std::optional<uint32_t> shift;
    if (auto c = src2.asConst())
        shift = *c & 31;
    bool in_widened = rs.widened || src2.widened;

    switch (piece.op) {
      case AluOp::ADD:
        out.rd = addVals(rs, src2);
        break;
      case AluOp::SUB:
        out.rd = subVals(rs, src2);
        break;
      case AluOp::RSUB:
        out.rd = subVals(src2, rs);
        break;
      case AluOp::AND:
        out.rd = andVals(rs, src2);
        break;
      case AluOp::OR:
        out.rd = orVals(rs, src2);
        break;
      case AluOp::XOR:
        out.rd = xorVals(rs, src2);
        break;
      case AluOp::NOT:
        out.rd = notVal(rs);
        break;
      case AluOp::SLL:
        out.rd = shift ? sllConst(rs, *shift)
                       : makeInterval(0, kWordMax, false);
        break;
      case AluOp::SRL:
        out.rd = shift ? srlConst(rs, *shift)
                       : makeInterval(0, rs.hi, rs.widened);
        break;
      case AluOp::SRA:
        out.rd = shift ? sraConst(rs, *shift)
                       : makeInterval(0, kWordMax, false);
        break;
      case AluOp::XC:
        out.rd = makeInterval(0, 0xff, in_widened);
        break;
      case AluOp::IC:
        out.rd = AbsVal::top();
        break;
      case AluOp::MOVI8:
        out.rd = AbsVal::constant(piece.imm8);
        break;
      case AluOp::SET:
        out.rd = makeInterval(0, 1, in_widened);
        break;
      case AluOp::MTLO:
        out.lo = rs;
        break;
      case AluOp::MFLO:
        out.rd = lo;
        break;
      case AluOp::MSTEP:
        out.rd = joinVals(rd_old, addVals(rd_old, rs));
        out.lo = srlConst(lo, 1);
        break;
      case AluOp::DSTEP:
        out.rd = AbsVal::top();
        out.lo = AbsVal::top();
        break;
    }
    return out;
}

// ------------------------------------------------------ machine state

AbsVal
src2Val(const RegState &s, const isa::Src2 &src2)
{
    return src2.is_imm ? AbsVal::constant(src2.imm4) : s.regs[src2.reg];
}

namespace {

Flag
joinFlag(Flag a, Flag b)
{
    return a == b ? a : Flag::UNKNOWN;
}

/** State for code reachable from statically unknown control flow:
 *  nothing is known except the hardwired zero register. The enables
 *  stay UNKNOWN — an exception handler may run with anything. */
RegState
topState()
{
    RegState s;
    s.reachable = true;
    s.regs[isa::kZeroReg] = AbsVal::constant(0);
    return s;
}

/** The post-reset entry state: enables off (exception entry also
 *  clears them, so dispatch re-entry at the origin stays covered),
 *  everything else unknown. */
RegState
entryState()
{
    RegState s = topState();
    s.ovf_enable = Flag::NO;
    s.map_enable = Flag::NO;
    return s;
}

RegState
joinState(const RegState &a, const RegState &b)
{
    RegState r;
    r.reachable = true;
    for (int i = 0; i < isa::kNumRegs; ++i)
        r.regs[i] = joinVals(a.regs[i], b.regs[i]);
    r.lo = joinVals(a.lo, b.lo);
    r.ovf_enable = joinFlag(a.ovf_enable, b.ovf_enable);
    r.map_enable = joinFlag(a.map_enable, b.map_enable);
    r.seg_bits = joinVals(a.seg_bits, b.seg_bits);
    return r;
}

void
setReg(RegState *s, isa::Reg r, const AbsVal &v)
{
    if (r != isa::kZeroReg)
        s->regs[r] = v;
}

/** Address of a local label, if the unit defines it. */
std::optional<AbsVal>
labelValue(const Cfg &cfg, assembler::LabelId target)
{
    size_t at = cfg.labelItem(target);
    if (at == kNoItem)
        return std::nullopt;
    return AbsVal::constant(cfg.unit->origin + static_cast<uint32_t>(at));
}

/** Abstract execution of one item. */
RegState
transferItem(const Cfg &cfg, size_t i, RegState s)
{
    const Item &item = cfg.unit->items[i];
    if (item.is_data || !s.reachable)
        return s;
    const isa::Instruction &inst = item.inst;

    // Both pieces of a packed word read the incoming state; collect
    // the writes first so a (degenerate) shared destination joins.
    std::optional<std::pair<isa::Reg, AbsVal>> mem_write, alu_write;
    if (inst.mem && !inst.mem->is_store) {
        const MemPiece &m = *inst.mem;
        AbsVal v = AbsVal::top();
        if (m.mode == MemMode::LONG_IMM) {
            if (item.target == assembler::kNoLabel)
                v = AbsVal::constant(static_cast<uint32_t>(m.imm));
            else if (auto lv = labelValue(cfg, item.target))
                v = *lv;
        }
        mem_write = {m.rd, v};
    }
    if (inst.alu) {
        const AluPiece &a = *inst.alu;
        AluRangeResult r = evalAluRange(a, s.regs[a.rs],
                                        src2Val(s, a.src2),
                                        s.regs[a.rd], s.lo);
        if (r.writes_rd)
            alu_write = {a.rd, r.rd};
        if (r.writes_lo)
            s.lo = r.lo;
    }
    if (mem_write && alu_write && mem_write->first == alu_write->first) {
        setReg(&s, mem_write->first,
               joinVals(mem_write->second, alu_write->second));
    } else {
        if (mem_write)
            setReg(&s, mem_write->first, mem_write->second);
        if (alu_write)
            setReg(&s, alu_write->first, alu_write->second);
    }

    if (inst.jump && isa::jumpIsCall(inst.jump->kind)) {
        // The link register receives the resume address (past the
        // delay slots) — a known constant.
        uint32_t resume = cfg.unit->origin + static_cast<uint32_t>(i) +
                          1 + static_cast<uint32_t>(
                                  isa::jumpDelay(inst.jump->kind));
        setReg(&s, inst.jump->link, AbsVal::constant(resume));
    }

    if (inst.special) {
        const isa::SpecialPiece &sp = *inst.special;
        switch (sp.op) {
          case isa::SpecialOp::MTS:
            switch (sp.sreg) {
              case isa::SpecialReg::SURPRISE:
                if (auto c = s.regs[sp.reg].asConst()) {
                    s.ovf_enable = (*c >> 4) & 1 ? Flag::YES : Flag::NO;
                    s.map_enable = (*c >> 6) & 1 ? Flag::YES : Flag::NO;
                } else {
                    s.ovf_enable = Flag::UNKNOWN;
                    s.map_enable = Flag::UNKNOWN;
                }
                break;
              case isa::SpecialReg::SEG_BITS:
                s.seg_bits = s.regs[sp.reg];
                break;
              case isa::SpecialReg::LO:
                s.lo = s.regs[sp.reg];
                break;
              default:
                break;
            }
            break;
          case isa::SpecialOp::MFS:
            setReg(&s, sp.reg,
                   sp.sreg == isa::SpecialReg::LO ? s.lo
                                                  : AbsVal::top());
            break;
          case isa::SpecialOp::RFE:
            // Restores the previous enable bits: statically unknown.
            s.ovf_enable = Flag::UNKNOWN;
            s.map_enable = Flag::UNKNOWN;
            break;
          default:
            break;
        }
    }
    return s;
}

} // namespace

RangeAnalysis
analyzeValueRanges(const Cfg &cfg)
{
    size_t n = cfg.size();
    RangeAnalysis a;
    a.cfg = &cfg;
    a.in.assign(n, RegState{});
    if (n == 0)
        return a;

    std::vector<int> changes(n, 0);
    std::set<size_t> work; // ordered: deterministic iteration

    auto inject = [&](size_t i, const RegState &incoming) {
        RegState joined = a.in[i].reachable
                              ? joinState(a.in[i], incoming)
                              : incoming;
        if (a.in[i].reachable && joined == a.in[i])
            return;
        if (++changes[i] > kWidenAfter && a.in[i].reachable) {
            auto widen = [&](const AbsVal &old, AbsVal *v) {
                AbsVal w = widenVals(old, *v);
                if (!(w == *v)) {
                    ++a.widenings;
                    *v = w;
                }
            };
            for (int r = 0; r < isa::kNumRegs; ++r)
                widen(a.in[i].regs[r], &joined.regs[r]);
            widen(a.in[i].lo, &joined.lo);
            widen(a.in[i].seg_bits, &joined.seg_bits);
            if (joined == a.in[i])
                return;
        }
        a.in[i] = joined;
        work.insert(i);
    };

    // The entry's seed covers every outside arrival there (reset and
    // exception dispatch both clear the enables), so its unknown_pred
    // does not get the weaker all-UNKNOWN seed that other externally
    // reachable items do.
    inject(0, entryState());
    for (size_t i = 1; i < n; ++i)
        if (cfg.nodes[i].unknown_pred)
            inject(i, topState());

    while (!work.empty()) {
        size_t i = *work.begin();
        work.erase(work.begin());
        ++a.iterations;
        RegState out = transferItem(cfg, i, a.in[i]);
        for (uint32_t succ : cfg.succs(i))
            inject(succ, out);
    }

    for (const RegState &s : a.in)
        if (s.reachable)
            ++a.reachable_items;
    return a;
}

AbsVal
memAddressRange(const MemPiece &piece, assembler::LabelId target,
                const Cfg &cfg, const RegState &state)
{
    switch (piece.mode) {
      case MemMode::LONG_IMM:
        break; // no memory reference; fall through to the panic
      case MemMode::ABSOLUTE:
        if (target != assembler::kNoLabel) {
            if (auto lv = labelValue(cfg, target))
                return *lv;
            return AbsVal::top();
        }
        return AbsVal::constant(static_cast<uint32_t>(piece.imm));
      case MemMode::DISP:
        return addVals(state.regs[piece.base],
                       AbsVal::constant(static_cast<uint32_t>(piece.imm)));
      case MemMode::BASE_INDEX:
        return addVals(state.regs[piece.base], state.regs[piece.index]);
      case MemMode::BASE_SHIFT:
        return addVals(state.regs[piece.base],
                       srlConst(state.regs[piece.index], piece.shift));
    }
    support::panic("memAddressRange: LONG_IMM makes no reference");
}

} // namespace mips::verify
