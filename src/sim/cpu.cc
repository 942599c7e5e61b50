#include "sim/cpu.h"

#include "isa/disasm.h"
#include "isa/encoding.h"
#include "support/logging.h"

namespace mips::sim {

using isa::AluPiece;
using isa::Instruction;
using isa::MemMode;
using isa::Reg;

Cpu::Cpu(PhysMemory &memory, MappingUnit &mapping)
    : mem_(memory), map_(mapping)
{
    // Only the tags are initialized: a payload slot is constructed when
    // it is filled (most runs touch a few hundred of the 4,096).
    decode_tags_.assign(kDecodeCacheSize, kNoTag);
    decode_hot_ =
        std::make_unique_for_overwrite<Unfilled<HotEntry>[]>(
            kDecodeCacheSize);
    decode_cache_ =
        std::make_unique_for_overwrite<Unfilled<DecodeEntry>[]>(
            kDecodeCacheSize);
    // Any store that changes memory contents — our own, another bus
    // master's, or a host-side poke/loadImage — must drop the stale
    // predecoded entry, or self-modifying code would run old words.
    // The memory invalidates our shared tag array in place.
    mem_.attachDecodeTags(decode_tags_.data(), kDecodeCacheSize - 1,
                          kNoTag);
    // CYCLES_LO pulls the count on demand instead of the CPU pushing
    // it into the device every cycle.
    mem_.setCycleSource(&stats_.cycles);
    reset();
}

Cpu::~Cpu()
{
    mem_.attachDecodeTags(nullptr, 0, 0);
    mem_.setCycleSource(nullptr);
}

void
Cpu::reset(uint32_t pc)
{
    regs_.fill(0);
    lo_ = 0;
    sr_ = Surprise{};
    sr_.cause = Cause::RESET;
    ra_.fill(0);
    load_pending_ = false;
    shadow_ = 0;
    halted_ = false;
    error_.clear();
    exec_dense_.clear();
    exec_sparse_.clear();
    fault_events_.clear();
    // The predecode cache survives reset: it is keyed by physical
    // address and every write that changes memory contents invalidates
    // it in place, so its entries stay accurate across resets — a
    // reloaded (unchanged) program starts with a warm cache.
    map_.flushTlb(); // reset disables mapping
    setPc(pc);
}

void
Cpu::setReg(Reg r, uint32_t value)
{
    if (r != isa::kZeroReg)
        regs_[r] = value;
}

void
Cpu::setPc(uint32_t pc)
{
    stream_ = {pc, pc + 1, pc + 2};
}

void
Cpu::redirectStream(int delay, uint32_t target)
{
    stream_[delay] = target;
    for (int i = delay + 1; i < 3; ++i)
        stream_[i] = stream_[i - 1] + 1;
}

void
Cpu::enableFastPath(bool on)
{
    fast_path_ = on;
    map_.setTlbEnabled(on);
    // The predecode cache needs no flush here: writes keep it coherent
    // whether or not the fast path consults it, so toggling modes (the
    // parity tests do, per run) cannot expose a stale entry.
}

uint8_t
Cpu::classifyWord(const Instruction &inst)
{
    // Unexpected combinations (the encoder never emits them, but the
    // classifier must not assume validity) fall back to K_GENERIC,
    // which runs the reference execution path on the cached decode.
    if (inst.alu()) {
        if (!inst.hasTransfer())
            return K_ALU;
        const isa::MemPiece *m = inst.mem();
        return m && m->mode != MemMode::LONG_IMM ? K_PACKED : K_GENERIC;
    }
    if (const isa::MemPiece *m = inst.mem()) {
        if (m->mode == MemMode::LONG_IMM)
            return K_LONGIMM;
        return m->is_store ? K_STORE : K_LOAD;
    }
    if (inst.branch())
        return K_BRANCH;
    if (const isa::JumpPiece *j = inst.jump()) {
        // Table dispatch fetches its target over the data interface;
        // the generic path has the translate/privilege machinery.
        return isa::jumpIsTable(j->kind) ? K_GENERIC : K_JUMP;
    }
    if (inst.special())
        return K_GENERIC;
    return K_NOP;
}

Cpu::MemLite
Cpu::memLite(const isa::MemPiece &m)
{
    MemLite l{};
    l.ea_base_mask = m.mode != MemMode::ABSOLUTE ? ~0u : 0u;
    l.ea_index_mask = (m.mode == MemMode::BASE_INDEX ||
                       m.mode == MemMode::BASE_SHIFT) ? ~0u : 0u;
    l.ea_imm = (m.mode == MemMode::ABSOLUTE || m.mode == MemMode::DISP)
                   ? static_cast<uint32_t>(m.imm) : 0u;
    l.ea_shift = m.mode == MemMode::BASE_SHIFT ? m.shift : 0;
    l.base = m.base;
    l.index = m.index;
    l.rd = m.rd;
    return l;
}

void
Cpu::fillHot(HotEntry *h, const Instruction &inst)
{
    h->kind = classifyWord(inst);
    h->mem_is_store = false;
    switch (h->kind) {
      case K_ALU:
        h->u.alu = *inst.alu();
        break;
      case K_LONGIMM:
        h->u.mem = MemLite{};
        h->u.mem.ea_imm = static_cast<uint32_t>(inst.mem()->imm);
        h->u.mem.rd = inst.mem()->rd;
        break;
      case K_LOAD:
      case K_STORE:
        h->u.mem = memLite(*inst.mem());
        h->mem_is_store = inst.mem()->is_store;
        break;
      case K_PACKED:
        h->u.packed.alu = *inst.alu();
        h->u.packed.mem = memLite(*inst.mem());
        h->mem_is_store = inst.mem()->is_store;
        break;
      case K_BRANCH:
        h->u.branch = *inst.branch();
        break;
      case K_JUMP:
        h->u.jump = *inst.jump();
        break;
      default: // K_NOP / K_GENERIC carry no parameters
        break;
    }
}

__attribute__((noinline)) void
Cpu::recordExec(uint32_t pc)
{
    if (pc < kProfileDenseLimit) {
        if (pc >= exec_dense_.size())
            exec_dense_.resize(((pc >> kPageBits) + 1) << kPageBits, 0);
        ++exec_dense_[pc];
    } else {
        ++exec_sparse_[pc];
    }
}

uint64_t
Cpu::execCount(uint32_t pc) const
{
    if (pc < exec_dense_.size())
        return exec_dense_[pc];
    auto it = exec_sparse_.find(pc);
    return it == exec_sparse_.end() ? 0 : it->second;
}

std::vector<uint64_t>
Cpu::execCounts(uint32_t base, size_t n) const
{
    std::vector<uint64_t> counts(n);
    for (size_t i = 0; i < n; ++i)
        counts[i] = execCount(base + static_cast<uint32_t>(i));
    return counts;
}

// The noinline attributes below mark the cold exits of step(). run()
// flattens step() into its loop; letting these bodies inline there too
// wrecks the register allocation of the hot path (measured ~20% of the
// fast-path throughput), so they stay real calls.
__attribute__((noinline)) StopReason
Cpu::simError(std::string message)
{
    error_ = std::move(message);
    halted_ = true;
    return StopReason::SIM_ERROR;
}

__attribute__((noinline)) void
Cpu::enter(Cause cause, uint16_t detail,
           const std::array<uint32_t, 3> &ras)
{
    ++stats_.exceptions;
    // Per-cause fault accounting for the static value-range oracle:
    // count (and log the first kMaxFaultEvents of) the fault classes
    // the analysis predicts. ras[0] is the offender's restart address.
    switch (cause) {
      case Cause::OVERFLOW: ++stats_.overflow_traps; break;
      case Cause::PAGE_FAULT: ++stats_.page_faults; break;
      case Cause::ADDRESS_ERROR: ++stats_.address_errors; break;
      default: break;
    }
    if ((cause == Cause::OVERFLOW || cause == Cause::PAGE_FAULT ||
         cause == Cause::ADDRESS_ERROR) &&
        fault_events_.size() < kMaxFaultEvents) {
        fault_events_.push_back(
            {cause, ras[0],
             cause == Cause::OVERFLOW ? 0 : fault_addr_});
    }
    ra_ = ras;
    sr_.enterException(cause, detail);
    map_.flushTlb(); // mapping off + privilege swap
    setPc(0);
    shadow_ = 0;
    // The offender's own shadow state dies with it; the saved
    // three-address stream reproduces any control transfer.
}

__attribute__((noinline)) void
Cpu::faultAt(uint32_t cur, Cause cause, uint16_t detail)
{
    enter(cause, detail, {cur, stream_[0], stream_[1]});
}

__attribute__((noinline)) void
Cpu::interruptNow(Cause cause, uint16_t detail)
{
    enter(cause, detail, {stream_[0], stream_[1], stream_[2]});
}

// Out of line for the same reason as the fault helpers above: with
// 95%+ hit rates the fill path is cold, and the big Instruction copy
// plus the classifier would otherwise be inlined into the stepping
// loop by run()'s flatten.
__attribute__((noinline)) bool
Cpu::fillDecodeSlot(uint32_t fetch_phys, uint32_t slot,
                    const HotEntry **h, const DecodeEntry **e)
{
    ++decode_misses_;
    uint32_t word = mem_.read(fetch_phys);
    auto decoded = isa::decode(word);
    if (!decoded.ok())
        return false; // caller raises the ILLEGAL fault
    DecodeEntry *fe;
    HotEntry *fh;
    if (mem_.isMmio(fetch_phys)) {
        fe = &mmio_entry_; // scratch pair; never tagged valid
        fh = &mmio_hot_;
    } else {
        decode_tags_[slot] = fetch_phys;
        fe = std::construct_at(&decode_cache_[slot].value);
        fh = std::construct_at(&decode_hot_[slot].value);
    }
    fe->word = word;
    fe->inst = decoded.take();
    fe->uses_data_port = fe->inst.referencesMemory();
    fe->is_nop = fe->inst.isNop();
    fillHot(fh, fe->inst);
    *h = fh;
    *e = fe;
    return true;
}

bool
Cpu::translateOrFault(uint32_t cur, uint32_t vaddr, bool is_write,
                      bool is_fetch, uint32_t *phys)
{
    if (!sr_.map_enable) {
        if (vaddr >= mem_.size()) {
            fault_addr_ = vaddr;
            faultAt(cur, Cause::ADDRESS_ERROR,
                    is_fetch ? kDetailIfetch : kDetailData);
            return false;
        }
        *phys = vaddr;
        return true;
    }
    Translation t = map_.translate(vaddr, is_write);
    if (!t.ok) {
        fault_addr_ = t.cause == Cause::PAGE_FAULT ? t.fault_sva
                                                   : t.fault_vaddr;
        faultAt(cur, t.cause, is_fetch ? kDetailIfetch : kDetailData);
        return false;
    }
    if (t.phys >= mem_.size()) {
        fault_addr_ = t.phys;
        faultAt(cur, Cause::ADDRESS_ERROR,
                is_fetch ? kDetailIfetch : kDetailData);
        return false;
    }
    *phys = t.phys;
    return true;
}

StopReason
Cpu::step()
{
    if (halted_) [[unlikely]]
        return error_.empty() ? StopReason::HALT : StopReason::SIM_ERROR;
    return stepInner();
}

// Every return of a halt/error reason sets halted_, and run() exits
// its loop on any non-RUNNING reason, so the inner step never needs
// the halted check the public step() makes per call.
StopReason
Cpu::stepInner()
{
    // External interrupt: a single line onto the chip, sampled at
    // instruction boundaries when enabled. Nothing has issued yet, so
    // the resume stream is the pending stream itself.
    if (sr_.int_enable && mem_.interruptPending()) [[unlikely]]
        interruptNow(Cause::INTERRUPT, 0);

    uint32_t cur = stream_[0];
    stream_[0] = stream_[1];
    stream_[1] = stream_[2];
    stream_[2] = stream_[2] + 1; // beyond [2] is always sequential

    bool in_shadow = shadow_ > 0;
    if (in_shadow)
        --shadow_;

    ++stats_.cycles;
    if (profiling_) {
        // The dense counters cover every PC a loaded program uses;
        // only growth and wild addresses take the out-of-line call.
        if (cur < exec_dense_.size()) [[likely]]
            ++exec_dense_[cur];
        else
            recordExec(cur);
    }

    auto commitPendingLoad = [this] {
        if (load_pending_) {
            setReg(load_reg_, load_value_);
            load_pending_ = false;
        }
    };

    // ---- Fetch -------------------------------------------------------
    // Unmapped in-range fetches — the whole benchmark corpus and all
    // supervisor code — skip the translate call outright.
    uint32_t fetch_phys = cur;
    if (sr_.map_enable || cur >= mem_.size()) {
        if (!translateOrFault(cur, cur, false, true, &fetch_phys)) {
            commitPendingLoad(); // earlier instructions complete
            ++stats_.free_data_cycles;
            return StopReason::RUNNING;
        }
    }

    // ---- Decode ------------------------------------------------------
    // Fast path: the direct-mapped predecode cache turns the common
    // fetch+decode into one tag compare, and the precomputed execution
    // shape (Kind) dispatches straight to a specialized handler. A
    // miss (or the reference path) reads the word and runs the full
    // decoder; MMIO words are never cached because devices may return
    // different words per read.
    const Instruction *instp = nullptr;
    bool uses_data_port, is_nop;
    if (fast_path_) {
        uint32_t slot = fetch_phys & (kDecodeCacheSize - 1);
        const HotEntry *h = &decode_hot_[slot].value;
        const DecodeEntry *e = &decode_cache_[slot].value;
        if (decode_tags_[slot] == fetch_phys) [[likely]] {
            ++decode_hits_;
        } else if (!fillDecodeSlot(fetch_phys, slot, &h, &e)) {
            commitPendingLoad();
            ++stats_.free_data_cycles;
            faultAt(cur, Cause::ILLEGAL, 0);
            return StopReason::RUNNING;
        }

        // ---- Specialized execution by shape ---------------------------
        // Each case replicates the generic path below exactly — operand
        // reads happen before the pending load commits, the memory
        // reference commits before any register write of the same word,
        // faults inhibit the same writes — it just skips the
        // piece-presence tests the shape already answers. Anything
        // unusual (specials, malformed packings) breaks out to the
        // generic path on the cached decode.
        switch (h->kind) {
          case K_NOP:
            ++stats_.free_data_cycles;
            ++stats_.nops;
            commitPendingLoad();
            return StopReason::RUNNING;

          case K_ALU: {
            const AluPiece &a = h->u.alu;
            ++stats_.free_data_cycles;
            ++stats_.alu_pieces;
            isa::AluInputs in;
            in.rs = regs_[a.rs];
            in.src2 = a.src2.is_imm ? a.src2.imm4 : regs_[a.src2.reg];
            in.rd_old = regs_[a.rd];
            in.lo = lo_;
            commitPendingLoad();
            isa::AluOutputs out = isa::evalAlu(a, in);
            if (out.overflow && sr_.ovf_enable) {
                faultAt(cur, Cause::OVERFLOW, 0);
                return StopReason::RUNNING;
            }
            if (out.writes_rd)
                setReg(a.rd, out.rd);
            if (out.writes_lo)
                lo_ = out.lo;
            return StopReason::RUNNING;
          }

          case K_LONGIMM: {
            ++stats_.free_data_cycles;
            commitPendingLoad();
            ++stats_.long_immediates;
            setReg(h->u.mem.rd, h->u.mem.ea_imm);
            return StopReason::RUNNING;
          }

          case K_LOAD: {
            const MemLite &m = h->u.mem;
            uint32_t base = regs_[m.base];
            uint32_t index = regs_[m.index];
            commitPendingLoad();
            uint32_t ea = (base & m.ea_base_mask) +
                          ((index >> m.ea_shift) & m.ea_index_mask) +
                          m.ea_imm;
            uint32_t phys = ea;
            if (sr_.map_enable || ea >= mem_.size()) {
                if (!translateOrFault(cur, ea, false, false, &phys))
                    return StopReason::RUNNING;
            }
            if (mem_.isMmio(phys)) {
                if (!sr_.supervisor) {
                    faultAt(cur, Cause::PRIVILEGE, 0);
                    return StopReason::RUNNING;
                }
                ++stats_.loads;
                load_value_ = mem_.read(phys);
            } else {
                ++stats_.loads;
                load_value_ = mem_.ram(phys);
            }
            load_reg_ = m.rd;
            load_pending_ = true;
            return StopReason::RUNNING;
          }

          case K_STORE: {
            const MemLite &m = h->u.mem;
            uint32_t base = regs_[m.base];
            uint32_t index = regs_[m.index];
            uint32_t data = regs_[m.rd];
            commitPendingLoad();
            uint32_t ea = (base & m.ea_base_mask) +
                          ((index >> m.ea_shift) & m.ea_index_mask) +
                          m.ea_imm;
            uint32_t phys = ea;
            if (sr_.map_enable || ea >= mem_.size()) {
                if (!translateOrFault(cur, ea, true, false, &phys))
                    return StopReason::RUNNING;
            }
            if (mem_.isMmio(phys)) {
                if (!sr_.supervisor) {
                    faultAt(cur, Cause::PRIVILEGE, 0);
                    return StopReason::RUNNING;
                }
                ++stats_.stores;
                mem_.write(phys, data);
            } else {
                ++stats_.stores;
                mem_.ramWrite(phys, data);
            }
            return StopReason::RUNNING;
          }

          case K_PACKED: {
            const AluPiece &a = h->u.packed.alu;
            const MemLite &m = h->u.packed.mem;
            bool is_store = h->mem_is_store;
            ++stats_.alu_pieces;
            ++stats_.packed_words;
            isa::AluInputs in;
            in.rs = regs_[a.rs];
            in.src2 = a.src2.is_imm ? a.src2.imm4 : regs_[a.src2.reg];
            in.rd_old = regs_[a.rd];
            in.lo = lo_;
            uint32_t base = regs_[m.base];
            uint32_t index = regs_[m.index];
            uint32_t data = regs_[m.rd];
            commitPendingLoad();
            isa::AluOutputs out = isa::evalAlu(a, in);
            if (out.overflow && sr_.ovf_enable) {
                faultAt(cur, Cause::OVERFLOW, 0);
                return StopReason::RUNNING;
            }
            uint32_t ea = (base & m.ea_base_mask) +
                          ((index >> m.ea_shift) & m.ea_index_mask) +
                          m.ea_imm;
            uint32_t phys = ea;
            if (sr_.map_enable || ea >= mem_.size()) {
                if (!translateOrFault(cur, ea, is_store, false, &phys))
                    return StopReason::RUNNING;
            }
            bool is_mmio = mem_.isMmio(phys);
            if (is_mmio && !sr_.supervisor) {
                faultAt(cur, Cause::PRIVILEGE, 0);
                return StopReason::RUNNING;
            }
            bool issued_load = false;
            uint32_t lval = 0;
            if (is_store) {
                ++stats_.stores;
                if (is_mmio)
                    mem_.write(phys, data);
                else
                    mem_.ramWrite(phys, data);
            } else {
                ++stats_.loads;
                issued_load = true;
                lval = is_mmio ? mem_.read(phys) : mem_.ram(phys);
            }
            if (out.writes_rd)
                setReg(a.rd, out.rd);
            if (out.writes_lo)
                lo_ = out.lo;
            if (issued_load) {
                load_pending_ = true;
                load_reg_ = m.rd;
                load_value_ = lval;
            }
            return StopReason::RUNNING;
          }

          case K_BRANCH: {
            const isa::BranchPiece &b = h->u.branch;
            ++stats_.free_data_cycles;
            ++stats_.branches;
            uint32_t rs = regs_[b.rs];
            uint32_t src2 =
                b.src2.is_imm ? b.src2.imm4 : regs_[b.src2.reg];
            commitPendingLoad();
            if (isa::evalCond(b.cond, rs, src2)) {
                ++stats_.branches_taken;
                if (in_shadow) {
                    return simError(support::strprintf(
                        "taken branch at %u inside the delay shadow of "
                        "another transfer (architecturally undefined)",
                        cur));
                }
                redirectStream(isa::kBranchDelay,
                               cur + 1 + static_cast<uint32_t>(b.offset));
                shadow_ = isa::kBranchDelay;
            }
            return StopReason::RUNNING;
          }

          case K_JUMP: {
            const isa::JumpPiece &j = h->u.jump;
            ++stats_.free_data_cycles;
            uint32_t target_val = regs_[j.target_reg];
            commitPendingLoad();
            ++stats_.jumps;
            if (in_shadow) {
                return simError(support::strprintf(
                    "jump at %u inside the delay shadow of another "
                    "transfer (architecturally undefined)", cur));
            }
            int delay = isa::jumpDelay(j.kind);
            uint32_t target = isa::jumpIsIndirect(j.kind) ? target_val
                                                          : j.target_addr;
            if (isa::jumpIsCall(j.kind))
                setReg(j.link, cur + 1 + static_cast<uint32_t>(delay));
            redirectStream(delay, target);
            shadow_ = delay;
            return StopReason::RUNNING;
          }

          default: // K_GENERIC: specials and unusual packings
            break;
        }
        instp = &e->inst;
        uses_data_port = e->uses_data_port;
        is_nop = e->is_nop;
    } else {
        uint32_t word = mem_.read(fetch_phys);
        auto decoded = isa::decode(word);
        if (!decoded.ok()) {
            commitPendingLoad();
            ++stats_.free_data_cycles;
            faultAt(cur, Cause::ILLEGAL, 0);
            return StopReason::RUNNING;
        }
        slow_inst_ = decoded.take();
        instp = &slow_inst_;
        uses_data_port = slow_inst_.referencesMemory();
        is_nop = slow_inst_.isNop();
    }
    const Instruction &inst = *instp;

    // Branchless: these predicates vary instruction to instruction, so
    // plain adds beat four data-dependent branches.
    bool has_alu = inst.alu() != nullptr;
    bool has_mem = inst.mem() != nullptr;
    stats_.free_data_cycles += !uses_data_port;
    stats_.nops += is_nop;
    stats_.alu_pieces += has_alu;
    stats_.packed_words += has_alu & has_mem;

    // ---- Operand read (register file + bypass view) -------------------
    // All source operands are read *before* the pending load commits:
    // the instruction in a load's delay slot sees the old value. ALU
    // results of the previous instruction are already in regs_ (full
    // bypass), so only loads expose a delay.
    isa::AluInputs alu_in;
    if (inst.alu()) {
        const AluPiece &a = *inst.alu();
        alu_in.rs = regs_[a.rs];
        alu_in.src2 = a.src2.is_imm ? a.src2.imm4 : regs_[a.src2.reg];
        alu_in.rd_old = regs_[a.rd];
        alu_in.lo = lo_;
    }
    uint32_t mem_base = 0, mem_index = 0, mem_data = 0;
    if (const isa::MemPiece *m = inst.mem()) {
        mem_base = regs_[m->base];
        mem_index = regs_[m->index];
        mem_data = regs_[m->rd];
    }
    uint32_t br_rs = 0, br_src2 = 0;
    if (const isa::BranchPiece *b = inst.branch()) {
        br_rs = regs_[b->rs];
        br_src2 = b->src2.is_imm ? b->src2.imm4 : regs_[b->src2.reg];
    }
    uint32_t jump_target_val = 0, jump_index_val = 0;
    if (const isa::JumpPiece *j = inst.jump()) {
        jump_target_val = regs_[j->target_reg];
        jump_index_val = regs_[j->index];
    }
    uint32_t special_val = 0;
    if (const isa::SpecialPiece *sp = inst.special())
        special_val = regs_[sp->reg];

    // The previous instruction's load lands now, after this
    // instruction's reads and before the next instruction's.
    commitPendingLoad();

    // ---- Execute: ALU piece -------------------------------------------
    isa::AluOutputs alu_out;
    if (inst.alu()) {
        alu_out = isa::evalAlu(*inst.alu(), alu_in);
        if (alu_out.overflow && sr_.ovf_enable) {
            // Enabled overflow inhibits all of this word's effects.
            faultAt(cur, Cause::OVERFLOW, 0);
            return StopReason::RUNNING;
        }
    }

    // ---- Execute: memory piece ----------------------------------------
    // The memory reference must commit before any register write of
    // the same word ("an instruction that calls for a memory reference
    // [must] not allow register writes to take place until after the
    // reference has been committed"), so a data fault inhibits the ALU
    // piece too.
    bool load_issued = false;
    Reg load_rd = 0;
    uint32_t load_val = 0;
    if (inst.mem()) {
        const isa::MemPiece &m = *inst.mem();
        if (m.mode == MemMode::LONG_IMM) {
            // The constant is in the instruction word: no memory
            // reference and no load delay.
            ++stats_.long_immediates;
            setReg(m.rd, static_cast<uint32_t>(m.imm));
        } else {
            uint32_t ea = isa::memEffectiveAddress(m, mem_base, mem_index);
            uint32_t phys = 0;
            if (!translateOrFault(cur, ea, m.is_store, false, &phys))
                return StopReason::RUNNING;
            if (mem_.isMmio(phys) && !sr_.supervisor) {
                // Peripherals on the bus are protected from user-level
                // processes (Section 3.2).
                faultAt(cur, Cause::PRIVILEGE, 0);
                return StopReason::RUNNING;
            }
            if (m.is_store) {
                ++stats_.stores;
                mem_.write(phys, mem_data);
            } else {
                ++stats_.loads;
                load_issued = true;
                load_rd = m.rd;
                load_val = mem_.read(phys);
            }
        }
    }

    // ---- Commit: ALU piece ---------------------------------------------
    if (inst.alu()) {
        if (alu_out.writes_rd)
            setReg(inst.alu()->rd, alu_out.rd);
        if (alu_out.writes_lo)
            lo_ = alu_out.lo;
    }
    if (load_issued) {
        // Commits after the *next* instruction's operand read.
        load_pending_ = true;
        load_reg_ = load_rd;
        load_value_ = load_val;
    }

    // ---- Control transfer ------------------------------------------------
    if (inst.branch()) {
        ++stats_.branches;
        if (isa::evalCond(inst.branch()->cond, br_rs, br_src2)) {
            ++stats_.branches_taken;
            if (in_shadow) {
                return simError(support::strprintf(
                    "taken branch at %u inside the delay shadow of "
                    "another transfer (architecturally undefined)",
                    cur));
            }
            uint32_t target = cur + 1 +
                static_cast<uint32_t>(inst.branch()->offset);
            redirectStream(isa::kBranchDelay, target);
            shadow_ = isa::kBranchDelay;
        }
    } else if (inst.jump()) {
        ++stats_.jumps;
        if (in_shadow) {
            return simError(support::strprintf(
                "jump at %u inside the delay shadow of another "
                "transfer (architecturally undefined)", cur));
        }
        const isa::JumpPiece &j = *inst.jump();
        int delay = isa::jumpDelay(j.kind);
        uint32_t target;
        if (isa::jumpIsTable(j.kind)) {
            // The dispatch target comes from memory: a data-port word
            // load at base + index, with the same translation and
            // peripheral-protection rules as any data reference.
            uint32_t ea = jump_target_val + jump_index_val;
            uint32_t phys = 0;
            if (!translateOrFault(cur, ea, false, false, &phys))
                return StopReason::RUNNING;
            if (mem_.isMmio(phys) && !sr_.supervisor) {
                faultAt(cur, Cause::PRIVILEGE, 0);
                return StopReason::RUNNING;
            }
            ++stats_.loads;
            target = mem_.read(phys);
        } else {
            target = isa::jumpIsIndirect(j.kind) ? jump_target_val
                                                 : j.target_addr;
        }
        if (isa::jumpIsCall(j.kind))
            setReg(j.link, cur + 1 + static_cast<uint32_t>(delay));
        redirectStream(delay, target);
        shadow_ = delay;
    } else if (inst.special()) {
        const isa::SpecialPiece &p = *inst.special();
        if (isa::specialRequiresPrivilege(p) && !sr_.supervisor) {
            faultAt(cur, Cause::PRIVILEGE, 0);
            return StopReason::RUNNING;
        }
        switch (p.op) {
          case isa::SpecialOp::NOP:
            break;
          case isa::SpecialOp::TRAP:
            ++stats_.traps;
            // The trap itself completes; execution resumes after it.
            interruptNow(Cause::TRAP, p.trap_code);
            break;
          case isa::SpecialOp::RFE:
            sr_.returnFromException();
            map_.flushTlb(); // privilege/mapping state swapped back
            // Resume the saved three-address stream: offender, its
            // successor, then the (possibly non-sequential) third.
            stream_ = {ra_[0], ra_[1], ra_[2]};
            break;
          case isa::SpecialOp::MFS:
            switch (p.sreg) {
              case isa::SpecialReg::LO:
                setReg(p.reg, lo_);
                break;
              case isa::SpecialReg::SURPRISE:
                setReg(p.reg, sr_.pack());
                break;
              case isa::SpecialReg::SEG_BITS:
                setReg(p.reg, map_.segBits());
                break;
              case isa::SpecialReg::SEG_PID:
                setReg(p.reg, map_.pid());
                break;
              case isa::SpecialReg::RA0:
              case isa::SpecialReg::RA1:
              case isa::SpecialReg::RA2:
                setReg(p.reg, ra_[static_cast<int>(p.sreg) -
                                  static_cast<int>(isa::SpecialReg::RA0)]);
                break;
              case isa::SpecialReg::FAULT:
                setReg(p.reg, fault_addr_);
                break;
            }
            break;
          case isa::SpecialOp::MTS:
            switch (p.sreg) {
              case isa::SpecialReg::LO:
                lo_ = special_val;
                break;
              case isa::SpecialReg::SURPRISE:
                sr_ = Surprise::unpack(special_val);
                map_.flushTlb(); // may swap privilege / toggle mapping
                break;
              case isa::SpecialReg::SEG_BITS: {
                uint8_t nbits = static_cast<uint8_t>(
                    special_val > 8 ? 8 : special_val);
                uint32_t pid = nbits == 0
                    ? 0 : (map_.pid() & ((1u << nbits) - 1));
                map_.configure(nbits, pid);
                break;
              }
              case isa::SpecialReg::SEG_PID: {
                uint8_t nbits = map_.segBits();
                uint32_t pid = nbits == 0
                    ? 0 : (special_val & ((1u << nbits) - 1));
                map_.configure(nbits, pid);
                break;
              }
              case isa::SpecialReg::RA0:
              case isa::SpecialReg::RA1:
              case isa::SpecialReg::RA2:
                ra_[static_cast<int>(p.sreg) -
                    static_cast<int>(isa::SpecialReg::RA0)] = special_val;
                break;
              case isa::SpecialReg::FAULT:
                fault_addr_ = special_val;
                break;
            }
            break;
          case isa::SpecialOp::HALT:
            halted_ = true;
            return StopReason::HALT;
        }
    }

    return StopReason::RUNNING;
}

// Flattening step() into the driver loop drops the 100M-iteration call
// overhead and lets the compiler keep the hot working set (stream,
// stats, the tag probe) in registers across the dispatch.
__attribute__((flatten)) StopReason
Cpu::run(uint64_t max_cycles)
{
    // The inner loop stays in the fast path (cached decode + micro-TLB
    // inside step()) until something interesting happens; step()
    // already returns a non-RUNNING reason for halts and errors, and
    // exceptions simply redirect the stream without leaving the loop.
    if (halted_) [[unlikely]]
        return error_.empty() ? StopReason::HALT : StopReason::SIM_ERROR;
    uint64_t budget = max_cycles;
    while (budget-- > 0) {
        StopReason reason = stepInner();
        if (reason != StopReason::RUNNING)
            return reason;
    }
    return StopReason::CYCLE_LIMIT;
}

} // namespace mips::sim
