/**
 * @file
 * Unit and property tests for the ISA: comparison semantics, ALU
 * semantics (including byte insert/extract and overflow detection),
 * addressing, register-use analysis, and encode/decode round trips.
 */
#include <gtest/gtest.h>

#include <type_traits>

#include "isa/cond.h"
#include "isa/disasm.h"
#include "isa/encoding.h"
#include "isa/instruction.h"
#include "support/rng.h"

namespace mips::isa {
namespace {

// ---------------------------------------------------------------- Cond

TEST(Cond, SignedVsUnsigned)
{
    uint32_t minus1 = 0xffffffff;
    EXPECT_TRUE(evalCond(Cond::LT, minus1, 0));   // -1 < 0 signed
    EXPECT_FALSE(evalCond(Cond::LTU, minus1, 0)); // huge unsigned
    EXPECT_TRUE(evalCond(Cond::GTU, minus1, 0));
    EXPECT_TRUE(evalCond(Cond::GE, 0, minus1));
}

TEST(Cond, UnaryTests)
{
    EXPECT_TRUE(evalCond(Cond::MI, 0x80000000, 0));
    EXPECT_FALSE(evalCond(Cond::MI, 1, 0));
    EXPECT_TRUE(evalCond(Cond::PL, 0, 99));
    EXPECT_TRUE(evalCond(Cond::EVN, 4, 0));
    EXPECT_TRUE(evalCond(Cond::ODD, 5, 0));
}

/** Property: negateCond is an involution and complements the result. */
TEST(Cond, NegateIsComplementProperty)
{
    support::Rng rng(42);
    for (int c = 0; c < kNumConds; ++c) {
        Cond cond = static_cast<Cond>(c);
        EXPECT_EQ(negateCond(negateCond(cond)), cond);
        for (int i = 0; i < 200; ++i) {
            uint32_t a = static_cast<uint32_t>(rng.next());
            uint32_t b = static_cast<uint32_t>(rng.next());
            EXPECT_NE(evalCond(cond, a, b),
                      evalCond(negateCond(cond), a, b));
        }
    }
}

/** Property: swapCond commutes the operands. */
TEST(Cond, SwapSwapsOperandsProperty)
{
    support::Rng rng(43);
    for (int c = 0; c < kNumConds; ++c) {
        Cond cond = static_cast<Cond>(c);
        // The unary tests inspect only operand a, so swapping is only
        // meaningful for genuinely binary relations.
        if (cond == Cond::MI || cond == Cond::PL || cond == Cond::EVN ||
            cond == Cond::ODD) {
            continue;
        }
        for (int i = 0; i < 200; ++i) {
            uint32_t a = static_cast<uint32_t>(rng.next());
            uint32_t b = static_cast<uint32_t>(rng.next());
            EXPECT_EQ(evalCond(cond, a, b),
                      evalCond(swapCond(cond), b, a));
        }
    }
}

TEST(Cond, NamesRoundTrip)
{
    for (int c = 0; c < kNumConds; ++c) {
        Cond cond = static_cast<Cond>(c), parsed;
        ASSERT_TRUE(parseCond(condName(cond), &parsed));
        EXPECT_EQ(parsed, cond);
    }
    Cond dummy;
    EXPECT_FALSE(parseCond("bogus", &dummy));
}

// ----------------------------------------------------------------- ALU

AluOutputs
run(AluOp op, uint32_t rs, uint32_t src2, uint32_t rd_old = 0,
    uint32_t lo = 0)
{
    AluPiece p;
    p.op = op;
    AluInputs in{rs, src2, rd_old, lo};
    return evalAlu(p, in);
}

TEST(Alu, Arithmetic)
{
    EXPECT_EQ(run(AluOp::ADD, 2, 3).rd, 5u);
    EXPECT_EQ(run(AluOp::SUB, 2, 3).rd, 0xffffffffu);
    // Reverse subtract: src2 - rs, the paper's negative-constant trick.
    EXPECT_EQ(run(AluOp::RSUB, 3, 1).rd, 0xfffffffeu); // 1 - 3 = -2
}

TEST(Alu, OverflowDetection)
{
    EXPECT_TRUE(run(AluOp::ADD, 0x7fffffff, 1).overflow);
    EXPECT_FALSE(run(AluOp::ADD, 0x7ffffffe, 1).overflow);
    EXPECT_TRUE(run(AluOp::SUB, 0x80000000, 1).overflow);
    EXPECT_TRUE(run(AluOp::RSUB, 1, 0x80000000).overflow);
    EXPECT_FALSE(run(AluOp::AND, 0x7fffffff, 0x7fffffff).overflow);
}

TEST(Alu, LogicAndShift)
{
    EXPECT_EQ(run(AluOp::AND, 0xf0f0, 0xff00).rd, 0xf000u);
    EXPECT_EQ(run(AluOp::OR, 0xf0, 0x0f).rd, 0xffu);
    EXPECT_EQ(run(AluOp::XOR, 0xff, 0x0f).rd, 0xf0u);
    EXPECT_EQ(run(AluOp::NOT, 0, 0).rd, 0xffffffffu);
    EXPECT_EQ(run(AluOp::SLL, 1, 4).rd, 16u);
    EXPECT_EQ(run(AluOp::SRL, 0x80000000, 31).rd, 1u);
    EXPECT_EQ(run(AluOp::SRA, 0x80000000, 31).rd, 0xffffffffu);
}

TEST(Alu, ExtractByte)
{
    // xc ptr, word, dest: byte selected by low 2 bits of the pointer.
    uint32_t word = 0x44332211;
    EXPECT_EQ(run(AluOp::XC, 0, word).rd, 0x11u);
    EXPECT_EQ(run(AluOp::XC, 1, word).rd, 0x22u);
    EXPECT_EQ(run(AluOp::XC, 2, word).rd, 0x33u);
    EXPECT_EQ(run(AluOp::XC, 3, word).rd, 0x44u);
    // Only the low two bits of the pointer matter.
    EXPECT_EQ(run(AluOp::XC, 7, word).rd, 0x44u);
}

TEST(Alu, InsertByte)
{
    // ic rs, rd: replace byte (LO & 3) of rd with low byte of rs.
    uint32_t old = 0x44332211;
    EXPECT_EQ(run(AluOp::IC, 0xaa, 0, old, 0).rd, 0x443322aau);
    EXPECT_EQ(run(AluOp::IC, 0xaa, 0, old, 1).rd, 0x4433aa11u);
    EXPECT_EQ(run(AluOp::IC, 0xaa, 0, old, 3).rd, 0xaa332211u);
    // Only the low byte of rs is inserted.
    EXPECT_EQ(run(AluOp::IC, 0x1bb, 0, old, 0).rd, 0x443322bbu);
}

/** Property: insert then extract at the same selector is the identity. */
TEST(Alu, InsertExtractRoundTripProperty)
{
    support::Rng rng(44);
    for (int i = 0; i < 500; ++i) {
        uint32_t word = static_cast<uint32_t>(rng.next());
        uint32_t byte = static_cast<uint32_t>(rng.next()) & 0xff;
        uint32_t sel = static_cast<uint32_t>(rng.next()) & 3;
        uint32_t inserted = run(AluOp::IC, byte, 0, word, sel).rd;
        EXPECT_EQ(run(AluOp::XC, sel, inserted).rd, byte);
        // Other bytes are untouched.
        for (uint32_t other = 0; other < 4; ++other) {
            if (other == sel)
                continue;
            EXPECT_EQ(run(AluOp::XC, other, inserted).rd,
                      run(AluOp::XC, other, word).rd);
        }
    }
}

TEST(Alu, SetConditionally)
{
    AluPiece p;
    p.op = AluOp::SET;
    p.cond = Cond::EQ;
    AluInputs in{5, 5, 0, 0};
    EXPECT_EQ(evalAlu(p, in).rd, 1u);
    in.src2 = 6;
    EXPECT_EQ(evalAlu(p, in).rd, 0u);
}

TEST(Alu, Movi8)
{
    AluPiece p;
    p.op = AluOp::MOVI8;
    p.imm8 = 200;
    EXPECT_EQ(evalAlu(p, AluInputs{}).rd, 200u);
}

TEST(Alu, LoPlumbing)
{
    EXPECT_TRUE(run(AluOp::MTLO, 7, 0).writes_lo);
    EXPECT_EQ(run(AluOp::MTLO, 7, 0).lo, 7u);
    EXPECT_EQ(run(AluOp::MFLO, 0, 0, 0, 9).rd, 9u);
}

/** MSTEP/DSTEP compose into full multiply/divide (32 steps). */
TEST(Alu, MultiplyViaSteps)
{
    support::Rng rng(45);
    for (int trial = 0; trial < 50; ++trial) {
        uint32_t a = static_cast<uint32_t>(rng.next()) & 0xffff;
        uint32_t b = static_cast<uint32_t>(rng.next()) & 0xffff;
        uint32_t acc = 0, lo = b, m = a;
        for (int step = 0; step < 32; ++step) {
            auto out = run(AluOp::MSTEP, m, 0, acc, lo);
            acc = out.rd;
            lo = out.lo;
            m <<= 1; // software doubles the multiplicand
        }
        EXPECT_EQ(acc, a * b);
    }
}

TEST(Alu, DivideViaSteps)
{
    support::Rng rng(46);
    for (int trial = 0; trial < 50; ++trial) {
        uint32_t n = static_cast<uint32_t>(rng.next()) & 0x7fffffff;
        uint32_t d = (static_cast<uint32_t>(rng.next()) & 0xffff) + 1;
        uint32_t rem = 0, lo = n;
        for (int step = 0; step < 32; ++step) {
            auto out = run(AluOp::DSTEP, d, 0, rem, lo);
            rem = out.rd;
            lo = out.lo;
        }
        EXPECT_EQ(lo, n / d);
        EXPECT_EQ(rem, n % d);
    }
}

// ------------------------------------------------------------ MemPiece

TEST(Mem, EffectiveAddresses)
{
    MemPiece m;
    m.mode = MemMode::ABSOLUTE;
    m.imm = 100;
    EXPECT_EQ(memEffectiveAddress(m, 0, 0), 100u);

    m.mode = MemMode::DISP;
    m.imm = -2;
    EXPECT_EQ(memEffectiveAddress(m, 10, 0), 8u);

    m.mode = MemMode::BASE_INDEX;
    EXPECT_EQ(memEffectiveAddress(m, 10, 5), 15u);

    // The paper's packed-byte-array access: word = base + (index >> 2).
    m.mode = MemMode::BASE_SHIFT;
    m.shift = 2;
    EXPECT_EQ(memEffectiveAddress(m, 100, 11), 102u);
}

TEST(Mem, Validation)
{
    MemPiece m;
    m.mode = MemMode::LONG_IMM;
    m.is_store = true;
    EXPECT_FALSE(memValidate(m).empty());

    m.is_store = false;
    m.imm = 1 << 25;
    EXPECT_FALSE(memValidate(m).empty());
    m.imm = -(1 << 20);
    EXPECT_TRUE(memValidate(m).empty());

    m.mode = MemMode::DISP;
    m.imm = 1 << 20;
    EXPECT_FALSE(memValidate(m).empty());
}

// ------------------------------------------------- Instruction queries

TEST(Inst, NopAndKindQueries)
{
    Instruction nop = Instruction::makeNop();
    EXPECT_TRUE(nop.isNop());
    EXPECT_FALSE(nop.isControlTransfer());
    EXPECT_FALSE(nop.referencesMemory());

    Instruction halt = Instruction::makeHalt();
    EXPECT_TRUE(halt.isControlTransfer());

    MemPiece ld;
    ld.mode = MemMode::DISP;
    ld.rd = 1;
    ld.base = 2;
    Instruction load = Instruction::makeMem(ld);
    EXPECT_TRUE(load.isLoad());
    EXPECT_FALSE(load.isStore());
    EXPECT_TRUE(load.referencesMemory());

    // A long-immediate "load" never touches memory.
    MemPiece li;
    li.mode = MemMode::LONG_IMM;
    li.imm = 1234;
    EXPECT_FALSE(Instruction::makeMem(li).referencesMemory());
    EXPECT_FALSE(Instruction::makeMem(li).isLoad());
}

TEST(Inst, RegUseAlu)
{
    AluPiece a;
    a.op = AluOp::ADD;
    a.rd = 3;
    a.rs = 1;
    a.src2 = Src2::fromReg(2);
    RegUse use = regUse(Instruction::makeAlu(a));
    EXPECT_TRUE(use.readsGpr(1));
    EXPECT_TRUE(use.readsGpr(2));
    EXPECT_FALSE(use.readsGpr(3));
    EXPECT_TRUE(use.writesGpr(3));

    // Immediate operand reads no second register.
    a.src2 = Src2::fromImm(5);
    use = regUse(Instruction::makeAlu(a));
    EXPECT_FALSE(use.readsGpr(2));
}

TEST(Inst, RegUseZeroRegisterIgnored)
{
    AluPiece a;
    a.op = AluOp::ADD;
    a.rd = 0;
    a.rs = 0;
    a.src2 = Src2::fromReg(0);
    RegUse use = regUse(Instruction::makeAlu(a));
    EXPECT_EQ(use.gpr_reads, 0);
    EXPECT_EQ(use.gpr_writes, 0);
}

TEST(Inst, RegUseInsertByteReadsDest)
{
    AluPiece a;
    a.op = AluOp::IC;
    a.rd = 2;
    a.rs = 3;
    RegUse use = regUse(Instruction::makeAlu(a));
    EXPECT_TRUE(use.readsGpr(2)); // read-modify-write
    EXPECT_TRUE(use.readsGpr(3));
    EXPECT_TRUE(use.writesGpr(2));
    EXPECT_TRUE(use.reads_lo);
}

TEST(Inst, RegUseMem)
{
    MemPiece st;
    st.mode = MemMode::DISP;
    st.is_store = true;
    st.rd = 1;
    st.base = 2;
    RegUse use = regUse(Instruction::makeMem(st));
    EXPECT_TRUE(use.readsGpr(1));
    EXPECT_TRUE(use.readsGpr(2));
    EXPECT_TRUE(use.writes_memory);
    EXPECT_FALSE(use.reads_memory);

    MemPiece ld;
    ld.mode = MemMode::BASE_SHIFT;
    ld.rd = 1;
    ld.base = 2;
    ld.index = 3;
    use = regUse(Instruction::makeMem(ld));
    EXPECT_TRUE(use.readsGpr(2));
    EXPECT_TRUE(use.readsGpr(3));
    EXPECT_TRUE(use.writesGpr(1));
    EXPECT_TRUE(use.reads_memory);
}

TEST(Inst, RegUseBranchAndJump)
{
    BranchPiece b;
    b.cond = Cond::EQ;
    b.rs = 4;
    b.src2 = Src2::fromReg(5);
    RegUse use = regUse(Instruction::makeBranch(b));
    EXPECT_TRUE(use.readsGpr(4));
    EXPECT_TRUE(use.readsGpr(5));

    JumpPiece j;
    j.kind = JumpKind::CALL_INDIRECT;
    j.target_reg = 6;
    j.link = 15;
    use = regUse(Instruction::makeJump(j));
    EXPECT_TRUE(use.readsGpr(6));
    EXPECT_TRUE(use.writesGpr(15));
}

TEST(Inst, ValidationRules)
{
    AluPiece a;
    a.op = AluOp::ADD;
    MemPiece m;
    m.mode = MemMode::DISP;
    m.imm = 3;

    EXPECT_TRUE(validate(Instruction::makePacked(a, m)).empty());

    // Packed displacement must fit 4 unsigned bits.
    m.imm = 16;
    EXPECT_FALSE(validate(Instruction::makePacked(a, m)).empty());
    m.imm = -1;
    EXPECT_FALSE(validate(Instruction::makePacked(a, m)).empty());

    // Non-packable ALU op.
    m.imm = 0;
    a.op = AluOp::SET;
    EXPECT_FALSE(validate(Instruction::makePacked(a, m)).empty());

    // ALU cannot pair with branch.
    Instruction bad;
    bad.setAlu(AluPiece{});
    bad.setBranch(BranchPiece{});
    EXPECT_FALSE(validate(bad).empty());

    // A word holds one transfer piece: a second one replaces the first.
    Instruction two = Instruction::makeMem(m);
    two.setBranch(BranchPiece{});
    EXPECT_EQ(two.mem(), nullptr);
    ASSERT_NE(two.branch(), nullptr);
    EXPECT_EQ(two, Instruction::makeBranch(BranchPiece{}));
    EXPECT_TRUE(validate(two).empty());
}

TEST(Inst, EqualityIgnoresAbsentPieces)
{
    static_assert(std::is_trivially_copyable_v<Instruction>);

    // The union held different pieces before both words got the same
    // ones: the bytes left behind must not count.
    MemPiece m;
    m.rd = 3;
    m.imm = 1000;
    JumpPiece j;
    j.kind = JumpKind::CALL_DIRECT;
    j.target_addr = 77;
    Instruction x = Instruction::makeMem(m);
    Instruction y = Instruction::makeJump(j);
    EXPECT_NE(x, y);
    SpecialPiece halt;
    halt.op = SpecialOp::HALT;
    x.setSpecial(halt);
    y.setSpecial(halt);
    EXPECT_EQ(x, y);
    EXPECT_EQ(x, Instruction::makeHalt());

    // Clearing a piece and setting it again gives a fresh word.
    AluPiece a;
    a.op = AluOp::XOR;
    a.rd = 5;
    Instruction z = Instruction::makePacked(a, MemPiece{});
    z.clearAlu();
    z.clearTransfer();
    EXPECT_TRUE(z.isNop());
    EXPECT_EQ(z, Instruction::makeNop());
    AluPiece b;
    b.op = AluOp::ADD;
    b.rd = 2;
    z.setAlu(b);
    EXPECT_EQ(z, Instruction::makeAlu(b));
    EXPECT_NE(z, Instruction::makeAlu(a));
}

TEST(Inst, PackableOps)
{
    EXPECT_TRUE(aluOpPackable(AluOp::ADD));
    EXPECT_TRUE(aluOpPackable(AluOp::XC));
    EXPECT_TRUE(aluOpPackable(AluOp::IC));
    EXPECT_FALSE(aluOpPackable(AluOp::SET));
    EXPECT_FALSE(aluOpPackable(AluOp::MOVI8));
    EXPECT_FALSE(aluOpPackable(AluOp::SRA));
}

// ---------------------------------------------------- Encoding round trip

/** Build a random valid instruction for the round-trip property test. */
Instruction
randomInstruction(support::Rng &rng)
{
    auto reg = [&rng] { return static_cast<Reg>(rng.below(16)); };
    auto src2 = [&](bool allow_imm = true) {
        if (allow_imm && rng.chance(0.4))
            return Src2::fromImm(static_cast<uint8_t>(rng.below(16)));
        return Src2::fromReg(reg());
    };

    switch (rng.below(6)) {
      case 0: { // ALU
        AluPiece a;
        a.op = static_cast<AluOp>(rng.below(kNumAluOps));
        a.rd = reg();
        a.rs = reg();
        if (a.op == AluOp::MOVI8)
            a.imm8 = static_cast<uint8_t>(rng.below(256));
        else
            a.src2 = src2();
        if (a.op == AluOp::SET)
            a.cond = static_cast<Cond>(rng.below(kNumConds));
        return Instruction::makeAlu(a);
      }
      case 1: { // MEM
        MemPiece m;
        m.mode = static_cast<MemMode>(rng.below(5));
        m.rd = reg();
        switch (m.mode) {
          case MemMode::LONG_IMM:
            m.imm = static_cast<int32_t>(rng.range(-(1 << 20),
                                                   (1 << 20) - 1));
            break;
          case MemMode::ABSOLUTE:
            m.is_store = rng.chance(0.5);
            m.imm = static_cast<int32_t>(rng.below(1 << 21));
            break;
          case MemMode::DISP:
            m.is_store = rng.chance(0.5);
            m.base = reg();
            m.imm = static_cast<int32_t>(rng.range(-(1 << 16),
                                                   (1 << 16) - 1));
            break;
          case MemMode::BASE_INDEX:
            m.is_store = rng.chance(0.5);
            m.base = reg();
            m.index = reg();
            break;
          case MemMode::BASE_SHIFT:
            m.is_store = rng.chance(0.5);
            m.base = reg();
            m.index = reg();
            m.shift = static_cast<uint8_t>(rng.below(8));
            break;
        }
        return Instruction::makeMem(m);
      }
      case 2: { // packed ALU+MEM
        AluPiece a;
        static const AluOp packable[] = {
            AluOp::ADD, AluOp::SUB, AluOp::AND, AluOp::OR,
            AluOp::XOR, AluOp::SLL, AluOp::XC, AluOp::IC,
        };
        a.op = packable[rng.below(8)];
        a.rd = reg();
        a.rs = reg();
        a.src2 = src2();
        MemPiece m;
        m.mode = MemMode::DISP;
        m.is_store = rng.chance(0.5);
        m.rd = reg();
        m.base = reg();
        m.imm = static_cast<int32_t>(rng.below(16));
        return Instruction::makePacked(a, m);
      }
      case 3: { // branch
        BranchPiece b;
        b.cond = static_cast<Cond>(rng.below(kNumConds));
        b.rs = reg();
        b.src2 = src2();
        b.offset = static_cast<int32_t>(rng.range(-(1 << 15),
                                                  (1 << 15) - 1));
        return Instruction::makeBranch(b);
      }
      case 4: { // jump
        JumpPiece j;
        j.kind = static_cast<JumpKind>(rng.below(5));
        switch (j.kind) {
          case JumpKind::DIRECT:
            j.target_addr = static_cast<uint32_t>(rng.below(1 << 24));
            break;
          case JumpKind::INDIRECT:
            j.target_reg = reg();
            break;
          case JumpKind::CALL_DIRECT:
            j.link = reg();
            j.target_addr = static_cast<uint32_t>(rng.below(1 << 23));
            break;
          case JumpKind::CALL_INDIRECT:
            j.link = reg();
            j.target_reg = reg();
            break;
          case JumpKind::TABLE:
            j.target_reg = reg();
            j.index = reg();
            break;
        }
        return Instruction::makeJump(j);
      }
      default: { // special
        SpecialPiece p;
        switch (rng.below(5)) {
          case 0:
            p.op = SpecialOp::TRAP;
            p.trap_code = static_cast<uint16_t>(rng.below(4096));
            break;
          case 1:
            p.op = SpecialOp::RFE;
            break;
          case 2:
            p.op = SpecialOp::MFS;
            p.reg = reg();
            p.sreg = static_cast<SpecialReg>(
                rng.below(kNumSpecialRegs));
            break;
          case 3:
            p.op = SpecialOp::MTS;
            p.reg = reg();
            p.sreg = static_cast<SpecialReg>(
                rng.below(kNumSpecialRegs));
            break;
          default:
            p.op = SpecialOp::HALT;
            break;
        }
        return Instruction::makeSpecial(p);
      }
    }
}

/**
 * Normalize semantically-dead fields the decoder cannot recover (e.g.
 * the cond field of a non-SET ALU op defaults to ALWAYS; MOVI8 has no
 * src2). randomInstruction only sets live fields, so this is identity
 * for it; kept for documentation value.
 */
TEST(Encoding, RoundTripProperty)
{
    support::Rng rng(4242);
    for (int i = 0; i < 5000; ++i) {
        Instruction inst = randomInstruction(rng);
        ASSERT_EQ(validate(inst), "");
        uint32_t word = encode(inst);
        auto decoded = decode(word);
        ASSERT_TRUE(decoded.ok()) << decoded.error().str();
        EXPECT_EQ(decoded.value(), inst)
            << "disasm: " << disasm(inst) << " vs "
            << disasm(decoded.value());
        // Decode must also be stable: re-encode gives the same word.
        EXPECT_EQ(encode(decoded.value()), word);
    }
}

TEST(Encoding, NopIsAllZeroFormat)
{
    uint32_t word = encode(Instruction::makeNop());
    auto decoded = decode(word);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().isNop());
}

TEST(Encoding, ReservedFormatsRejected)
{
    // Formats 6 and 7 are reserved.
    EXPECT_FALSE(decode(6u << 29).ok());
    EXPECT_FALSE(decode(7u << 29).ok());
    // Bad ALU opcode.
    EXPECT_FALSE(decode((1u << 29) | (60u << 23)).ok());
    // Bad memory mode.
    EXPECT_FALSE(decode((2u << 29) | (7u << 26)).ok());
    // Bad special subcode.
    EXPECT_FALSE(decode((0u << 29) | (9u << 25)).ok());
}

// ------------------------------------------------------------- Disasm

TEST(Disasm, Samples)
{
    AluPiece a;
    a.op = AluOp::ADD;
    a.rs = 1;
    a.src2 = Src2::fromImm(3);
    a.rd = 2;
    EXPECT_EQ(disasm(Instruction::makeAlu(a)), "add r1, #3, r2");

    MemPiece m;
    m.mode = MemMode::DISP;
    m.imm = 2;
    m.base = 13;
    m.rd = 5;
    EXPECT_EQ(disasm(Instruction::makeMem(m)), "ld 2(r13), r5");
    m.is_store = true;
    EXPECT_EQ(disasm(Instruction::makeMem(m)), "st r5, 2(r13)");

    BranchPiece b;
    b.cond = Cond::EQ;
    b.rs = 1;
    b.src2 = Src2::fromImm(0);
    b.offset = 3;
    EXPECT_EQ(disasm(Instruction::makeBranch(b), 10), "beq r1, #0, 14");

    EXPECT_EQ(disasm(Instruction::makeNop()), "nop");
    EXPECT_EQ(disasm(Instruction::makeTrap(9)), "trap #9");
}

TEST(Disasm, PackedShowsBothPieces)
{
    AluPiece a;
    a.op = AluOp::ADD;
    a.rs = 1;
    a.src2 = Src2::fromImm(1);
    a.rd = 1;
    MemPiece m;
    m.mode = MemMode::DISP;
    m.imm = 0;
    m.base = 2;
    m.rd = 3;
    std::string text = disasm(Instruction::makePacked(a, m));
    EXPECT_NE(text.find("add"), std::string::npos);
    EXPECT_NE(text.find("|"), std::string::npos);
    EXPECT_NE(text.find("ld"), std::string::npos);
}

} // namespace
} // namespace mips::isa
