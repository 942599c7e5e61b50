/**
 * @file
 * Assembler tests: parsing of every statement family, label
 * resolution, error reporting, directives, and the
 * disassemble/reassemble round trip.
 */
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "asm/builder.h"
#include "isa/disasm.h"
#include "support/rng.h"

namespace mips::assembler {
namespace {

using isa::AluOp;
using isa::Cond;
using isa::Instruction;
using isa::JumpKind;
using isa::MemMode;

Program
mustAssemble(std::string_view src)
{
    auto prog = assemble(src);
    EXPECT_TRUE(prog.ok()) << (prog.ok() ? "" : prog.error().str());
    return prog.take();
}

/** Word `i` of a linked image, decoded. */
Instruction
wordAt(const Program &p, size_t i)
{
    auto decoded = isa::decode(p.image.at(i));
    EXPECT_TRUE(decoded.ok()) << "word " << i << " does not decode";
    return decoded.ok() ? decoded.value() : Instruction::makeNop();
}

TEST(Asm, AluForms)
{
    Program p = mustAssemble(
        "add r1, r2, r3\n"
        "sub r1, #4, r3\n"
        "rsub r1, #1, r3\n"
        "movi #200, r4\n"
        "seteq r1, r2, r5\n"
        "setltu r1, #3, r5\n"
        "not r1, r2\n"
        "xc r0, r1, r1\n"
        "mtlo r2\n"
        "ic r3, r2\n"
        "mflo r6\n");
    ASSERT_EQ(p.size(), 11u);
    EXPECT_EQ(wordAt(p, 0).alu()->op, AluOp::ADD);
    EXPECT_EQ(wordAt(p, 1).alu()->src2.imm4, 4);
    EXPECT_EQ(wordAt(p, 2).alu()->op, AluOp::RSUB);
    EXPECT_EQ(wordAt(p, 3).alu()->imm8, 200);
    EXPECT_EQ(wordAt(p, 4).alu()->cond, Cond::EQ);
    EXPECT_EQ(wordAt(p, 5).alu()->cond, Cond::LTU);
    EXPECT_EQ(wordAt(p, 6).alu()->op, AluOp::NOT);
    EXPECT_EQ(wordAt(p, 7).alu()->op, AluOp::XC);
    EXPECT_EQ(wordAt(p, 8).alu()->op, AluOp::MTLO);
    EXPECT_EQ(wordAt(p, 9).alu()->op, AluOp::IC);
    EXPECT_EQ(wordAt(p, 10).alu()->op, AluOp::MFLO);
}

TEST(Asm, MemForms)
{
    Program p = mustAssemble(
        "ld @100, r1\n"
        "ld 2(r13), r1\n"
        "ld -5(r13), r1\n"
        "ld (r1+r2), r3\n"
        "ld (r1+r2>>2), r3\n"
        "ldi #70000, r1\n"
        "st r1, 2(r13)\n"
        "st r1, (r2+r3>>1)\n");
    ASSERT_EQ(p.size(), 8u);
    EXPECT_EQ(wordAt(p, 0).mem()->mode, MemMode::ABSOLUTE);
    EXPECT_EQ(wordAt(p, 1).mem()->imm, 2);
    EXPECT_EQ(wordAt(p, 2).mem()->imm, -5);
    EXPECT_EQ(wordAt(p, 3).mem()->mode, MemMode::BASE_INDEX);
    EXPECT_EQ(wordAt(p, 4).mem()->shift, 2);
    EXPECT_EQ(wordAt(p, 5).mem()->mode, MemMode::LONG_IMM);
    EXPECT_EQ(wordAt(p, 5).mem()->imm, 70000);
    EXPECT_TRUE(wordAt(p, 6).mem()->is_store);
    EXPECT_TRUE(wordAt(p, 7).mem()->is_store);
    EXPECT_EQ(wordAt(p, 7).mem()->shift, 1);
}

TEST(Asm, PackedSource)
{
    Program p = mustAssemble("add r1, #1, r2 | ld 3(r4), r5\n");
    ASSERT_EQ(p.size(), 1u);
    EXPECT_TRUE(wordAt(p, 0).alu() != nullptr);
    EXPECT_TRUE(wordAt(p, 0).mem() != nullptr);

    // Either order works.
    Program q = mustAssemble("ld 3(r4), r5 | add r1, #1, r2\n");
    EXPECT_EQ(wordAt(q, 0), wordAt(p, 0));
}

TEST(Asm, BranchesAndLabels)
{
    Program p = mustAssemble(
        "start:\n"
        "  movi #0, r1\n"
        "loop:\n"
        "  add r1, #1, r1\n"
        "  blt r1, #10, loop\n"
        "  bra start\n"
        "  beq r1, r2, done\n"
        "  nop\n"
        "done:\n"
        "  halt\n");
    EXPECT_EQ(p.symbol("start"), 0u);
    EXPECT_EQ(p.symbol("loop"), 1u);
    EXPECT_EQ(p.symbol("done"), 6u);
    // blt at addr 2: offset = 1 - (2+1) = -2
    EXPECT_EQ(wordAt(p, 2).branch()->offset, -2);
    // bra at addr 3: offset = 0 - 4 = -4
    EXPECT_EQ(wordAt(p, 3).branch()->offset, -4);
    EXPECT_EQ(wordAt(p, 3).branch()->cond, Cond::ALWAYS);
    // beq at addr 4: offset = 6 - 5 = 1
    EXPECT_EQ(wordAt(p, 4).branch()->offset, 1);
}

TEST(Asm, JumpsAndCalls)
{
    Program p = mustAssemble(
        "  jmp there\n"
        "  nop\n"
        "  call there, r15\n"
        "  nop\n"
        "  jmp (r15)\n"
        "  call (r7), r15\n"
        "there:\n"
        "  halt\n");
    EXPECT_EQ(wordAt(p, 0).jump()->kind, JumpKind::DIRECT);
    EXPECT_EQ(wordAt(p, 0).jump()->target_addr, 6u);
    EXPECT_EQ(wordAt(p, 2).jump()->kind, JumpKind::CALL_DIRECT);
    EXPECT_EQ(wordAt(p, 2).jump()->target_addr, 6u);
    EXPECT_EQ(wordAt(p, 2).jump()->link, 15);
    EXPECT_EQ(wordAt(p, 4).jump()->kind, JumpKind::INDIRECT);
    EXPECT_EQ(wordAt(p, 4).jump()->target_reg, 15);
    EXPECT_EQ(wordAt(p, 5).jump()->kind, JumpKind::CALL_INDIRECT);
    EXPECT_EQ(wordAt(p, 5).jump()->target_reg, 7);
}

TEST(Asm, SpecialForms)
{
    Program p = mustAssemble(
        "trap #9\n"
        "rfe\n"
        "halt\n"
        "nop\n"
        "mfs sr, r1\n"
        "mts r1, segpid\n"
        "mfs ra0, r2\n");
    EXPECT_EQ(wordAt(p, 0).special()->trap_code, 9);
    EXPECT_EQ(wordAt(p, 1).special()->op, isa::SpecialOp::RFE);
    EXPECT_EQ(wordAt(p, 4).special()->sreg, isa::SpecialReg::SURPRISE);
    EXPECT_EQ(wordAt(p, 5).special()->sreg, isa::SpecialReg::SEG_PID);
    EXPECT_EQ(wordAt(p, 6).special()->sreg, isa::SpecialReg::RA0);
}

TEST(Asm, Pseudos)
{
    Program p = mustAssemble(
        "mov r1, r2\n"
        "li #5, r3\n"
        "li #300, r4\n"    // does not fit movi -> still movi? 300>255
        "li #-7, r5\n");
    EXPECT_EQ(wordAt(p, 0).alu()->op, AluOp::ADD);
    EXPECT_EQ(wordAt(p, 0).alu()->src2.imm4, 0);
    EXPECT_EQ(wordAt(p, 1).alu()->op, AluOp::MOVI8);
    EXPECT_EQ(wordAt(p, 2).mem()->mode, MemMode::LONG_IMM);
    EXPECT_EQ(wordAt(p, 2).mem()->imm, 300);
    EXPECT_EQ(wordAt(p, 3).mem()->imm, -7);
}

TEST(Asm, DirectivesAndData)
{
    Program p = mustAssemble(
        ".org 100\n"
        "entry: movi #1, r1\n"
        "tbl: .word 0xdead\n"
        ".word 'A'\n"
        ".space 3\n"
        "end: halt\n");
    EXPECT_EQ(p.origin, 100u);
    EXPECT_EQ(p.symbol("entry"), 100u);
    EXPECT_EQ(p.symbol("tbl"), 101u);
    EXPECT_EQ(p.image[1], 0xdeadu);
    EXPECT_EQ(p.image[2], 65u);
    EXPECT_EQ(p.symbol("end"), 106u);
}

TEST(Asm, AsciiwPacksFourPerWord)
{
    Program p = mustAssemble(".asciiw \"abcd\"\n");
    // "abcd" + NUL = 5 bytes = 2 words.
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p.image[0], 0x64636261u); // little-endian packing
    EXPECT_EQ(p.image[1], 0u);

    Program q = mustAssemble(".asciiw \"abc\"\n");
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.image[0], 0x00636261u);
}

TEST(Asm, CommentsAndBlankLines)
{
    Program p = mustAssemble(
        "; full-line comment\n"
        "\n"
        "   \t \n"
        "movi #1, r1 ; trailing comment\n");
    EXPECT_EQ(p.size(), 1u);
}

TEST(Asm, NumericBranchTarget)
{
    Program p = mustAssemble(
        "beq r1, #0, 10\n"
        "nop\n");
    // At addr 0, target 10 -> offset 9.
    EXPECT_EQ(wordAt(p, 0).branch()->offset, 9);
}

TEST(AsmErrors, ReportLineNumbers)
{
    auto r = assemble("nop\nbogus r1\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().line, 2);
}

TEST(AsmErrors, Various)
{
    EXPECT_FALSE(assemble("add r1, r2\n").ok());          // arity
    EXPECT_FALSE(assemble("add r1, #16, r2\n").ok());     // imm4 range
    EXPECT_FALSE(assemble("movi #256, r1\n").ok());       // imm8 range
    EXPECT_FALSE(assemble("ld 2(r16), r1\n").ok());       // bad reg
    EXPECT_FALSE(assemble("bra nowhere\n").ok());         // undef label
    EXPECT_FALSE(assemble("x: nop\nx: nop\n").ok());      // dup label
    EXPECT_FALSE(assemble("trap #4096\n").ok());          // trap range
    EXPECT_FALSE(assemble("li #3000000, r1\n").ok());     // li range
    EXPECT_FALSE(assemble(".org 10\nnop\n.org 20\n").ok());
    EXPECT_FALSE(assemble("set r1, r2, r3\n").ok());      // no cond
    EXPECT_FALSE(assemble("beq r1, r2, l | add r1, r2, r3\nl:\n").ok());
    EXPECT_FALSE(assemble("movi #1, r1 | movi #2, r2\n").ok());
    EXPECT_FALSE(assemble("ld (r1+r2>>9), r3\n").ok());   // shift range
    EXPECT_FALSE(assemble("st r1, @3000000\n").ok());     // abs range
    EXPECT_FALSE(assemble(".word\n").ok());
    EXPECT_FALSE(assemble(".bogus\n").ok());
}

TEST(Asm, BranchOutOfRangeRejected)
{
    // A branch further than the 16-bit signed offset field.
    std::string src = "bra far\n.space 40000\nfar: halt\n";
    EXPECT_FALSE(assemble(src).ok());
}

/** Property: disassemble then reassemble reproduces the image. */
TEST(Asm, DisasmRoundTripProperty)
{
    const char *src =
        "start:\n"
        "  movi #42, r1\n"
        "  ldi #100000, r2\n"
        "  add r1, r2, r3 | ld 2(r13), r4\n"
        "  seteq r3, #0, r5\n"
        "  xc r1, r4, r6\n"
        "  mtlo r1\n"
        "  ic r6, r4\n"
        "  st r4, (r2+r1>>2)\n"
        "  bge r3, r5, start\n"
        "  nop\n"
        "  call start, r15\n"
        "  nop\n"
        "  jmp (r15)\n"
        "  trap #17\n"
        "  halt\n";
    Program p = mustAssemble(src);

    std::string listing;
    for (size_t i = 0; i < p.size(); ++i) {
        listing += isa::disasm(wordAt(p, i),
                               p.origin + static_cast<uint32_t>(i));
        listing += "\n";
    }
    Program q = mustAssemble(listing);
    ASSERT_EQ(q.size(), p.size());
    for (size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(q.image[i], p.image[i]) << "at word " << i
            << ": " << isa::disasm(wordAt(p, i));
}

TEST(Asm, ListUnitShowsLabels)
{
    auto unit = parse("loop: add r1, #1, r1\nbra loop\n");
    ASSERT_TRUE(unit.ok());
    std::string text = listUnit(unit.value());
    EXPECT_NE(text.find("loop:"), std::string::npos);
    EXPECT_NE(text.find("bra loop"), std::string::npos);
}

TEST(Asm, NoreorderMarksItems)
{
    auto unit = parse(
        "add r1, #1, r1\n"
        ".noreorder\n"
        "add r2, #1, r2\n"
        ".reorder\n"
        "add r3, #1, r3\n");
    ASSERT_TRUE(unit.ok());
    const auto &items = unit.value().items;
    ASSERT_EQ(items.size(), 3u);
    EXPECT_FALSE(items[0].no_reorder);
    EXPECT_TRUE(items[1].no_reorder);
    EXPECT_FALSE(items[2].no_reorder);
}

// ------------------------------------------------------- label table

static_assert(sizeof(Item) <= 44, "an Item holds ids, not names");

/** The names of the chain from `head`, in order. */
std::vector<std::string_view>
chainNames(const Unit &unit, LabelId head)
{
    std::vector<std::string_view> names;
    for (LabelId id : unit.labels.chain(head))
        names.push_back(unit.labels.name(id));
    return names;
}

using Names = std::vector<std::string_view>;

TEST(LabelTable, InterningTheSameNameTwiceGivesOneId)
{
    UnitBuilder b;
    LabelId loop = b.intern("loop");
    EXPECT_EQ(b.intern("loop"), loop);
    EXPECT_NE(b.intern("done"), loop);
    EXPECT_EQ(b.intern(""), kNoLabel);

    auto unit = parse("loop: add r1, #1, r1\n"
                      "bne r1, #9, loop\n"
                      "nop\n"
                      "bra loop\n"
                      "nop\n");
    ASSERT_TRUE(unit.ok());
    const Unit &u = unit.value();
    EXPECT_EQ(u.labels.size(), 1u);
    EXPECT_EQ(u.items[0].label, u.items[1].target);
    EXPECT_EQ(u.items[1].target, u.items[3].target);
    EXPECT_EQ(u.labels.name(u.items[3].target), "loop");
    EXPECT_EQ(u.labels.item(u.items[3].target), 0u);
}

TEST(LabelTable, TrailingLabelsMapToItemCount)
{
    const char *src = "bra end\nnop\nend:\nfin:\n";
    auto unit = parse(src);
    ASSERT_TRUE(unit.ok());
    const Unit &u = unit.value();
    ASSERT_EQ(u.items.size(), 2u);
    EXPECT_EQ(chainNames(u, u.trailing), (Names{"end", "fin"}));
    EXPECT_EQ(u.labels.item(u.labels.find("end")), 2u);
    EXPECT_EQ(u.labels.item(u.labels.find("fin")), 2u);
    Program p = mustAssemble(src);
    EXPECT_EQ(p.symbol("fin"), 2u);
    EXPECT_EQ(wordAt(p, 0).branch()->offset, 1);
}

TEST(LabelTable, LabelsOnOneItemListInSourceOrder)
{
    auto unit = parse("b: a:\nc: add r1, #1, r1\nhalt\n");
    ASSERT_TRUE(unit.ok());
    const Unit &u = unit.value();
    ASSERT_EQ(u.items.size(), 2u);
    EXPECT_EQ(chainNames(u, u.items[0].label), (Names{"b", "a", "c"}));
    EXPECT_EQ(u.items[1].label, kNoLabel);
    for (std::string_view name : {"a", "b", "c"})
        EXPECT_EQ(u.labels.item(u.labels.find(name)), 0u) << name;
    EXPECT_EQ(listUnit(u).substr(0, 9), "b:\na:\nc:\n");
}

TEST(LabelTable, OnlyReferencedNameRendersInUndefinedError)
{
    auto unit = parse("bra nowhere\nnop\n");
    ASSERT_TRUE(unit.ok());
    const Unit &u = unit.value();
    LabelId id = u.labels.find("nowhere");
    ASSERT_NE(id, kNoLabel);
    EXPECT_EQ(u.items[0].target, id);
    EXPECT_FALSE(u.labels.defined(id));
    EXPECT_EQ(u.labels.item(id), LabelTable::kUndefined);
    auto linked = link(u);
    ASSERT_FALSE(linked.ok());
    EXPECT_EQ(linked.error().message, "undefined label 'nowhere'");
    EXPECT_EQ(linked.error().line, 1);
}

TEST(LabelTable, SecondDefinitionGetsItsOwnIdAndReferencesTheFirst)
{
    auto unit = parse("bra x\nnop\nx: add r1, #1, r1\nx: halt\n");
    ASSERT_TRUE(unit.ok());
    const Unit &u = unit.value();
    LabelId first = u.items[2].label;
    LabelId again = u.items[3].label;
    ASSERT_NE(first, again);
    EXPECT_EQ(u.labels.first(again), first);
    EXPECT_EQ(u.labels.name(again), "x");
    EXPECT_EQ(u.items[0].target, first);
    EXPECT_EQ(u.labels.item(first), 2u);
    EXPECT_EQ(u.labels.find("x"), first);
    auto linked = link(u);
    ASSERT_FALSE(linked.ok());
    EXPECT_EQ(linked.error().message, "duplicate label 'x'");
    EXPECT_EQ(linked.error().line, 4);
    EXPECT_NE(listUnit(u).find("x:\n    halt"), std::string::npos);
}

} // namespace
} // namespace mips::assembler
