/**
 * @file
 * Compiler tests: lexing, parsing, semantic errors, and — most
 * importantly — end-to-end execution: each source program is compiled,
 * run on the functional machine as legal code, reorganized, run on the
 * interlock-free pipeline, and its console output compared against the
 * expected text under both data layouts.
 */
#include <gtest/gtest.h>

#include "plc/driver.h"
#include "plc/lexer.h"
#include "plc/parser.h"
#include "sim/machine.h"

namespace mips::plc {
namespace {

/** True if `unit` dispatches through a jump table (a TABLE jump). */
bool
hasJumpTable(const assembler::Unit &unit)
{
    for (const assembler::Item &item : unit.items)
        if (item.inst.jump() && isa::jumpIsTable(item.inst.jump()->kind))
            return true;
    return false;
}

// ------------------------------------------------------------- Lexer

TEST(Lexer, TokensAndPositions)
{
    auto tokens = lex("program p;\nbegin x := 'a' + 42 end.");
    ASSERT_TRUE(tokens.ok());
    const auto &toks = tokens.value();
    EXPECT_EQ(toks[0].kind, Tok::KW_PROGRAM);
    EXPECT_EQ(toks[1].kind, Tok::IDENT);
    EXPECT_EQ(toks[1].text, "p");
    EXPECT_EQ(toks[3].kind, Tok::KW_BEGIN);
    EXPECT_EQ(toks[3].line, 2);
    EXPECT_EQ(toks[5].kind, Tok::ASSIGN);
    EXPECT_EQ(toks[6].kind, Tok::CHAR_LIT);
    EXPECT_EQ(toks[6].char_value, 'a');
    EXPECT_EQ(toks[8].kind, Tok::INT_LIT);
    EXPECT_EQ(toks[8].int_value, 42);
}

TEST(Lexer, CommentsAndCase)
{
    auto tokens = lex("PROGRAM T; { comment } (* another *) BEGIN END.");
    ASSERT_TRUE(tokens.ok());
    EXPECT_EQ(tokens.value()[0].kind, Tok::KW_PROGRAM);
    EXPECT_EQ(tokens.value()[3].kind, Tok::KW_BEGIN);
}

TEST(Lexer, TwoCharOperators)
{
    auto tokens = lex("program p; begin a := b <> c; d := e <= f end.");
    ASSERT_TRUE(tokens.ok());
    bool saw_ne = false, saw_le = false;
    for (const Token &t : tokens.value()) {
        saw_ne |= t.kind == Tok::NE;
        saw_le |= t.kind == Tok::LE;
    }
    EXPECT_TRUE(saw_ne);
    EXPECT_TRUE(saw_le);
}

TEST(Lexer, Errors)
{
    EXPECT_FALSE(lex("program p; { unterminated").ok());
    EXPECT_FALSE(lex("x := 'ab'").ok());
    EXPECT_FALSE(lex("x := 99999999999").ok());
    EXPECT_FALSE(lex("x := ?").ok());
}

// ------------------------------------------------------------- Parser

TEST(ParserTest, ProgramShape)
{
    auto ast = parseProgram(
        "program demo;\n"
        "const max = 10; letter = 'z';\n"
        "var i, j: integer;\n"
        "    buf: array [0..9] of integer;\n"
        "    line: packed array [1..80] of char;\n"
        "function double(x: integer): integer;\n"
        "begin double := x + x; end;\n"
        "begin\n"
        "  i := double(3);\n"
        "  for j := 0 to 9 do buf[j] := i;\n"
        "end.\n");
    ASSERT_TRUE(ast.ok()) << ast.error().str();
    const ProgramAst &p = ast.value();
    EXPECT_EQ(p.name, "demo");
    ASSERT_EQ(p.consts.size(), 2u);
    EXPECT_EQ(p.consts[1].value, 'z');
    EXPECT_TRUE(p.consts[1].is_char);
    ASSERT_EQ(p.globals.size(), 4u);
    EXPECT_TRUE(p.globals[2].type.is_array);
    EXPECT_TRUE(p.globals[3].type.packed);
    EXPECT_EQ(p.globals[3].type.lo, 1);
    EXPECT_EQ(p.globals[3].type.hi, 80);
    ASSERT_EQ(p.routines.size(), 1u);
    EXPECT_TRUE(p.routines[0].is_function);
    ASSERT_EQ(p.body.size(), 2u);
    EXPECT_EQ(p.body[1]->kind, Stmt::Kind::FOR);
}

TEST(ParserTest, Precedence)
{
    auto ast = parseProgram(
        "program p; var a: integer; b: boolean;\n"
        "begin b := a + 2 * 3 < 10; end.");
    ASSERT_TRUE(ast.ok()) << ast.error().str();
    const Expr &e = *ast.value().body[0]->value;
    ASSERT_EQ(e.kind, Expr::Kind::BINOP);
    EXPECT_EQ(e.op, Tok::LT);                 // relation at the top
    EXPECT_EQ(e.lhs->op, Tok::PLUS);          // + above *
    EXPECT_EQ(e.lhs->rhs->op, Tok::STAR);
}

TEST(ParserTest, Errors)
{
    EXPECT_FALSE(parseProgram("begin end.").ok());
    EXPECT_FALSE(parseProgram("program p begin end.").ok());
    EXPECT_FALSE(parseProgram(
        "program p; begin x := ; end.").ok());
    EXPECT_FALSE(parseProgram(
        "program p; var a: array [5..2] of integer; begin end.").ok());
    // `if x then end` is a legal empty statement in Pascal.
    EXPECT_TRUE(parseProgram(
        "program p; begin if x then end.").ok());
    EXPECT_FALSE(parseProgram(
        "program p; begin if then x := 1 end.").ok());
    EXPECT_FALSE(parseProgram(
        "program p; begin while do x := 1 end.").ok());
}

// --------------------------------------------------------------- Sema

TEST(Sema, ErrorsDetected)
{
    auto check = [](const char *src) {
        auto ast = parseProgram(src);
        ASSERT_TRUE(ast.ok()) << ast.error().str();
        ProgramAst p = ast.take();
        EXPECT_FALSE(analyze(p, Layout::WORD_ALLOCATED).ok()) << src;
    };
    check("program p; begin x := 1; end.");              // undeclared
    check("program p; var a: integer; begin a := 'c'; end.");
    check("program p; var a: integer; begin a[1] := 2; end.");
    check("program p; var a: array [0..3] of integer;\n"
          "begin a := 1; end.");                          // array scalar
    check("program p; const c = 3; begin c := 4; end.");
    check("program p; var a: integer;\n"
          "begin if a then a := 1; end.");                // non-boolean
    check("program p; var a, a: integer; begin end.");    // duplicate
    check("program p;\n"
          "function f(x: integer): integer; begin f := x; end;\n"
          "begin f(1, 2); end.");                         // arity
    check("program p; var c: char;\n"
          "begin for c := 1 to 3 do c := c; end.");       // for var type
}

TEST(Sema, LayoutControlsPacking)
{
    const char *src =
        "program p;\n"
        "var w: array [0..9] of char;\n"
        "    q: packed array [0..9] of char;\n"
        "    n: array [0..9] of integer;\n"
        "begin end.";
    auto ast1 = parseProgram(src);
    ProgramAst p1 = ast1.take();
    auto word = analyze(p1, Layout::WORD_ALLOCATED);
    ASSERT_TRUE(word.ok());
    EXPECT_FALSE(word.value().global_scope.at("w")->byte_packed);
    EXPECT_TRUE(word.value().global_scope.at("q")->byte_packed);
    EXPECT_FALSE(word.value().global_scope.at("n")->byte_packed);
    EXPECT_EQ(word.value().global_scope.at("w")->sizeWords(), 10);
    EXPECT_EQ(word.value().global_scope.at("q")->sizeWords(), 3);

    auto ast2 = parseProgram(src);
    ProgramAst p2 = ast2.take();
    auto byte = analyze(p2, Layout::BYTE_ALLOCATED);
    ASSERT_TRUE(byte.ok());
    EXPECT_TRUE(byte.value().global_scope.at("w")->byte_packed);
    EXPECT_TRUE(byte.value().global_scope.at("q")->byte_packed);
    EXPECT_FALSE(byte.value().global_scope.at("n")->byte_packed);
}

// --------------------------------------------- End-to-end execution

/** Compile and run on the pipeline machine; return console output. */
std::string
runProgram(const char *src, Layout layout = Layout::WORD_ALLOCATED,
           uint64_t max_cycles = 20'000'000, bool jump_tables = true)
{
    CompileOptions copts;
    copts.layout = layout;
    copts.jump_tables = jump_tables;
    auto exe = buildExecutable(src, copts);
    EXPECT_TRUE(exe.ok()) << (exe.ok() ? "" : exe.error().str());
    if (!exe.ok())
        return "<compile error>";

    sim::Machine machine;
    machine.load(exe.value().program);
    sim::StopReason reason = machine.cpu().run(max_cycles);
    EXPECT_EQ(reason, sim::StopReason::HALT)
        << machine.cpu().errorMessage();
    std::string pipeline_out = machine.memory().consoleOutput();

    // Differential: legal code on the functional machine must print
    // the same thing.
    auto legal = assembler::link(exe.value().legal_unit);
    EXPECT_TRUE(legal.ok());
    sim::FunctionalRun f = sim::runFunctional(legal.value(), max_cycles);
    EXPECT_EQ(f.reason, sim::StopReason::HALT) << f.cpu->errorMessage();
    EXPECT_EQ(f.memory->consoleOutput(), pipeline_out);

    return pipeline_out;
}

TEST(Execution, WriteIntAndChar)
{
    EXPECT_EQ(runProgram(
        "program p; begin writeint(42); writechar('!'); end."),
        "42!");
    EXPECT_EQ(runProgram(
        "program p; begin writeint(0); writeint(-17); end."),
        "0-17");
    EXPECT_EQ(runProgram(
        "program p; begin writeint(123456); end."),
        "123456");
}

TEST(Execution, ArithmeticAndRuntime)
{
    EXPECT_EQ(runProgram(
        "program p; var a: integer;\n"
        "begin a := 6 * 7; writeint(a);\n"
        "writechar(' ');\n"
        "writeint(100 div 7); writechar(' ');\n"
        "writeint(100 mod 7); writechar(' ');\n"
        "writeint((-100) div 7); writechar(' ');\n"
        "writeint((-100) mod 7);\n"
        "end."),
        "42 14 2 -14 -2");
}

TEST(Execution, ControlFlow)
{
    EXPECT_EQ(runProgram(
        "program p; var i, s: integer;\n"
        "begin\n"
        "  s := 0;\n"
        "  for i := 1 to 10 do s := s + i;\n"
        "  writeint(s); writechar(' ');\n"
        "  s := 0; i := 10;\n"
        "  while i > 0 do begin s := s + i; i := i - 1; end;\n"
        "  writeint(s); writechar(' ');\n"
        "  s := 0; i := 0;\n"
        "  repeat s := s + 1; i := i + 1; until i >= 4;\n"
        "  writeint(s);\n"
        "end."),
        "55 55 4");
}

const char *kCaseProgram =
    "program p; var i: integer;\n"
    "begin\n"
    "  for i := 0 to 6 do\n"
    "    case i of\n"
    "      0: writechar('z');\n"
    "      1, 2: writeint(i * 10);\n"
    "      3: writechar('t');\n"
    "      5: writechar('f')\n"
    "    else writechar('?')\n"
    "    end;\n"
    "end.";

TEST(Execution, CaseJumpTable)
{
    // Dense selectors lower to a jtab dispatch.
    auto compiled = compile(kCaseProgram, CompileOptions{});
    ASSERT_TRUE(compiled.ok()) << compiled.error().str();
    EXPECT_TRUE(hasJumpTable(compiled.value()));
    EXPECT_EQ(runProgram(kCaseProgram), "z1020t?f?");
}

TEST(Execution, CaseBranchChain)
{
    // Same program with tables disabled: a compare-and-branch chain
    // must produce identical output.
    CompileOptions copts;
    copts.jump_tables = false;
    auto compiled = compile(kCaseProgram, copts);
    ASSERT_TRUE(compiled.ok()) << compiled.error().str();
    EXPECT_FALSE(hasJumpTable(compiled.value()));
    EXPECT_EQ(runProgram(kCaseProgram, Layout::WORD_ALLOCATED,
                         20'000'000, false),
              "z1020t?f?");
}

TEST(Execution, CaseSparseAndChars)
{
    // Sparse labels stay a branch chain even with tables enabled.
    const char *sparse =
        "program p; var i: integer;\n"
        "begin\n"
        "  i := 100;\n"
        "  case i of\n"
        "    1: writeint(1);\n"
        "    100: writeint(2);\n"
        "    1000: writeint(3)\n"
        "  end;\n"
        "end.";
    auto compiled = compile(sparse, CompileOptions{});
    ASSERT_TRUE(compiled.ok()) << compiled.error().str();
    EXPECT_FALSE(hasJumpTable(compiled.value()));
    EXPECT_EQ(runProgram(sparse), "2");

    // Char selectors and named constants work as labels.
    EXPECT_EQ(runProgram(
        "program p; const star = '*'; var c: char;\n"
        "begin\n"
        "  c := '*';\n"
        "  case c of\n"
        "    'a': writeint(1);\n"
        "    'b': writeint(2);\n"
        "    'c': writeint(3);\n"
        "    star: writeint(4)\n"
        "  else writeint(9)\n"
        "  end;\n"
        "end."),
        "4");

    // Selector outside every label with no else: falls through.
    EXPECT_EQ(runProgram(
        "program p; var i: integer;\n"
        "begin\n"
        "  i := 4;\n"
        "  case i of\n"
        "    0: writeint(0); 1: writeint(1);\n"
        "    2: writeint(2); 3: writeint(3)\n"
        "  end;\n"
        "  writechar('.');\n"
        "end."),
        ".");
}

TEST(Execution, CaseNegativeLabels)
{
    EXPECT_EQ(runProgram(
        "program p; var i: integer;\n"
        "begin\n"
        "  for i := 0 to 4 do\n"
        "    case i - 2 of\n"
        "      -2: writechar('a');\n"
        "      -1: writechar('b');\n"
        "      0: writechar('c');\n"
        "      1: writechar('d')\n"
        "    else writechar('e')\n"
        "    end;\n"
        "end."),
        "abcde");
}

TEST(Sema, CaseErrors)
{
    auto expectError = [](const char *src) {
        auto r = compile(src, CompileOptions{});
        EXPECT_FALSE(r.ok()) << src;
    };
    // Duplicate label.
    expectError("program p; var i: integer; begin case i of "
                "1: writeint(1); 1: writeint(2) end; end.");
    // Label/selector type mismatch.
    expectError("program p; var i: integer; begin case i of "
                "'a': writeint(1) end; end.");
    // Boolean selector.
    expectError("program p; var b: boolean; begin case b of "
                "1: writeint(1) end; end.");
    // Non-constant label.
    expectError("program p; var i, j: integer; begin case i of "
                "j: writeint(1) end; end.");
    // No arms.
    expectError("program p; var i: integer; begin case i of "
                "end; end.");
}

TEST(Execution, IfAndBooleans)
{
    EXPECT_EQ(runProgram(
        "program p; var a, b: integer; f: boolean;\n"
        "begin\n"
        "  a := 3; b := 13;\n"
        "  if (a = 3) or (b = 9) then writechar('y') else writechar('n');\n"
        "  if (a = 3) and (b = 9) then writechar('y') else writechar('n');\n"
        "  if not (a = 4) then writechar('y') else writechar('n');\n"
        "  f := (a = 3) or (b = 13);\n"
        "  if f then writechar('t') else writechar('f');\n"
        "  f := (a < 2) and true;\n"
        "  if f then writechar('t') else writechar('f');\n"
        "end."),
        "ynytf");
}

TEST(Execution, DownToAndNegatives)
{
    EXPECT_EQ(runProgram(
        "program p; var i: integer;\n"
        "begin for i := 3 downto 1 do writeint(i); end."),
        "321");
    EXPECT_EQ(runProgram(
        "program p; var i: integer;\n"
        "begin i := -5; writeint(i + 10); writeint(-i); end."),
        "55");
}

TEST(Execution, FunctionsAndRecursion)
{
    // Recursive Fibonacci: the classic.
    EXPECT_EQ(runProgram(
        "program fib;\n"
        "function fib(n: integer): integer;\n"
        "begin\n"
        "  if n < 2 then fib := n\n"
        "  else fib := fib(n - 1) + fib(n - 2);\n"
        "end;\n"
        "begin writeint(fib(12)); end."),
        "144");
}

TEST(Execution, NestedCallsSpillCorrectly)
{
    // A call inside an expression with live evaluation registers.
    EXPECT_EQ(runProgram(
        "program p;\n"
        "function sq(x: integer): integer;\n"
        "begin sq := x * x; end;\n"
        "function add3(a, b, c: integer): integer;\n"
        "begin add3 := a + b + c; end;\n"
        "begin\n"
        "  writeint(1000 + sq(5) * 2);\n"
        "  writechar(' ');\n"
        "  writeint(add3(sq(2), sq(3) + 1, sq(4)));\n"
        "end."),
        "1050 30");
}

TEST(Execution, WordArrays)
{
    EXPECT_EQ(runProgram(
        "program p;\n"
        "var a: array [0..9] of integer; i: integer;\n"
        "begin\n"
        "  for i := 0 to 9 do a[i] := i * i;\n"
        "  writeint(a[7]); writechar(' '); writeint(a[0] + a[9]);\n"
        "end."),
        "49 81");
}

TEST(Execution, NonZeroLowerBound)
{
    EXPECT_EQ(runProgram(
        "program p;\n"
        "var a: array [5..14] of integer; i: integer;\n"
        "begin\n"
        "  for i := 5 to 14 do a[i] := i;\n"
        "  writeint(a[5] + a[14]);\n"
        "end."),
        "19");
}

/** Character-array workout shared by both layouts. */
constexpr const char *kCharProgram =
    "program chars;\n"
    "var line: packed array [0..15] of char;\n"
    "    copy: array [0..15] of char;\n"
    "    i: integer; c: char;\n"
    "begin\n"
    "  line[0] := 'h'; line[1] := 'i'; line[2] := '!';\n"
    "  for i := 0 to 2 do begin\n"
    "    c := line[i];\n"
    "    copy[i] := c;\n"
    "  end;\n"
    "  for i := 0 to 2 do writechar(copy[i]);\n"
    "  writechar(line[1]);\n"
    "end.";

TEST(Execution, PackedCharsWordLayout)
{
    EXPECT_EQ(runProgram(kCharProgram, Layout::WORD_ALLOCATED), "hi!i");
}

TEST(Execution, PackedCharsByteLayout)
{
    EXPECT_EQ(runProgram(kCharProgram, Layout::BYTE_ALLOCATED), "hi!i");
}

TEST(Execution, OrdChr)
{
    EXPECT_EQ(runProgram(
        "program p; var c: char; n: integer;\n"
        "begin\n"
        "  c := 'a'; n := ord(c) + 1; c := chr(n);\n"
        "  writechar(c); writeint(ord('0'));\n"
        "end."),
        "b48");
}

TEST(Execution, LocalArrays)
{
    EXPECT_EQ(runProgram(
        "program p;\n"
        "procedure work;\n"
        "var buf: array [0..4] of integer; i: integer;\n"
        "begin\n"
        "  for i := 0 to 4 do buf[i] := 10 - i;\n"
        "  writeint(buf[0] + buf[4]);\n"
        "end;\n"
        "begin work; end."),
        "16");
}

TEST(Execution, GlobalsSharedAcrossRoutines)
{
    EXPECT_EQ(runProgram(
        "program p;\n"
        "var counter: integer;\n"
        "procedure bump; begin counter := counter + 1; end;\n"
        "begin\n"
        "  counter := 0; bump; bump; bump; writeint(counter);\n"
        "end."),
        "3");
}

TEST(Execution, ReorgAnnotationsSurviveScheduling)
{
    CompileOptions copts;
    auto exe = buildExecutable(kCharProgram, copts);
    ASSERT_TRUE(exe.ok()) << exe.error().str();
    // The final unit must still carry 8-bit reference annotations for
    // the packed array accesses.
    int byte_refs = 0, word_refs = 0;
    for (const auto &item : exe.value().final_unit.items) {
        if (item.ref_size == 8)
            ++byte_refs;
        if (item.ref_size == 32)
            ++word_refs;
    }
    EXPECT_GT(byte_refs, 0);
    EXPECT_GT(word_refs, 0);
}

TEST(Execution, ReorganizerImprovesCompiledCode)
{
    const char *src =
        "program p; var i, s: integer; a: array [0..20] of integer;\n"
        "begin\n"
        "  s := 0;\n"
        "  for i := 0 to 20 do a[i] := i;\n"
        "  for i := 0 to 20 do s := s + a[i];\n"
        "  writeint(s);\n"
        "end.";
    reorg::ReorgOptions none;
    none.reorder = false;
    none.pack = false;
    none.fill_delay = false;
    auto base = buildExecutable(src, CompileOptions{}, none);
    auto full = buildExecutable(src, CompileOptions{});
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(full.ok());
    EXPECT_LT(full.value().program.size(), base.value().program.size());

    // And both still run correctly.
    for (const auto *exe : {&base.value(), &full.value()}) {
        sim::Machine m;
        m.load(exe->program);
        ASSERT_EQ(m.cpu().run(10'000'000), sim::StopReason::HALT);
        EXPECT_EQ(m.memory().consoleOutput(), "210");
    }
}

TEST(Sema, OversizedGlobalRejectedAtItsLine)
{
    // Regression: code generation used to abort the process when a
    // global outgrew one `.space`. The second span overflows 32 bits.
    for (const char *bounds : {"0..2000000", "-2000000000..2000000000"}) {
        auto r = compile(std::string("program p;\nvar a: array [") +
                         bounds + "] of integer;\nbegin a[0] := 1; end.");
        ASSERT_FALSE(r.ok()) << bounds;
        EXPECT_EQ(r.error().line, 2) << r.error().str();
        EXPECT_NE(r.error().message.find("'a'"), std::string::npos)
            << r.error().str();
    }
}

TEST(Sema, OversizedFrameRejectedAtItsLine)
{
    // Regression: a frame that outgrew the long immediate failed at
    // code generation with no line, and one whose scalar slots lay
    // past the displacement range aborted the process.
    for (const char *bounds : {"0..2000000", "0..100000"}) {
        auto r = compile(std::string("program p;\nprocedure q;\n"
                                     "var a: array [") +
                         bounds + "] of integer;\n    i: integer;\n"
                         "begin i := 1; a[i] := i; end;\n"
                         "begin q; end.");
        ASSERT_FALSE(r.ok()) << bounds;
        EXPECT_EQ(r.error().line, 3) << r.error().str();
        EXPECT_NE(r.error().message.find("'q'"), std::string::npos)
            << r.error().str();
    }
}

TEST(Execution, CompileErrorsSurface)
{
    EXPECT_FALSE(compile("program p; begin x := 1; end.").ok());
    EXPECT_FALSE(
        compile("program p; begin writeint(90000000); end.").ok());
    // Over-21-bit literals fail at code generation.
    auto r = compile(
        "program p; var a: integer; begin a := 10000000; end.");
    EXPECT_FALSE(r.ok());
}

} // namespace
} // namespace mips::plc
