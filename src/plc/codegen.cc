#include "plc/codegen.h"

#include <algorithm>
#include <map>

#include "asm/assembler.h"
#include "asm/builder.h"
#include "plc/parser.h"
#include "support/bits.h"
#include "support/logging.h"
#include "support/strings.h"

namespace mips::plc {

namespace as = assembler;

using as::Operand;
using isa::AluOp;
using isa::Cond;
using isa::Reg;
using support::Error;
using support::Result;
using support::strprintf;

namespace {

constexpr int kEvalBase = 1;  ///< first eval-stack register
constexpr int kEvalDepthMax = 8;
constexpr Reg kScratch = 9;
constexpr Reg kRuntimeArg0 = 10, kRuntimeArg1 = 11, kRuntimeResult = 12;
constexpr Reg kSp = isa::kStackReg;
constexpr Reg kLink = isa::kLinkReg;
constexpr uint32_t kConsole = 0x000ff000;

constexpr auto lit = &Operand::ofImm;
constexpr auto src = &Operand::ofReg;

/**
 * The runtime routines appended to every unit. They are written by
 * hand, so they stay assembly text, parsed once per process.
 */
constexpr std::string_view kRuntime = R"(
$mul:
    movi #0, r12
$mul_loop:
    beq r11, #0, $mul_done
    bevn r11, #0, $mul_skip
    add r12, r10, r12
$mul_skip:
    sll r10, #1, r10
    srl r11, #1, r11
    bra $mul_loop
$mul_done:
    jmp (r15)
$divmod:
    mtlo r10
    movi #0, r12
    movi #32, r9
$dm_loop:
    dstep r11, r12
    sub r9, #1, r9
    bgt r9, #0, $dm_loop
    mflo r10
    jmp (r15)
$div:
    st r15, @$rt_save
    xor r10, r11, r13
    bge r10, #0, $div_a
    rsub r10, #0, r10
$div_a:
    bge r11, #0, $div_b
    rsub r11, #0, r11
$div_b:
    call $divmod, r15
    mov r10, r12
    bge r13, #0, $div_done
    rsub r12, #0, r12
$div_done:
    ld @$rt_save, r15
    jmp (r15)
$mod:
    st r15, @$rt_save
    mov r10, r13
    bge r10, #0, $mod_a
    rsub r10, #0, r10
$mod_a:
    bge r11, #0, $mod_b
    rsub r11, #0, r11
$mod_b:
    call $divmod, r15
    bge r13, #0, $mod_done
    rsub r12, #0, r12
$mod_done:
    ld @$rt_save, r15
    jmp (r15)
$writeint:
    st r15, @$wi_save
    ldi #1044480, r13
    bne r10, #0, $wi_nonzero
    movi #'0', r9
    st r9, (r13)
    bra $wi_return
$wi_nonzero:
    bge r10, #0, $wi_pos
    movi #'-', r9
    st r9, (r13)
    rsub r10, #0, r10
$wi_pos:
    movi #0, r12
    st r12, @$wi_n
$wi_loop:
    movi #10, r11
    call $divmod, r15
    ld @$wi_n, r11
    la $wi_buf, r9
    st r12, (r9+r11)
    add r11, #1, r11
    st r11, @$wi_n
    bne r10, #0, $wi_loop
$wi_out:
    ld @$wi_n, r11
    sub r11, #1, r11
    st r11, @$wi_n
    la $wi_buf, r9
    ld (r9+r11), r12
    movi #48, r10
    add r12, r10, r12
    st r12, (r13)
    ld @$wi_n, r11
    bgt r11, #0, $wi_out
$wi_return:
    ld @$wi_save, r15
    jmp (r15)
$rt_save: .word 0
$wi_save: .word 0
$wi_n: .word 0
$wi_buf: .space 12
)";

struct GenFailure
{
};

/** Emits items straight into a unit. Item::source_line counts lines of
 *  the program's listing: one per label, instruction or directive. */
class CodeGen
{
  public:
    CodeGen(const ProgramAst &program, const SemaResult &sema,
            const CompileOptions &options)
        : program_(program), sema_(sema), options_(options)
    {}

    Result<as::Unit> run();

  private:
    [[noreturn]] void fail(int line, const std::string &message);

    // --- Emission ------------------------------------------------------
    as::Item &emit(as::InstResult inst, as::LabelId target = as::kNoLabel);
    void emitRef(as::InstResult inst, uint8_t size, bool is_char,
                 as::LabelId target = as::kNoLabel);
    void emitLabel(as::LabelId label);
    as::LabelId freshLabel();

    // --- Register stack -------------------------------------------------
    Reg reg(int depth) const;
    int push(int line);
    void pop(int n = 1);

    // --- Helpers ---------------------------------------------------------
    void loadLiteral(int32_t value, Reg rd, int line);
    void addConst(Reg rs, int32_t value, Reg rd, int line);
    int spillSlot(int index) const;
    void adjustSp(int delta_words, bool down);

    // --- Expressions -----------------------------------------------------
    void genExpr(const Expr &expr);
    void genScalarLoad(const Symbol &sym, Reg rd);
    void genScalarStore(const Symbol &sym, Reg rs);
    void genArrayBase(const Symbol &sym, Reg rd, int line);
    void genIndexAdjust(const Symbol &sym, Reg ri, int line);
    void genCall(const Expr &expr);
    isa::Cond relCond(Tok op, int line) const;

    // --- Conditions -------------------------------------------------------
    void genCondBranch(const Expr &expr, as::LabelId label,
                       bool branch_if_true);
    void genRelBranch(const Expr &expr, as::LabelId label,
                      bool branch_if_true);

    // --- Statements ---------------------------------------------------------
    void genStmts(const std::vector<StmtPtr> &body);
    void genStmt(const Stmt &stmt);
    void genRoutineCall(const std::string &fn_label,
                        const std::vector<ExprPtr> &args, bool has_result,
                        int line);

    void genRoutine(const Routine &routine, int index);
    void emitRuntime();
    void emitGlobals();

    const ProgramAst &program_;
    const SemaResult &sema_;
    const CompileOptions &options_;

    as::UnitBuilder out_;
    int depth_ = 0;
    int next_label_ = 0;
    const FrameInfo *frame_ = nullptr;
    int for_depth_ = 0;
    Error error_;
};

void
CodeGen::fail(int line, const std::string &message)
{
    error_ = Error{message, line, 0};
    throw GenFailure{};
}

as::Item &
CodeGen::emit(as::InstResult inst, as::LabelId target)
{
    // The operands come from the generator itself, so a word the
    // builder rejects is a code-generator bug, not a user error.
    if (!inst.ok())
        support::panic("plc: bad generated instruction: %s",
                       inst.error().message.c_str());
    as::Item &item = out_.add(inst.take(), target);
    ++out_.line;
    return item;
}

void
CodeGen::emitRef(as::InstResult inst, uint8_t size, bool is_char,
                 as::LabelId target)
{
    as::Item &item = emit(std::move(inst), target);
    item.ref_size = size;
    item.ref_is_char = is_char;
}

void
CodeGen::emitLabel(as::LabelId label)
{
    out_.label(label);
    ++out_.line;
}

as::LabelId
CodeGen::freshLabel()
{
    return out_.intern(strprintf("P$%d", next_label_++));
}

Reg
CodeGen::reg(int depth) const
{
    return static_cast<Reg>(kEvalBase + depth - 1);
}

int
CodeGen::push(int line)
{
    if (depth_ >= kEvalDepthMax)
        fail(line, "expression too complex (evaluation stack overflow)");
    return ++depth_;
}

void
CodeGen::pop(int n)
{
    depth_ -= n;
    if (depth_ < 0)
        support::panic("CodeGen: evaluation stack underflow");
}

void
CodeGen::loadLiteral(int32_t value, Reg rd, int line)
{
    if (value >= 0 && value <= 15) {
        // add r0, #k is preferred over movi: the ADD form fits the
        // packed word format, giving the reorganizer more to pack.
        emit(as::alu(AluOp::ADD, isa::kZeroReg, lit(value), rd));
    } else if (value >= 0 && value <= 255) {
        emit(as::movi(value, rd));
    } else if (support::fitsSigned(value, isa::kLongImmBits)) {
        emit(as::ldi(value, rd));
    } else {
        fail(line, strprintf("constant %d too large for code "
                             "generation", value));
    }
}

void
CodeGen::addConst(Reg rs, int32_t value, Reg rd, int line)
{
    if (value == 0) {
        if (rs != rd)
            emit(as::mov(rs, rd));
        return;
    }
    if (value > 0 && value <= 15) {
        emit(as::alu(AluOp::ADD, rs, lit(value), rd));
    } else if (value < 0 && value >= -15) {
        emit(as::alu(AluOp::SUB, rs, lit(-value), rd));
    } else {
        loadLiteral(value, kScratch, line);
        emit(as::alu(AluOp::ADD, rs, src(kScratch), rd));
    }
}

int
CodeGen::spillSlot(int index) const
{
    return frame_->temps_base + index;
}

void
CodeGen::adjustSp(int delta_words, bool down)
{
    AluOp op = down ? AluOp::SUB : AluOp::ADD;
    if (delta_words <= 15) {
        emit(as::alu(op, kSp, lit(delta_words), kSp));
    } else {
        loadLiteral(delta_words, kScratch, 0);
        emit(as::alu(op, kSp, src(kScratch), kSp));
    }
}

isa::Cond
CodeGen::relCond(Tok op, int line) const
{
    switch (op) {
      case Tok::EQ: return isa::Cond::EQ;
      case Tok::NE: return isa::Cond::NE;
      case Tok::LT: return isa::Cond::LT;
      case Tok::LE: return isa::Cond::LE;
      case Tok::GT: return isa::Cond::GT;
      case Tok::GE: return isa::Cond::GE;
      default:
        break;
    }
    const_cast<CodeGen *>(this)->fail(line, "bad relational operator");
}

void
CodeGen::genScalarLoad(const Symbol &sym, Reg rd)
{
    bool is_char = sym.type.base == BaseType::CHAR;
    switch (sym.kind) {
      case SymKind::GLOBAL_VAR:
        emitRef(as::load(as::atAbsolute(0), rd), 32, is_char,
                out_.intern(sym.label));
        break;
      case SymKind::LOCAL_VAR:
      case SymKind::PARAM:
      case SymKind::RESULT:
        emitRef(as::load(as::atDisp(sym.frame_offset, kSp), rd), 32,
                is_char);
        break;
      default:
        support::panic("genScalarLoad: bad symbol kind");
    }
}

void
CodeGen::genScalarStore(const Symbol &sym, Reg rs)
{
    bool is_char = sym.type.base == BaseType::CHAR;
    switch (sym.kind) {
      case SymKind::GLOBAL_VAR:
        emitRef(as::store(rs, as::atAbsolute(0)), 32, is_char,
                out_.intern(sym.label));
        break;
      case SymKind::LOCAL_VAR:
      case SymKind::PARAM:
      case SymKind::RESULT:
        emitRef(as::store(rs, as::atDisp(sym.frame_offset, kSp)), 32,
                is_char);
        break;
      default:
        support::panic("genScalarStore: bad symbol kind");
    }
}

void
CodeGen::genArrayBase(const Symbol &sym, Reg rd, int line)
{
    if (sym.kind == SymKind::GLOBAL_VAR) {
        emit(as::la(0, rd), out_.intern(sym.label));
    } else {
        // Local array: base = sp + offset.
        if (sym.frame_offset <= 15) {
            emit(as::alu(AluOp::ADD, kSp, lit(sym.frame_offset), rd));
        } else {
            loadLiteral(sym.frame_offset, kScratch, line);
            emit(as::alu(AluOp::ADD, kSp, src(kScratch), rd));
        }
    }
}

void
CodeGen::genIndexAdjust(const Symbol &sym, Reg ri, int line)
{
    if (sym.type.lo != 0)
        addConst(ri, -sym.type.lo, ri, line);
}

void
CodeGen::genExpr(const Expr &expr)
{
    switch (expr.kind) {
      case Expr::Kind::INT_LIT:
        loadLiteral(expr.int_value, reg(push(expr.line)), expr.line);
        return;
      case Expr::Kind::CHAR_LIT:
        loadLiteral(static_cast<unsigned char>(expr.char_value),
                    reg(push(expr.line)), expr.line);
        return;
      case Expr::Kind::BOOL_LIT:
        loadLiteral(expr.bool_value ? 1 : 0, reg(push(expr.line)),
                    expr.line);
        return;

      case Expr::Kind::VAR: {
        const Symbol &sym = *expr.symbol;
        Reg rd = reg(push(expr.line));
        if (sym.kind == SymKind::CONSTANT)
            loadLiteral(sym.const_value, rd, expr.line);
        else
            genScalarLoad(sym, rd);
        return;
      }

      case Expr::Kind::INDEX: {
        const Symbol &sym = *expr.symbol;
        genExpr(*expr.lhs); // index
        Reg ri = reg(depth_);
        genIndexAdjust(sym, ri, expr.line);
        Reg rb = reg(push(expr.line));
        genArrayBase(sym, rb, expr.line);
        bool is_char = sym.type.base == BaseType::CHAR;
        if (sym.byte_packed) {
            // The paper's load-byte sequence.
            emitRef(as::load(as::atShift(rb, ri, 2), rb), 8, is_char);
            emit(as::alu(AluOp::XC, ri, src(rb), ri));
        } else {
            emitRef(as::load(as::atIndex(rb, ri), ri), 32, is_char);
        }
        pop(); // base register
        return;
      }

      case Expr::Kind::BINOP: {
        // Boolean and/or in value context and relations use flat
        // evaluation; arithmetic folds small right immediates.
        if (expr.op == Tok::PLUS || expr.op == Tok::MINUS) {
            AluOp op = expr.op == Tok::PLUS ? AluOp::ADD : AluOp::SUB;
            genExpr(*expr.lhs);
            if (expr.rhs->kind == Expr::Kind::INT_LIT &&
                expr.rhs->int_value >= 0 &&
                expr.rhs->int_value <= 15) {
                Reg ra = reg(depth_);
                emit(as::alu(op, ra, lit(expr.rhs->int_value), ra));
                return;
            }
            genExpr(*expr.rhs);
            Reg rb = reg(depth_);
            Reg ra = reg(depth_ - 1);
            emit(as::alu(op, ra, src(rb), ra));
            pop();
            return;
        }
        if (expr.op == Tok::STAR || expr.op == Tok::KW_DIV ||
            expr.op == Tok::KW_MOD) {
            genExpr(*expr.lhs);
            genExpr(*expr.rhs);
            Reg rb = reg(depth_);
            Reg ra = reg(depth_ - 1);
            emit(as::mov(ra, kRuntimeArg0));
            emit(as::mov(rb, kRuntimeArg1));
            const char *fn = expr.op == Tok::STAR ? "$mul"
                : expr.op == Tok::KW_DIV ? "$div" : "$mod";
            emit(as::call(0, kLink), out_.intern(fn));
            emit(as::mov(kRuntimeResult, ra));
            pop();
            return;
        }
        if (expr.op == Tok::KW_AND || expr.op == Tok::KW_OR) {
            genExpr(*expr.lhs);
            genExpr(*expr.rhs);
            Reg rb = reg(depth_);
            Reg ra = reg(depth_ - 1);
            emit(as::alu(expr.op == Tok::KW_AND ? AluOp::AND : AluOp::OR,
                         ra, src(rb), ra));
            pop();
            return;
        }
        // Relational: the set-conditionally instruction (Figure 3).
        isa::Cond cond = relCond(expr.op, expr.line);
        genExpr(*expr.lhs);
        if (expr.rhs->kind == Expr::Kind::INT_LIT &&
            expr.rhs->int_value >= 0 && expr.rhs->int_value <= 15) {
            Reg ra = reg(depth_);
            emit(as::set(cond, ra, lit(expr.rhs->int_value), ra));
            return;
        }
        genExpr(*expr.rhs);
        Reg rb = reg(depth_);
        Reg ra = reg(depth_ - 1);
        emit(as::set(cond, ra, src(rb), ra));
        pop();
        return;
      }

      case Expr::Kind::UNOP: {
        genExpr(*expr.lhs);
        Reg ra = reg(depth_);
        if (expr.op == Tok::MINUS)
            emit(as::alu(AluOp::RSUB, ra, lit(0), ra));
        else
            emit(as::alu(AluOp::XOR, ra, lit(1), ra));
        return;
      }

      case Expr::Kind::CALL:
        genCall(expr);
        return;
    }
    support::panic("genExpr: bad kind");
}

void
CodeGen::genCall(const Expr &expr)
{
    const Symbol &sym = *expr.symbol;
    if (sym.routine_index < 0) {
        // ord/chr: the representation is already the value.
        genExpr(*expr.args[0]);
        return;
    }
    const Routine &routine =
        program_.routines[static_cast<size_t>(sym.routine_index)];
    std::vector<ExprPtr> const &args = expr.args;
    genRoutineCall("fn_" + routine.name, args, routine.is_function,
                   expr.line);
}

void
CodeGen::genRoutineCall(const std::string &fn_label,
                        const std::vector<ExprPtr> &args,
                        bool has_result, int line)
{
    int d = depth_;
    // Arguments stack on top of the live evaluation registers.
    for (const ExprPtr &arg : args)
        genExpr(*arg);

    // Spill the caller's live evaluation registers.
    for (int i = 1; i <= d; ++i)
        emit(as::store(reg(i), as::atDisp(spillSlot(i - 1), kSp)));
    // Slide the arguments down into r1..rn.
    for (int i = 1; d > 0 && i <= static_cast<int>(args.size()); ++i)
        emit(as::mov(reg(d + i), reg(i)));
    emit(as::call(0, kLink), out_.intern(fn_label));
    pop(static_cast<int>(args.size()));

    if (has_result && d > 0)
        emit(as::mov(reg(1), kScratch));
    for (int i = 1; i <= d; ++i)
        emit(as::load(as::atDisp(spillSlot(i - 1), kSp), reg(i)));
    if (has_result) {
        Reg rd = reg(push(line));
        if (d > 0)
            emit(as::mov(kScratch, rd));
        else if (rd != reg(1))
            emit(as::mov(reg(1), rd));
    }
}

void
CodeGen::genRelBranch(const Expr &expr, as::LabelId label,
                      bool branch_if_true)
{
    isa::Cond cond = relCond(expr.op, expr.line);
    if (!branch_if_true)
        cond = isa::negateCond(cond);

    genExpr(*expr.lhs);
    if (expr.rhs->kind == Expr::Kind::INT_LIT &&
        expr.rhs->int_value >= 0 && expr.rhs->int_value <= 15) {
        emit(as::branch(cond, reg(depth_), lit(expr.rhs->int_value)),
             label);
        pop();
        return;
    }
    genExpr(*expr.rhs);
    emit(as::branch(cond, reg(depth_ - 1), src(reg(depth_))), label);
    pop(2);
}

void
CodeGen::genCondBranch(const Expr &expr, as::LabelId label,
                       bool branch_if_true)
{
    switch (expr.kind) {
      case Expr::Kind::BINOP:
        switch (expr.op) {
          case Tok::EQ: case Tok::NE: case Tok::LT:
          case Tok::LE: case Tok::GT: case Tok::GE:
            genRelBranch(expr, label, branch_if_true);
            return;
          case Tok::KW_AND:
            if (!branch_if_true) {
                // Early-out: false if either side is false.
                genCondBranch(*expr.lhs, label, false);
                genCondBranch(*expr.rhs, label, false);
            } else {
                as::LabelId lfalse = freshLabel();
                genCondBranch(*expr.lhs, lfalse, false);
                genCondBranch(*expr.rhs, label, true);
                emitLabel(lfalse);
            }
            return;
          case Tok::KW_OR:
            if (branch_if_true) {
                genCondBranch(*expr.lhs, label, true);
                genCondBranch(*expr.rhs, label, true);
            } else {
                as::LabelId ltrue = freshLabel();
                genCondBranch(*expr.lhs, ltrue, true);
                genCondBranch(*expr.rhs, label, false);
                emitLabel(ltrue);
            }
            return;
          default:
            break;
        }
        break;
      case Expr::Kind::UNOP:
        if (expr.op == Tok::KW_NOT) {
            genCondBranch(*expr.lhs, label, !branch_if_true);
            return;
        }
        break;
      default:
        break;
    }

    // General boolean value: materialise and compare with zero.
    genExpr(expr);
    emit(as::branch(branch_if_true ? Cond::NE : Cond::EQ, reg(depth_),
                    lit(0)),
         label);
    pop();
}

void
CodeGen::genStmt(const Stmt &stmt)
{
    switch (stmt.kind) {
      case Stmt::Kind::EMPTY:
        genStmts(stmt.body);
        return;

      case Stmt::Kind::ASSIGN: {
        const Symbol &sym = *stmt.symbol;
        if (!stmt.index) {
            genExpr(*stmt.value);
            genScalarStore(sym, reg(depth_));
            pop();
            return;
        }
        // Array element assignment.
        genExpr(*stmt.value);
        Reg rv = reg(depth_);
        genExpr(*stmt.index);
        Reg ri = reg(depth_);
        genIndexAdjust(sym, ri, stmt.line);
        Reg rb = reg(push(stmt.line));
        genArrayBase(sym, rb, stmt.line);
        bool is_char = sym.type.base == BaseType::CHAR;
        if (sym.byte_packed) {
            // The paper's store-byte sequence (read-modify-write).
            emitRef(as::load(as::atShift(rb, ri, 2), kScratch), 0, false);
            emit(as::alu(AluOp::MTLO, ri, isa::kZeroReg));
            emit(as::alu(AluOp::IC, rv, kScratch));
            emitRef(as::store(kScratch, as::atShift(rb, ri, 2)), 8,
                    is_char);
        } else {
            emitRef(as::store(rv, as::atIndex(rb, ri)), 32, is_char);
        }
        pop(3);
        return;
      }

      case Stmt::Kind::IF: {
        as::LabelId lelse = freshLabel();
        genCondBranch(*stmt.cond, lelse, false);
        genStmts(stmt.body);
        if (stmt.else_body.empty()) {
            emitLabel(lelse);
        } else {
            as::LabelId lend = freshLabel();
            emit(as::branch(Cond::ALWAYS), lend);
            emitLabel(lelse);
            genStmts(stmt.else_body);
            emitLabel(lend);
        }
        return;
      }

      case Stmt::Kind::WHILE: {
        as::LabelId ltop = freshLabel();
        as::LabelId lend = freshLabel();
        emitLabel(ltop);
        genCondBranch(*stmt.cond, lend, false);
        genStmts(stmt.body);
        emit(as::branch(Cond::ALWAYS), ltop);
        emitLabel(lend);
        return;
      }

      case Stmt::Kind::REPEAT: {
        as::LabelId ltop = freshLabel();
        emitLabel(ltop);
        genStmts(stmt.body);
        genCondBranch(*stmt.cond, ltop, false);
        return;
      }

      case Stmt::Kind::FOR: {
        const Symbol &var = *stmt.symbol;
        int limit_slot = spillSlot(kEvalDepthMax + for_depth_);

        genExpr(*stmt.from);
        genScalarStore(var, reg(depth_));
        pop();
        genExpr(*stmt.to);
        emit(as::store(reg(depth_), as::atDisp(limit_slot, kSp)));
        pop();

        as::LabelId ltop = freshLabel();
        as::LabelId lend = freshLabel();
        emitLabel(ltop);
        Reg ri = reg(push(stmt.line));
        genScalarLoad(var, ri);
        Reg rl = reg(push(stmt.line));
        emit(as::load(as::atDisp(limit_slot, kSp), rl));
        emit(as::branch(stmt.downto ? Cond::LT : Cond::GT, ri, src(rl)),
             lend);
        pop(2);

        ++for_depth_;
        genStmts(stmt.body);
        --for_depth_;

        Reg rv = reg(push(stmt.line));
        genScalarLoad(var, rv);
        emit(as::alu(stmt.downto ? AluOp::SUB : AluOp::ADD, rv, lit(1),
                     rv));
        genScalarStore(var, rv);
        pop();
        emit(as::branch(Cond::ALWAYS), ltop);
        emitLabel(lend);
        return;
      }

      case Stmt::Kind::CASE: {
        genExpr(*stmt.cond);
        Reg ra = reg(depth_);
        as::LabelId lend = freshLabel();
        as::LabelId lelse =
            stmt.else_body.empty() ? lend : freshLabel();

        // One landing label per arm; map each label value to it.
        std::vector<as::LabelId> arm_labels;
        std::map<int32_t, as::LabelId> targets;
        int32_t lo = 0, hi = 0;
        size_t count = 0;
        for (const CaseArm &arm : stmt.arms) {
            arm_labels.push_back(freshLabel());
            for (int32_t v : arm.values) {
                if (count == 0 || v < lo)
                    lo = v;
                if (count == 0 || v > hi)
                    hi = v;
                targets[v] = arm_labels.back();
                ++count;
            }
        }
        int64_t span = static_cast<int64_t>(hi) - lo + 1;

        // Dense selectors dispatch through a jump table; sparse (or
        // tiny) ones fall back to a compare-and-branch chain. This is
        // the size/speed knob the dispatch experiment turns.
        bool use_table = options_.jump_tables && count >= 4 &&
                         span <= 2 * static_cast<int64_t>(count) &&
                         span <= 256;
        if (use_table) {
            addConst(ra, -lo, ra, stmt.line);
            if (span <= 15) {
                emit(as::branch(Cond::GEU, ra, lit(span)), lelse);
            } else {
                loadLiteral(static_cast<int32_t>(span), kScratch,
                            stmt.line);
                emit(as::branch(Cond::GEU, ra, src(kScratch)), lelse);
            }
            as::LabelId tlab = freshLabel();
            Reg rb = reg(push(stmt.line));
            emit(as::la(0, rb), tlab);
            emit(as::jtab(rb, ra), tlab);
            pop(2);
            emitLabel(tlab);
            for (int64_t v = lo; v <= hi; ++v) {
                auto it = targets.find(static_cast<int32_t>(v));
                out_.data(0, it != targets.end() ? it->second : lelse);
                ++out_.line;
            }
        } else {
            for (const auto &[v, label] : targets) {
                if (v >= 0 && v <= 15) {
                    emit(as::branch(Cond::EQ, ra, lit(v)), label);
                } else {
                    loadLiteral(v, kScratch, stmt.line);
                    emit(as::branch(Cond::EQ, ra, src(kScratch)), label);
                }
            }
            emit(as::branch(Cond::ALWAYS), lelse);
            pop();
        }

        for (size_t i = 0; i < stmt.arms.size(); ++i) {
            emitLabel(arm_labels[i]);
            genStmts(stmt.arms[i].body);
            emit(as::branch(Cond::ALWAYS), lend);
        }
        if (!stmt.else_body.empty()) {
            emitLabel(lelse);
            genStmts(stmt.else_body);
        }
        emitLabel(lend);
        return;
      }

      case Stmt::Kind::CALL: {
        const Symbol &sym = *stmt.symbol;
        if (sym.routine_index < 0) {
            if (stmt.name == "writeint") {
                genExpr(*stmt.args[0]);
                emit(as::mov(reg(depth_), kRuntimeArg0));
                emit(as::call(0, kLink), out_.intern("$writeint"));
                pop();
                return;
            }
            if (stmt.name == "writechar") {
                genExpr(*stmt.args[0]);
                emit(as::ldi(kConsole, kScratch));
                emit(as::store(reg(depth_), as::atDisp(0, kScratch)));
                pop();
                return;
            }
            fail(stmt.line, "unknown builtin '" + stmt.name + "'");
        }
        const Routine &routine =
            program_.routines[static_cast<size_t>(sym.routine_index)];
        genRoutineCall("fn_" + routine.name, stmt.args, false,
                       stmt.line);
        return;
      }
    }
    support::panic("genStmt: bad kind");
}

void
CodeGen::genStmts(const std::vector<StmtPtr> &body)
{
    for (const StmtPtr &stmt : body)
        genStmt(*stmt);
}

void
CodeGen::genRoutine(const Routine &routine, int index)
{
    frame_ = &sema_.frames[static_cast<size_t>(index)];
    for_depth_ = 0;
    depth_ = 0;

    emitLabel(out_.intern("fn_" + routine.name));
    adjustSp(frame_->size, true);
    emit(as::store(kLink, as::atDisp(0, kSp)));
    for (size_t i = 1; i <= routine.params.size(); ++i) {
        // Parameters arrive in r1..r4; their slots follow the link.
        int n = static_cast<int>(i);
        emit(as::store(reg(n), as::atDisp(n, kSp)));
    }
    genStmts(routine.body);
    if (routine.is_function) {
        // The result slot follows the params and locals.
        emit(as::load(as::atDisp(frame_->temps_base - 1, kSp), reg(1)));
    }
    emit(as::load(as::atDisp(0, kSp), kLink));
    adjustSp(frame_->size, false);
    emit(as::jump(isa::JumpKind::INDIRECT, 0, kLink));
}

void
CodeGen::emitRuntime()
{
    static const as::Unit runtime = as::parse(kRuntime).take();
    out_.append(runtime);
    // The listing holds the runtime text and one blank line after it.
    out_.line += static_cast<int>(
        std::count(kRuntime.begin(), kRuntime.end(), '\n') + 1);
}

void
CodeGen::emitGlobals()
{
    for (const Symbol &sym : sema_.symbols) {
        if (sym.kind == SymKind::GLOBAL_VAR) {
            emitLabel(out_.intern(sym.label));
            if (!out_.space(sym.sizeWords()))
                support::panic("plc: global '%s' exceeds .space",
                               sym.label.c_str());
            ++out_.line;
        }
    }
}

Result<as::Unit>
CodeGen::run()
{
    try {
        // Entry: set up the stack, run the main body, halt.
        const FrameInfo &main_frame = sema_.frames.back();
        frame_ = &main_frame;
        emit(as::li(options_.stack_top, kSp));
        adjustSp(main_frame.size, true);
        genStmts(program_.body);
        emit(as::special(isa::SpecialOp::HALT));

        for (size_t i = 0; i < program_.routines.size(); ++i)
            genRoutine(program_.routines[i], static_cast<int>(i));

        emitRuntime();
        emitGlobals();
        return out_.finish();
    } catch (const GenFailure &) {
        return error_;
    }
}

} // namespace

Result<as::Unit>
generateCode(const ProgramAst &program, const SemaResult &sema,
             const CompileOptions &options)
{
    CodeGen gen(program, sema, options);
    return gen.run();
}

Result<as::Unit>
compile(std::string_view source, const CompileOptions &options)
{
    auto ast = parseProgram(source);
    if (!ast.ok())
        return ast.error();
    ProgramAst program = ast.take();
    auto sema = analyze(program, options.layout);
    if (!sema.ok())
        return sema.error();
    return generateCode(program, sema.value(), options);
}

} // namespace mips::plc
