#include "workload/analyzers.h"

#include <algorithm>
#include <cstdlib>

#include "sim/cpu.h"

namespace mips::workload {

using plc::BaseType;
using plc::Expr;
using plc::ProgramAst;
using plc::Stmt;

namespace {

// ------------------------------------------------ Table 1: constants

void
bucketConstant(int64_t value, ConstantDist *out)
{
    uint64_t mag = static_cast<uint64_t>(std::llabs(value));
    const char *bucket = mag == 0 ? "0"
        : mag == 1 ? "1"
        : mag == 2 ? "2"
        : mag <= 15 ? "3-15"
        : mag <= 255 ? "16-255"
        : ">255";
    out->dist.add(bucket);
}

void
constantsInExpr(const Expr &expr, ConstantDist *out)
{
    switch (expr.kind) {
      case Expr::Kind::INT_LIT:
        bucketConstant(expr.int_value, out);
        break;
      case Expr::Kind::CHAR_LIT:
        bucketConstant(static_cast<unsigned char>(expr.char_value),
                       out);
        break;
      default:
        break;
    }
    if (expr.lhs)
        constantsInExpr(*expr.lhs, out);
    if (expr.rhs)
        constantsInExpr(*expr.rhs, out);
    for (const auto &arg : expr.args)
        constantsInExpr(*arg, out);
}

void
constantsInStmt(const Stmt &stmt, ConstantDist *out)
{
    for (const Expr *e : {stmt.index.get(), stmt.value.get(),
                          stmt.cond.get(), stmt.from.get(),
                          stmt.to.get()}) {
        if (e)
            constantsInExpr(*e, out);
    }
    for (const auto &arg : stmt.args)
        constantsInExpr(*arg, out);
    for (const auto &inner : stmt.body)
        constantsInStmt(*inner, out);
    for (const auto &inner : stmt.else_body)
        constantsInStmt(*inner, out);
}

// ------------------------------------ Table 4: boolean expressions

/** Count relational and boolean operators inside one expression. */
uint64_t
boolOperators(const Expr &expr)
{
    uint64_t count = 0;
    if (expr.kind == Expr::Kind::BINOP) {
        switch (expr.op) {
          case plc::Tok::EQ: case plc::Tok::NE: case plc::Tok::LT:
          case plc::Tok::LE: case plc::Tok::GT: case plc::Tok::GE:
          case plc::Tok::KW_AND: case plc::Tok::KW_OR:
            ++count;
            break;
          default:
            break;
        }
    }
    if (expr.kind == Expr::Kind::UNOP && expr.op == plc::Tok::KW_NOT)
        ++count;
    if (expr.lhs)
        count += boolOperators(*expr.lhs);
    if (expr.rhs)
        count += boolOperators(*expr.rhs);
    for (const auto &arg : expr.args)
        count += boolOperators(*arg);
    return count;
}

void
boolExprsInStmt(const Stmt &stmt, BoolExprShape *out)
{
    // A bare boolean variable used as a condition still costs one
    // comparison on every machine (test against zero), so each
    // expression contributes at least one operator.
    if (stmt.cond) {
        ++out->expressions;
        ++out->ending_jump;
        out->operators += std::max<uint64_t>(1, boolOperators(*stmt.cond));
    }
    if (stmt.kind == Stmt::Kind::ASSIGN && stmt.value &&
        stmt.value->type == BaseType::BOOLEAN) {
        ++out->expressions;
        ++out->ending_store;
        out->operators +=
            std::max<uint64_t>(1, boolOperators(*stmt.value));
    }
    for (const auto &inner : stmt.body)
        boolExprsInStmt(*inner, out);
    for (const auto &inner : stmt.else_body)
        boolExprsInStmt(*inner, out);
}

} // namespace

void
collectConstants(const ProgramAst &program, ConstantDist *out)
{
    for (const plc::ConstDecl &decl : program.consts)
        bucketConstant(decl.value, out);
    for (const plc::Routine &routine : program.routines) {
        for (const plc::ConstDecl &decl : routine.consts)
            bucketConstant(decl.value, out);
        for (const auto &stmt : routine.body)
            constantsInStmt(*stmt, out);
    }
    for (const auto &stmt : program.body)
        constantsInStmt(*stmt, out);
}

void
collectBoolExprs(const ProgramAst &program, BoolExprShape *out)
{
    for (const plc::Routine &routine : program.routines)
        for (const auto &stmt : routine.body)
            boolExprsInStmt(*stmt, out);
    for (const auto &stmt : program.body)
        boolExprsInStmt(*stmt, out);
}

void
collectCcSavings(const assembler::Unit &unit, CcSavings *out)
{
    using isa::AluOp;
    const auto &items = unit.items;
    for (size_t i = 0; i < items.size(); ++i) {
        const assembler::Item &item = items[i];
        if (item.is_data)
            continue;

        // Identify a comparison and its first operand register.
        bool is_compare = false;
        isa::Reg compared = isa::kZeroReg;
        bool against_zero = false;
        if (item.inst.branch) {
            const isa::BranchPiece &b = *item.inst.branch;
            if (b.cond != isa::Cond::ALWAYS &&
                b.cond != isa::Cond::NEVER) {
                is_compare = true;
                compared = b.rs;
                against_zero = (b.src2.is_imm && b.src2.imm4 == 0) ||
                               (!b.src2.is_imm &&
                                b.src2.reg == isa::kZeroReg);
            }
        } else if (item.inst.alu && item.inst.alu->op == AluOp::SET) {
            const isa::AluPiece &a = *item.inst.alu;
            is_compare = true;
            compared = a.rs;
            against_zero = (a.src2.is_imm && a.src2.imm4 == 0) ||
                           (!a.src2.is_imm &&
                            a.src2.reg == isa::kZeroReg);
        }
        if (!is_compare)
            continue;
        ++out->compares;
        if (!against_zero || i == 0)
            continue;

        // Did the immediately preceding instruction produce the value?
        const assembler::Item &prev = items[i - 1];
        if (prev.is_data)
            continue;
        isa::RegUse use = isa::regUse(prev.inst);
        if (!use.writesGpr(compared))
            continue;

        bool producer_is_op = false;
        bool producer_is_move = false;
        if (prev.inst.alu) {
            switch (prev.inst.alu->op) {
              case AluOp::ADD:
                // `add rs, #0, rd` is the move idiom.
                producer_is_move = prev.inst.alu->src2.is_imm &&
                                   prev.inst.alu->src2.imm4 == 0;
                producer_is_op = !producer_is_move;
                break;
              case AluOp::MOVI8:
                producer_is_move = true;
                break;
              case AluOp::SET:
                producer_is_op = true;
                break;
              default:
                producer_is_op = true;
                break;
            }
        }
        if (prev.inst.mem && !prev.inst.mem->is_store)
            producer_is_move = true; // a load "moves" the value

        if (producer_is_op) {
            ++out->saved_by_ops;
            ++out->saved_with_moves;
        } else if (producer_is_move) {
            ++out->saved_with_moves;
            ++out->moves_for_cc;
        }
    }
}

void
accumulateRefs(const assembler::Unit &final_unit, uint32_t origin,
               const sim::Cpu &cpu, RefPattern *out)
{
    const auto &items = final_unit.items;
    for (size_t i = 0; i < items.size(); ++i) {
        const assembler::Item &item = items[i];
        if (item.ref_size == 0)
            continue;
        uint64_t n = cpu.execCount(origin + static_cast<uint32_t>(i));
        if (n == 0)
            continue;
        bool is_store = item.inst.mem && item.inst.mem->is_store;
        bool is_byte = item.ref_size == 8;
        if (is_store) {
            (is_byte ? out->stores8 : out->stores32) += n;
            if (item.ref_is_char)
                (is_byte ? out->char_stores8 : out->char_stores32) += n;
        } else {
            (is_byte ? out->loads8 : out->loads32) += n;
            if (item.ref_is_char)
                (is_byte ? out->char_loads8 : out->char_loads32) += n;
        }
    }
}

} // namespace mips::workload
