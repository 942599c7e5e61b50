#include "plc/sema.h"

#include <algorithm>
#include <set>

#include "asm/builder.h"
#include "isa/mem.h"
#include "support/logging.h"

namespace mips::plc {

using support::Error;
using support::Result;

/** Maximum scalar value parameters (they travel in r1..r4). */
constexpr int kMaxParams = 4;

/** Expression evaluation registers r1..r8: maximum tree depth. */
constexpr int kEvalDepth = 8;

/** Largest frame. Scalar and spill slots are addressed by a signed
 *  displacement from the stack pointer, and the spill slots come last,
 *  so every word of the frame must be within its reach. (The stack
 *  adjustment by the frame size, a long immediate, then fits too.) */
constexpr int64_t kMaxFrameWords = int64_t{1} << (isa::kDispBits - 1);

bool
typeBytePacked(const Type &type, Layout layout)
{
    if (!type.is_array || type.base == BaseType::INTEGER)
        return false;
    return type.packed || layout == Layout::BYTE_ALLOCATED;
}

namespace {

/** Words a variable of `type` occupies, in 64 bits so that extreme
 *  bounds cannot overflow before the storage limits reject them. */
int64_t
storageWords(const Type &type, bool byte_packed)
{
    if (!type.is_array)
        return 1;
    int64_t elements = int64_t{type.hi} - type.lo + 1;
    return byte_packed ? (elements + 3) / 4 : elements;
}

} // namespace

int32_t
Symbol::sizeWords() const
{
    if (!type.is_array)
        return 1;
    if (byte_packed)
        return (type.elementCount() + 3) / 4;
    return type.elementCount();
}

namespace {

struct SemaFailure
{
};

class Analyzer
{
  public:
    Analyzer(ProgramAst &program, Layout layout)
        : program_(program), layout_(layout)
    {
        result_.layout = layout;
    }

    Result<SemaResult> run();

  private:
    [[noreturn]] void fail(int line, const std::string &message);
    [[noreturn]] void failFrame(int line, const Routine &routine,
                                int64_t words);

    Symbol *addSymbol(std::map<std::string, Symbol *> *scope,
                      Symbol sym, int line);
    Symbol *lookup(const std::string &name, int line);

    void declareBuiltins();
    void declareGlobals();
    void analyzeRoutine(Routine &routine, int routine_index);
    void analyzeBody(std::vector<StmtPtr> &body);
    void analyzeStmt(Stmt &stmt);
    BaseType analyzeExpr(Expr &expr, int depth);
    int32_t constCaseLabel(Expr &expr, BaseType selector);
    void checkScalar(const Symbol *sym, int line);

    ProgramAst &program_;
    Layout layout_;
    SemaResult result_;
    Error error_;

    std::map<std::string, Symbol *> *local_scope_ = nullptr;
    std::map<std::string, Symbol *> locals_;
    const Routine *current_routine_ = nullptr;
    Symbol *current_result_ = nullptr;
    int for_temps_ = 0; ///< FOR-limit slots used in current routine
    int max_for_temps_ = 0;
};

void
Analyzer::fail(int line, const std::string &message)
{
    error_ = Error{message, line, 0};
    throw SemaFailure{};
}

Symbol *
Analyzer::addSymbol(std::map<std::string, Symbol *> *scope, Symbol sym,
                    int line)
{
    if (scope->count(sym.name))
        fail(line, "duplicate declaration of '" + sym.name + "'");
    result_.symbols.push_back(std::move(sym));
    Symbol *stored = &result_.symbols.back();
    (*scope)[stored->name] = stored;
    return stored;
}

void
Analyzer::failFrame(int line, const Routine &routine, int64_t words)
{
    fail(line, support::strprintf(
                   "the frame of '%s' needs %lld words; a frame may "
                   "take at most %lld", routine.name.c_str(),
                   static_cast<long long>(words),
                   static_cast<long long>(kMaxFrameWords)));
}

Symbol *
Analyzer::lookup(const std::string &name, int line)
{
    if (local_scope_) {
        auto it = local_scope_->find(name);
        if (it != local_scope_->end())
            return it->second;
    }
    auto it = result_.global_scope.find(name);
    if (it == result_.global_scope.end())
        fail(line, "undeclared identifier '" + name + "'");
    return it->second;
}

void
Analyzer::declareBuiltins()
{
    auto builtin = [this](const std::string &name, BaseType ret) {
        Symbol sym;
        sym.kind = SymKind::ROUTINE;
        sym.name = name;
        sym.routine_index = -1;
        sym.type.base = ret;
        result_.symbols.push_back(std::move(sym));
        result_.global_scope[name] = &result_.symbols.back();
    };
    builtin("writeint", BaseType::INTEGER);
    builtin("writechar", BaseType::INTEGER);
    builtin("ord", BaseType::INTEGER);
    builtin("chr", BaseType::CHAR);
}

void
Analyzer::declareGlobals()
{
    for (const ConstDecl &decl : program_.consts) {
        Symbol sym;
        sym.kind = SymKind::CONSTANT;
        sym.name = decl.name;
        sym.type.base = decl.is_char ? BaseType::CHAR
                                     : BaseType::INTEGER;
        sym.const_value = decl.value;
        addSymbol(&result_.global_scope, std::move(sym), decl.line);
    }
    for (const VarDecl &decl : program_.globals) {
        Symbol sym;
        sym.kind = SymKind::GLOBAL_VAR;
        sym.name = decl.name;
        sym.type = decl.type;
        sym.byte_packed = typeBytePacked(decl.type, layout_);
        sym.label = "g_" + decl.name;
        int64_t words = storageWords(sym.type, sym.byte_packed);
        if (words > assembler::kMaxSpaceWords) {
            fail(decl.line,
                 support::strprintf(
                     "global '%s' takes %lld words; a global may take "
                     "at most %lld", decl.name.c_str(),
                     static_cast<long long>(words),
                     static_cast<long long>(assembler::kMaxSpaceWords)));
        }
        addSymbol(&result_.global_scope, std::move(sym), decl.line);
        result_.global_words +=
            result_.global_scope[decl.name]->sizeWords();
    }
    for (size_t i = 0; i < program_.routines.size(); ++i) {
        const Routine &routine = program_.routines[i];
        if (routine.params.size() > kMaxParams) {
            fail(routine.line,
                 support::strprintf("more than %d parameters",
                                    kMaxParams));
        }
        Symbol sym;
        sym.kind = SymKind::ROUTINE;
        sym.name = routine.name;
        sym.routine_index = static_cast<int>(i);
        sym.type.base = routine.return_type;
        addSymbol(&result_.global_scope, std::move(sym), routine.line);
    }
}

void
Analyzer::checkScalar(const Symbol *sym, int line)
{
    if (sym->type.is_array)
        fail(line, "'" + sym->name + "' is an array");
}

BaseType
Analyzer::analyzeExpr(Expr &expr, int depth)
{
    if (depth > kEvalDepth)
        fail(expr.line, "expression too deeply nested");

    switch (expr.kind) {
      case Expr::Kind::INT_LIT:
        return expr.type = BaseType::INTEGER;
      case Expr::Kind::CHAR_LIT:
        return expr.type = BaseType::CHAR;
      case Expr::Kind::BOOL_LIT:
        return expr.type = BaseType::BOOLEAN;

      case Expr::Kind::VAR: {
        Symbol *sym = lookup(expr.name, expr.line);
        if (sym->kind == SymKind::ROUTINE)
            fail(expr.line, "routine '" + expr.name +
                 "' used as a variable");
        checkScalar(sym, expr.line);
        expr.symbol = sym;
        return expr.type = sym->type.base;
      }

      case Expr::Kind::INDEX: {
        Symbol *sym = lookup(expr.name, expr.line);
        if (!sym->type.is_array)
            fail(expr.line, "'" + expr.name + "' is not an array");
        expr.symbol = sym;
        if (analyzeExpr(*expr.lhs, depth) != BaseType::INTEGER)
            fail(expr.line, "array index must be an integer");
        return expr.type = sym->type.base;
      }

      case Expr::Kind::BINOP: {
        BaseType lt = analyzeExpr(*expr.lhs, depth);
        BaseType rt = analyzeExpr(*expr.rhs, depth + 1);
        switch (expr.op) {
          case Tok::PLUS:
          case Tok::MINUS:
          case Tok::STAR:
          case Tok::KW_DIV:
          case Tok::KW_MOD:
            if (lt != BaseType::INTEGER || rt != BaseType::INTEGER)
                fail(expr.line, "arithmetic needs integer operands");
            return expr.type = BaseType::INTEGER;
          case Tok::KW_AND:
          case Tok::KW_OR:
            if (lt != BaseType::BOOLEAN || rt != BaseType::BOOLEAN)
                fail(expr.line, "and/or need boolean operands");
            return expr.type = BaseType::BOOLEAN;
          case Tok::EQ:
          case Tok::NE:
          case Tok::LT:
          case Tok::LE:
          case Tok::GT:
          case Tok::GE:
            if (lt != rt)
                fail(expr.line, "comparison of mixed types");
            return expr.type = BaseType::BOOLEAN;
          default:
            fail(expr.line, "bad binary operator");
        }
      }

      case Expr::Kind::UNOP: {
        BaseType t = analyzeExpr(*expr.lhs, depth);
        if (expr.op == Tok::MINUS) {
            if (t != BaseType::INTEGER)
                fail(expr.line, "unary minus needs an integer");
            return expr.type = BaseType::INTEGER;
        }
        if (t != BaseType::BOOLEAN)
            fail(expr.line, "'not' needs a boolean");
        return expr.type = BaseType::BOOLEAN;
      }

      case Expr::Kind::CALL: {
        Symbol *sym = lookup(expr.name, expr.line);
        if (sym->kind != SymKind::ROUTINE)
            fail(expr.line, "'" + expr.name + "' is not a function");
        expr.symbol = sym;
        if (sym->routine_index < 0) {
            // Builtins: ord/chr are functions of one scalar.
            if (expr.name == "ord" || expr.name == "chr") {
                if (expr.args.size() != 1)
                    fail(expr.line, expr.name + " needs one argument");
                analyzeExpr(*expr.args[0], depth + 1);
                return expr.type = expr.name == "ord"
                    ? BaseType::INTEGER : BaseType::CHAR;
            }
            fail(expr.line, "'" + expr.name +
                 "' cannot be used in an expression");
        }
        const Routine &routine =
            program_.routines[static_cast<size_t>(sym->routine_index)];
        if (!routine.is_function)
            fail(expr.line, "procedure '" + expr.name +
                 "' used in an expression");
        if (expr.args.size() != routine.params.size())
            fail(expr.line, "wrong number of arguments");
        for (size_t i = 0; i < expr.args.size(); ++i) {
            BaseType t = analyzeExpr(*expr.args[i],
                                     depth + static_cast<int>(i) + 1);
            if (t != routine.params[i].type)
                fail(expr.line, support::strprintf(
                    "argument %zu has the wrong type", i + 1));
        }
        return expr.type = routine.return_type;
      }
    }
    support::panic("analyzeExpr: bad kind");
}

/**
 * Evaluate a case label to its constant value, checking that its type
 * matches the selector. Accepts literals, named constants, and a
 * unary minus over an integer literal.
 */
int32_t
Analyzer::constCaseLabel(Expr &expr, BaseType selector)
{
    switch (expr.kind) {
      case Expr::Kind::INT_LIT:
        expr.type = BaseType::INTEGER;
        if (selector != BaseType::INTEGER)
            fail(expr.line, "case label type does not match selector");
        return expr.int_value;

      case Expr::Kind::CHAR_LIT:
        expr.type = BaseType::CHAR;
        if (selector != BaseType::CHAR)
            fail(expr.line, "case label type does not match selector");
        return static_cast<unsigned char>(expr.char_value);

      case Expr::Kind::VAR: {
        Symbol *sym = lookup(expr.name, expr.line);
        if (sym->kind != SymKind::CONSTANT)
            fail(expr.line, "case label must be a constant");
        expr.symbol = sym;
        expr.type = sym->type.base;
        if (expr.type != selector)
            fail(expr.line, "case label type does not match selector");
        return sym->const_value;
      }

      case Expr::Kind::UNOP:
        if (expr.op == Tok::MINUS &&
            expr.lhs->kind == Expr::Kind::INT_LIT) {
            expr.type = BaseType::INTEGER;
            if (selector != BaseType::INTEGER)
                fail(expr.line,
                     "case label type does not match selector");
            return -expr.lhs->int_value;
        }
        break;

      default:
        break;
    }
    fail(expr.line, "case label must be a constant");
}

void
Analyzer::analyzeStmt(Stmt &stmt)
{
    switch (stmt.kind) {
      case Stmt::Kind::EMPTY:
        analyzeBody(stmt.body);
        return;

      case Stmt::Kind::ASSIGN: {
        Symbol *sym = lookup(stmt.name, stmt.line);
        // Function-result assignment: `name := e` inside `name`.
        if (sym->kind == SymKind::ROUTINE) {
            if (!current_routine_ || current_routine_->name != stmt.name)
                fail(stmt.line, "cannot assign to routine '" +
                     stmt.name + "'");
            sym = current_result_;
        }
        stmt.symbol = sym;
        if (sym->kind == SymKind::CONSTANT)
            fail(stmt.line, "cannot assign to constant '" +
                 stmt.name + "'");
        BaseType target;
        if (stmt.index) {
            if (!sym->type.is_array)
                fail(stmt.line, "'" + stmt.name + "' is not an array");
            if (analyzeExpr(*stmt.index, 1) != BaseType::INTEGER)
                fail(stmt.line, "array index must be an integer");
            target = sym->type.base;
        } else {
            checkScalar(sym, stmt.line);
            target = sym->type.base;
        }
        if (analyzeExpr(*stmt.value, stmt.index ? 2 : 1) != target)
            fail(stmt.line, "assignment of mixed types");
        return;
      }

      case Stmt::Kind::IF:
      case Stmt::Kind::WHILE:
        if (analyzeExpr(*stmt.cond, 1) != BaseType::BOOLEAN)
            fail(stmt.line, "condition must be boolean");
        analyzeBody(stmt.body);
        analyzeBody(stmt.else_body);
        return;

      case Stmt::Kind::REPEAT:
        analyzeBody(stmt.body);
        if (analyzeExpr(*stmt.cond, 1) != BaseType::BOOLEAN)
            fail(stmt.line, "until condition must be boolean");
        return;

      case Stmt::Kind::FOR: {
        Symbol *sym = lookup(stmt.name, stmt.line);
        checkScalar(sym, stmt.line);
        if (sym->type.base != BaseType::INTEGER ||
            sym->kind == SymKind::CONSTANT) {
            fail(stmt.line, "for-loop variable must be an integer "
                 "variable");
        }
        stmt.symbol = sym;
        if (analyzeExpr(*stmt.from, 1) != BaseType::INTEGER ||
            analyzeExpr(*stmt.to, 2) != BaseType::INTEGER) {
            fail(stmt.line, "for-loop bounds must be integers");
        }
        ++for_temps_;
        max_for_temps_ = std::max(max_for_temps_, for_temps_);
        analyzeBody(stmt.body);
        --for_temps_;
        return;
      }

      case Stmt::Kind::CASE: {
        BaseType sel = analyzeExpr(*stmt.cond, 1);
        if (sel != BaseType::INTEGER && sel != BaseType::CHAR)
            fail(stmt.line, "case selector must be an integer or char");
        if (stmt.arms.empty())
            fail(stmt.line, "case statement has no arms");
        std::set<int32_t> seen;
        for (CaseArm &arm : stmt.arms) {
            for (ExprPtr &label : arm.labels) {
                int32_t v = constCaseLabel(*label, sel);
                if (!seen.insert(v).second)
                    fail(label->line, support::strprintf(
                        "duplicate case label %d", v));
                arm.values.push_back(v);
            }
            analyzeBody(arm.body);
        }
        analyzeBody(stmt.else_body);
        return;
      }

      case Stmt::Kind::CALL: {
        Symbol *sym = lookup(stmt.name, stmt.line);
        if (sym->kind != SymKind::ROUTINE)
            fail(stmt.line, "'" + stmt.name + "' is not a procedure");
        stmt.symbol = sym;
        if (sym->routine_index < 0) {
            if (stmt.name == "writeint" || stmt.name == "writechar") {
                if (stmt.args.size() != 1)
                    fail(stmt.line, stmt.name + " needs one argument");
                BaseType t = analyzeExpr(*stmt.args[0], 1);
                if (stmt.name == "writechar" && t != BaseType::CHAR)
                    fail(stmt.line, "writechar needs a char");
                if (stmt.name == "writeint" && t != BaseType::INTEGER)
                    fail(stmt.line, "writeint needs an integer");
                return;
            }
            fail(stmt.line, "'" + stmt.name +
                 "' cannot be called as a procedure");
        }
        const Routine &routine =
            program_.routines[static_cast<size_t>(sym->routine_index)];
        if (stmt.args.size() != routine.params.size())
            fail(stmt.line, "wrong number of arguments");
        for (size_t i = 0; i < stmt.args.size(); ++i) {
            BaseType t = analyzeExpr(*stmt.args[i],
                                     static_cast<int>(i) + 1);
            if (t != routine.params[i].type)
                fail(stmt.line, support::strprintf(
                    "argument %zu has the wrong type", i + 1));
        }
        return;
      }
    }
    support::panic("analyzeStmt: bad kind");
}

void
Analyzer::analyzeBody(std::vector<StmtPtr> &body)
{
    for (StmtPtr &stmt : body)
        analyzeStmt(*stmt);
}

void
Analyzer::analyzeRoutine(Routine &routine, int routine_index)
{
    locals_.clear();
    local_scope_ = &locals_;
    current_routine_ = routine_index >= 0 ? &routine : nullptr;
    current_result_ = nullptr;
    for_temps_ = 0;
    max_for_temps_ = 0;

    // Frame: [0] saved link, then params, locals, result, temps.
    int offset = 1;
    for (const Param &param : routine.params) {
        Symbol sym;
        sym.kind = SymKind::PARAM;
        sym.name = param.name;
        sym.type.base = param.type;
        sym.frame_offset = offset++;
        addSymbol(&locals_, std::move(sym), routine.line);
    }
    for (const ConstDecl &decl : routine.consts) {
        Symbol sym;
        sym.kind = SymKind::CONSTANT;
        sym.name = decl.name;
        sym.type.base = decl.is_char ? BaseType::CHAR
                                     : BaseType::INTEGER;
        sym.const_value = decl.value;
        addSymbol(&locals_, std::move(sym), decl.line);
    }
    for (const VarDecl &decl : routine.locals) {
        Symbol sym;
        sym.kind = SymKind::LOCAL_VAR;
        sym.name = decl.name;
        sym.type = decl.type;
        sym.byte_packed = typeBytePacked(decl.type, layout_);
        sym.frame_offset = offset;
        int64_t words = storageWords(sym.type, sym.byte_packed);
        if (offset + words + kEvalDepth > kMaxFrameWords)
            failFrame(decl.line, routine, offset + words + kEvalDepth);
        offset += static_cast<int>(words);
        addSymbol(&locals_, std::move(sym), decl.line);
    }
    if (routine.is_function && routine_index >= 0) {
        Symbol sym;
        sym.kind = SymKind::RESULT;
        sym.name = "$result";
        sym.type.base = routine.return_type;
        sym.frame_offset = offset++;
        result_.symbols.push_back(std::move(sym));
        current_result_ = &result_.symbols.back();
    }

    analyzeBody(routine.body);

    FrameInfo frame;
    frame.temps_base = offset;
    // Eval-stack spill slots (one per register) plus FOR-limit slots.
    frame.temps_count = kEvalDepth + max_for_temps_;
    frame.size = offset + frame.temps_count;
    if (frame.size > kMaxFrameWords)
        failFrame(routine.line, routine, frame.size);
    result_.frames[static_cast<size_t>(routine_index >= 0
        ? routine_index : static_cast<int>(program_.routines.size()))] =
        frame;

    local_scope_ = nullptr;
    current_routine_ = nullptr;
    current_result_ = nullptr;
}

Result<SemaResult>
Analyzer::run()
{
    try {
        declareBuiltins();
        declareGlobals();
        result_.frames.resize(program_.routines.size() + 1);
        for (size_t i = 0; i < program_.routines.size(); ++i)
            analyzeRoutine(program_.routines[i], static_cast<int>(i));

        // The main body is analyzed as a parameterless routine.
        Routine main_routine;
        main_routine.name = "$main";
        main_routine.body = std::move(program_.body);
        analyzeRoutine(main_routine, -1);
        program_.body = std::move(main_routine.body);

        return std::move(result_);
    } catch (const SemaFailure &) {
        return error_;
    }
}

} // namespace

Result<SemaResult>
analyze(ProgramAst &program, Layout layout)
{
    Analyzer analyzer(program, layout);
    return analyzer.run();
}

} // namespace mips::plc
