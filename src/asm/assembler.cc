#include "asm/assembler.h"

#include <cctype>
#include <cstdlib>
#include <optional>

#include "asm/builder.h"
#include "support/logging.h"
#include "support/strings.h"

namespace mips::assembler {

using isa::AluOp;
using isa::Cond;
using isa::JumpKind;
using isa::MemMode;
using isa::MemPiece;
using isa::Reg;
using isa::SpecialOp;
using isa::SpecialReg;
using support::Error;
using support::Result;
using support::trim;

namespace {

using Operands = std::vector<std::string>;

/** A parse error; parse() adds the line. */
Error
err(const std::string &message)
{
    return Error{message, 0, 0};
}

// --- Operand parsing --------------------------------------------------

std::optional<Reg>
parseReg(std::string_view text)
{
    text = trim(text);
    if (text.size() < 2 || text.size() > 3 || text[0] != 'r')
        return std::nullopt;
    int value = 0;
    for (size_t i = 1; i < text.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(text[i])))
            return std::nullopt;
        value = value * 10 + (text[i] - '0');
    }
    if (!isa::isValidReg(value))
        return std::nullopt;
    return static_cast<Reg>(value);
}

std::optional<int64_t>
parseNumber(std::string_view text)
{
    text = trim(text);
    if (text.empty())
        return std::nullopt;
    // Character literal.
    if (text.size() == 3 && text.front() == '\'' && text.back() == '\'')
        return static_cast<int64_t>(static_cast<unsigned char>(text[1]));
    std::string s(text);
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 0);
    if (end != s.c_str() + s.size())
        return std::nullopt;
    return v;
}

std::optional<int64_t>
parseImmediate(std::string_view text)
{
    text = trim(text);
    if (text.empty() || text[0] != '#')
        return std::nullopt;
    return parseNumber(text.substr(1));
}

/** Register or #constant (the builder range-checks the constant). */
std::optional<Operand>
parseOperand(std::string_view text)
{
    if (auto reg = parseReg(text))
        return Operand::ofReg(*reg);
    if (auto imm = parseImmediate(text))
        return Operand::ofImm(*imm);
    return std::nullopt;
}

/** The address operand of ld/st: @addr, @label (into `*target`),
 *  disp(base), (base+index) or (base+index>>shift). */
Result<MemPiece>
parseAddress(std::string_view text, std::string *target)
{
    text = trim(text);
    if (!text.empty() && text[0] == '@') {
        auto addr = parseNumber(text.substr(1));
        if (!addr && text.size() > 1)
            *target = std::string(text.substr(1)); // resolved by link()
        else if (!addr)
            return err("bad absolute address");
        return atAbsolute(addr.value_or(0));
    }

    size_t open = text.find('(');
    if (open == std::string_view::npos || text.back() != ')')
        return err("bad memory operand '" + std::string(text) + "'");
    std::string_view disp_text = trim(text.substr(0, open));
    std::string_view inner =
        trim(text.substr(open + 1, text.size() - open - 2));

    size_t plus = inner.find('+');
    if (plus != std::string_view::npos) {
        if (!disp_text.empty())
            return err("displacement not allowed with (base+index)");
        auto base = parseReg(inner.substr(0, plus));
        if (!base)
            return err("bad base register");
        std::string_view rest = trim(inner.substr(plus + 1));
        size_t shift_pos = rest.find(">>");
        if (shift_pos == std::string_view::npos) {
            auto index = parseReg(rest);
            if (!index)
                return err("bad index register");
            return atIndex(*base, *index);
        }
        auto index = parseReg(rest.substr(0, shift_pos));
        auto shift = parseNumber(rest.substr(shift_pos + 2));
        if (!index || !shift || *shift < 0 || *shift > 7)
            return err("bad base-shifted operand");
        return atShift(*base, *index, static_cast<uint8_t>(*shift));
    }

    // disp(base); empty displacement means 0.
    auto base = parseReg(inner);
    if (!base)
        return err("bad base register '" + std::string(inner) + "'");
    int64_t disp = 0;
    if (!disp_text.empty()) {
        auto d = parseNumber(disp_text);
        if (!d)
            return err("bad displacement '" + std::string(disp_text) + "'");
        disp = *d;
    }
    return atDisp(disp, *base);
}

// --- Statement families -----------------------------------------------
// Each checks the operand count and shapes, then hands the operands to
// the builder; `target` receives a label operand.

InstResult
parseAluLike(const std::string &mnemonic, const Operands &ops)
{
    if (support::startsWith(mnemonic, "set") && mnemonic.size() > 3) {
        Cond cond;
        if (!isa::parseCond(mnemonic.substr(3), &cond))
            return err("unknown comparison '" + mnemonic.substr(3) + "'");
        if (ops.size() != 3)
            return err("set<cond> needs 3 operands: rs, src2, rd");
        auto rs = parseReg(ops[0]);
        auto src2 = parseOperand(ops[1]);
        auto rd = parseReg(ops[2]);
        if (!rs || !src2 || !rd)
            return err("bad set<cond> operands");
        return set(cond, *rs, *src2, *rd);
    }

    // #imm, rd
    static const std::pair<const char *, InstResult (*)(int64_t, Reg)>
        kImmForms[] = {{"movi", movi}, {"li", li}, {"ldi", ldi}};
    for (const auto &[name, build] : kImmForms) {
        if (mnemonic != name)
            continue;
        if (ops.size() != 2) {
            return err(mnemonic + " needs 2 operands: #imm" +
                       (mnemonic == "movi" ? "8" : "") + ", rd");
        }
        auto imm = parseImmediate(ops[0]);
        auto rd = parseReg(ops[1]);
        if (!imm || !rd)
            return err("bad " + mnemonic + " operands");
        return build(*imm, *rd);
    }

    if (mnemonic == "mtlo" || mnemonic == "mflo") {
        if (ops.size() != 1)
            return err(mnemonic + " needs 1 operand");
        auto r = parseReg(ops[0]);
        if (!r)
            return err("bad register");
        return mnemonic == "mtlo" ? alu(AluOp::MTLO, *r, isa::kZeroReg)
                                  : alu(AluOp::MFLO, isa::kZeroReg, *r);
    }

    // rs, rd (mov expands to add rs, #0, rd)
    static const std::pair<const char *, AluOp> kTwoOps[] = {
        {"mov", AluOp::ADD}, {"not", AluOp::NOT}, {"ic", AluOp::IC},
        {"mstep", AluOp::MSTEP}, {"dstep", AluOp::DSTEP},
    };
    for (const auto &[name, op] : kTwoOps) {
        if (mnemonic != name)
            continue;
        if (ops.size() != 2)
            return err(mnemonic + " needs 2 operands: rs, rd");
        auto rs = parseReg(ops[0]);
        auto rd = parseReg(ops[1]);
        if (!rs || !rd)
            return err("bad " + mnemonic + " operands");
        return op == AluOp::ADD ? mov(*rs, *rd) : alu(op, *rs, *rd);
    }

    // rs, src2, rd
    static const std::pair<const char *, AluOp> kThreeOps[] = {
        {"add", AluOp::ADD}, {"sub", AluOp::SUB}, {"rsub", AluOp::RSUB},
        {"and", AluOp::AND}, {"or", AluOp::OR}, {"xor", AluOp::XOR},
        {"sll", AluOp::SLL}, {"srl", AluOp::SRL}, {"sra", AluOp::SRA},
        {"xc", AluOp::XC},
    };
    for (const auto &[name, op] : kThreeOps) {
        if (mnemonic != name)
            continue;
        if (ops.size() != 3)
            return err(mnemonic + " needs 3 operands: rs, src2, rd");
        auto rs = parseReg(ops[0]);
        auto src2 = parseOperand(ops[1]);
        auto rd = parseReg(ops[2]);
        if (!src2) {
            return err("bad operand '" + ops[1] +
                       "' (expected register or #constant)");
        }
        if (!rs || !rd)
            return err("bad " + mnemonic + " operands");
        return alu(op, *rs, *src2, *rd);
    }

    return err("unknown mnemonic '" + mnemonic + "'");
}

InstResult
parseMem(const std::string &mnemonic, const Operands &ops,
         std::string *target)
{
    if (mnemonic == "la") {
        // Load address: a long immediate whose value is a label.
        if (ops.size() != 2)
            return err("la needs 2 operands: label, rd");
        auto rd = parseReg(ops[1]);
        if (!rd)
            return err("bad la destination register");
        auto num = parseNumber(ops[0]);
        if (!num)
            *target = ops[0];
        return la(num.value_or(0), *rd);
    }

    bool is_store = mnemonic == "st";
    if (ops.size() != 2)
        return err(mnemonic + " needs 2 operands");

    // ld addr, rd  /  st rd, addr
    const std::string &addr_text = is_store ? ops[1] : ops[0];
    const std::string &data_text = is_store ? ops[0] : ops[1];
    auto data = parseReg(data_text);
    if (!data)
        return err("bad data register '" + data_text + "'");
    auto address = parseAddress(addr_text, target);
    if (!address.ok())
        return address.error();
    return is_store ? store(*data, address.value())
                    : load(address.value(), *data);
}

/** `addr` is the branch's own address, for a numeric target. */
InstResult
parseBranch(const std::string &mnemonic, const Operands &ops,
            uint32_t addr, std::string *target)
{
    Cond cond = Cond::ALWAYS;
    if (mnemonic != "bra" && !isa::parseCond(mnemonic.substr(1), &cond))
        return err("unknown branch '" + mnemonic + "'");
    std::optional<Reg> rs = isa::kZeroReg;
    std::optional<Operand> src2 = Operand{};
    if (cond == Cond::ALWAYS || cond == Cond::NEVER) {
        if (ops.size() != 1)
            return err(mnemonic + " needs 1 operand: target");
    } else {
        if (ops.size() != 3)
            return err(mnemonic + " needs 3 operands: rs, src2, target");
        rs = parseReg(ops[0]);
        src2 = parseOperand(ops[1]);
        if (!rs || !src2)
            return err("bad branch operands");
    }
    // A numeric target is an absolute address, fixed whatever the
    // reorganizer later moves.
    auto num = parseNumber(ops.back());
    if (!num)
        *target = ops.back();
    int64_t offset = num ? *num - (static_cast<int64_t>(addr) + 1) : 0;
    return branch(cond, *rs, *src2, offset);
}

InstResult
parseJump(const std::string &mnemonic, const Operands &ops,
          std::string *target)
{
    if (mnemonic == "jtab") {
        // jtab (base+index)[, table_label] — PC = mem[base + index].
        // The label names the table's first .word entry; it is not
        // encoded (the base register already holds the address) but
        // travels as item metadata for the verifier's successor sets.
        if (ops.empty() || ops.size() > 2)
            return err("jtab needs (base+index) and an optional "
                       "table label");
        auto address = parseAddress(ops[0], target);
        if (!address.ok() || address.value().mode != MemMode::BASE_INDEX)
            return err("jtab needs a (base+index) operand");
        if (ops.size() == 2)
            *target = ops[1];
        return jtab(address.value().base, address.value().index);
    }

    bool is_call = mnemonic == "call";
    std::optional<Reg> link;
    if (is_call) {
        if (ops.size() != 2)
            return err("call needs 2 operands: target, link");
        link = parseReg(ops[1]);
        if (!link)
            return err("bad link register");
    } else if (ops.size() != 1) {
        return err("jmp needs 1 operand");
    }

    std::string_view tv = trim(ops[0]);
    if (!tv.empty() && tv.front() == '(' && tv.back() == ')') {
        auto reg = parseReg(tv.substr(1, tv.size() - 2));
        if (!reg)
            return err("bad indirect jump register");
        return jump(is_call ? JumpKind::CALL_INDIRECT : JumpKind::INDIRECT,
                    0, *reg, link.value_or(isa::kLinkReg));
    }

    auto num = parseNumber(tv);
    if (!num)
        *target = std::string(tv);
    return jump(is_call ? JumpKind::CALL_DIRECT : JumpKind::DIRECT,
                static_cast<uint32_t>(num.value_or(0)), isa::kZeroReg,
                link.value_or(isa::kLinkReg));
}

InstResult
parseSpecial(const std::string &mnemonic, const Operands &ops)
{
    if (mnemonic == "trap") {
        if (ops.size() != 1)
            return err("trap needs 1 operand: #code");
        auto code = parseImmediate(ops[0]);
        if (!code)
            return err("bad trap code");
        return trap(*code);
    }
    // mfs sreg, rd  /  mts rs, sreg
    if (ops.size() != 2)
        return err(mnemonic + " needs 2 operands");
    bool is_mfs = mnemonic == "mfs";
    const std::string &sreg_text = is_mfs ? ops[0] : ops[1];
    auto reg = parseReg(is_mfs ? ops[1] : ops[0]);
    if (!reg)
        return err("bad register");
    for (int i = 0; i < isa::kNumSpecialRegs; ++i) {
        auto sr = static_cast<SpecialReg>(i);
        if (isa::specialRegName(sr) == support::toLower(sreg_text))
            return special(is_mfs ? SpecialOp::MFS : SpecialOp::MTS, *reg,
                           sr);
    }
    return err("unknown special register '" + sreg_text + "'");
}

/** One piece at `addr`: lex the mnemonic and operands, dispatch by
 *  family. */
InstResult
parsePiece(std::string_view text, uint32_t addr, std::string *target)
{
    text = trim(text);
    size_t sp = text.find_first_of(" \t");
    std::string mnemonic = support::toLower(
        sp == std::string_view::npos ? text : text.substr(0, sp));
    std::string_view rest =
        sp == std::string_view::npos ? "" : trim(text.substr(sp));

    Operands ops;
    if (!rest.empty()) {
        for (std::string_view piece : support::split(rest, ','))
            ops.emplace_back(trim(piece));
    }

    if (mnemonic == "nop")
        return nop();
    if (mnemonic == "halt")
        return special(SpecialOp::HALT);
    if (mnemonic == "rfe")
        return special(SpecialOp::RFE);
    if (mnemonic == "trap" || mnemonic == "mfs" || mnemonic == "mts")
        return parseSpecial(mnemonic, ops);
    if (mnemonic == "la" || mnemonic == "ld" || mnemonic == "st")
        return parseMem(mnemonic, ops, target);
    Cond c;
    if (mnemonic == "bra" || (support::startsWith(mnemonic, "b") &&
                              isa::parseCond(mnemonic.substr(1), &c)))
        return parseBranch(mnemonic, ops, addr, target);
    if (mnemonic == "jmp" || mnemonic == "call" || mnemonic == "jtab")
        return parseJump(mnemonic, ops, target);

    return parseAluLike(mnemonic, ops);
}

/** A statement: one piece, or "alu | mem" (either order) packed. */
InstResult
parseInstruction(std::string_view text, uint32_t addr,
                 std::string *target)
{
    size_t bar = text.find('|');
    if (bar == std::string_view::npos)
        return parsePiece(text, addr, target);

    auto first = parsePiece(text.substr(0, bar), addr, target);
    if (!first.ok())
        return first;
    if (!target->empty())
        return err("branches cannot be packed");
    auto second = parsePiece(text.substr(bar + 1), addr, target);
    if (!second.ok())
        return second;
    if (!target->empty())
        return err("branches cannot be packed");
    return pack(first.value(), second.value());
}

Result<bool>
parseDirective(std::string_view body, UnitBuilder &unit)
{
    auto tokens = support::splitWhitespace(body);
    std::string name = support::toLower(tokens[0]);

    if (name == ".org") {
        if (tokens.size() != 2)
            return err(".org needs an address");
        auto addr = parseNumber(tokens[1]);
        if (!addr || *addr < 0)
            return err("bad .org address");
        if (!unit.empty())
            return err(".org must precede all instructions");
        unit.setOrigin(static_cast<uint32_t>(*addr));
        return true;
    }
    if (name == ".word") {
        if (tokens.size() != 2)
            return err(".word needs a value");
        // A symbolic entry is the label's address, filled in by link()
        // (jump-table entries are built from these).
        auto value = parseNumber(tokens[1]);
        unit.data(static_cast<uint32_t>(value.value_or(0)),
                  value ? kNoLabel : unit.intern(tokens[1]));
        return true;
    }
    if (name == ".space") {
        if (tokens.size() != 2)
            return err(".space needs a count");
        auto count = parseNumber(tokens[1]);
        if (!count || !unit.space(*count))
            return err("bad .space count");
        return true;
    }
    if (name == ".asciiw") {
        size_t q1 = body.find('"');
        size_t q2 = body.rfind('"');
        if (q1 == std::string_view::npos || q2 <= q1)
            return err(".asciiw needs a quoted string");
        std::string_view text = body.substr(q1 + 1, q2 - q1 - 1);
        // Pack four characters per word, low byte first; always
        // emit the terminating zero byte.
        uint32_t word = 0;
        int nbytes = 0;
        for (size_t i = 0; i <= text.size(); ++i) {
            uint8_t c = i < text.size()
                ? static_cast<uint8_t>(text[i]) : 0;
            word |= static_cast<uint32_t>(c) << (8 * nbytes);
            if (++nbytes == 4 || i == text.size()) {
                unit.data(word);
                word = 0;
                nbytes = 0;
            }
        }
        return true;
    }
    if (name == ".noreorder" || name == ".reorder") {
        unit.no_reorder = name == ".noreorder";
        return true;
    }
    return err("unknown directive '" + name + "'");
}

/** One source line into `unit`. */
Result<bool>
parseLine(std::string_view line, UnitBuilder &unit)
{
    // Strip comment.
    size_t semi = line.find(';');
    if (semi != std::string_view::npos)
        line = line.substr(0, semi);
    line = trim(line);
    if (line.empty())
        return true;

    // Leading labels: IDENT ':' (possibly several).
    while (true) {
        size_t colon = line.find(':');
        if (colon == std::string_view::npos)
            break;
        std::string_view head = trim(line.substr(0, colon));
        bool is_ident = !head.empty();
        for (char c : head) {
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '_' && c != '$' && c != '.') {
                is_ident = false;
                break;
            }
        }
        if (!is_ident)
            break;
        unit.label(head);
        line = trim(line.substr(colon + 1));
        if (line.empty())
            return true;
    }

    if (line[0] == '.')
        return parseDirective(line, unit);

    std::string target;
    auto inst = parseInstruction(line, unit.next(), &target);
    if (!inst.ok())
        return inst.error();
    unit.add(inst.value(), unit.intern(target));
    return true;
}

} // namespace

Result<Unit>
parse(std::string_view source)
{
    UnitBuilder unit;
    for (std::string_view raw : support::split(source, '\n')) {
        auto ok = parseLine(raw, unit);
        if (!ok.ok())
            return Error{ok.error().message, unit.line, 0};
        ++unit.line;
    }
    return unit.finish();
}

Result<Program>
assemble(std::string_view source)
{
    auto unit = parse(source);
    if (!unit.ok())
        return unit.error();
    return link(unit.value());
}

Program
assembleOrDie(std::string_view source)
{
    auto prog = assemble(source);
    if (!prog.ok())
        support::panic("assembly failed: %s", prog.error().str().c_str());
    return prog.take();
}

} // namespace mips::assembler
