#include "verify/diagnostics.h"

#include <algorithm>

#include "isa/disasm.h"
#include "isa/registers.h"
#include "support/logging.h"
#include "support/strings.h"

namespace mips::verify {

const char *
codeName(Code code)
{
    switch (code) {
      case Code::HZ001: return "HZ001";
      case Code::HZ002: return "HZ002";
      case Code::HZ003: return "HZ003";
      case Code::HZ004: return "HZ004";
      case Code::HZ005: return "HZ005";
      case Code::HZ006: return "HZ006";
      case Code::LT001: return "LT001";
      case Code::LT002: return "LT002";
      case Code::LT003: return "LT003";
      case Code::VF001: return "VF001";
      case Code::VF002: return "VF002";
      case Code::TV001: return "TV001";
      case Code::TV002: return "TV002";
      case Code::TV003: return "TV003";
      case Code::TV004: return "TV004";
      case Code::TV005: return "TV005";
      case Code::TV006: return "TV006";
      case Code::TV090: return "TV-UNKNOWN";
      case Code::CC001: return "CC001";
      case Code::CC002: return "CC002";
      case Code::CC003: return "CC003";
      case Code::CC004: return "CC004";
      case Code::LT004: return "LT004";
      case Code::MS001: return "MS001";
      case Code::MS002: return "MS002";
      case Code::MS003: return "MS003";
      case Code::MS004: return "MS004";
      case Code::MS005: return "MS005";
      case Code::MS006: return "MS006";
      case Code::VF003: return "VF003";
      case Code::VF004: return "VF004";
      case Code::HZ007: return "HZ007";
      case Code::MS007: return "MS007";
      case Code::TV007: return "TV007";
      case Code::TV008: return "TV008";
      case Code::VF005: return "VF005";
    }
    support::panic("codeName: bad code %d", static_cast<int>(code));
}

const char *
codeDescription(Code code)
{
    switch (code) {
      case Code::HZ001:
        return "an instruction reads a register in the delay slot of "
               "the load that writes it (the pipeline has no interlock: "
               "it reads the stale value)";
      case Code::HZ002:
        return "a control transfer sits in the delay slot of a branch "
               "or direct jump (architecturally undefined when the "
               "outer transfer is taken)";
      case Code::HZ003:
        return "a control transfer sits in the two-slot delay shadow "
               "of an indirect jump (architecturally undefined)";
      case Code::HZ004:
        return "the ALU and memory pieces packed into one word depend "
               "on each other; packed pieces execute simultaneously "
               "and must be independent";
      case Code::HZ005:
        return "a .noreorder region was altered by the reorganizer "
               "(pseudo-op contract: such sequences pass through "
               "verbatim)";
      case Code::HZ006:
        return "a load's delay slot falls into statically unknown code "
               "(end of unit, call target, or indirect-jump target); "
               "the consumer cannot be checked";
      case Code::LT001:
        return "a register is read on a path where no instruction has "
               "written it";
      case Code::LT002:
        return "a computed result is overwritten or dropped on every "
               "path before any instruction reads it";
      case Code::LT003:
        return "instructions that no execution path reaches";
      case Code::VF001:
        return "the instruction word violates the encoding rules";
      case Code::VF002:
        return "a label operand names no label defined in the unit";
      case Code::TV001:
        return "symbolic execution proves the reorganized unit leaves "
               "different values in the general registers than the "
               "legal input unit at a paired region exit";
      case Code::TV002:
        return "symbolic execution proves the reorganized unit's "
               "memory state (ordered store log modulo provably "
               "disjoint reordering) diverges from the legal input "
               "unit at a paired region exit";
      case Code::TV003:
        return "a paired region exit transfers control to a different "
               "target (or a different kind of exit) than the legal "
               "input unit";
      case Code::TV004:
        return "a paired conditional exit branches on a provably "
               "different condition than the legal input unit";
      case Code::TV005:
        return "the validator cannot pair regions of the input and "
               "output units (missing label, mismatched fenced-region "
               "structure, or mismatched exit counts)";
      case Code::TV006:
        return "symbolic execution proves the LO special register or "
               "the ordered system-state effect log diverges at a "
               "paired region exit";
      case Code::TV090:
        return "translation validation was inconclusive for a region "
               "(expression budget exhausted or an unsupported "
               "construct); the region is NOT proven equivalent";
      case Code::CC001:
        return "a function returns while a register the configured "
               "calling convention declares callee-saved may still "
               "hold a value the function wrote (clobbered without a "
               "matching restore load)";
      case Code::CC002:
        return "a function overwrites the link register after entry "
               "(a nested call or an explicit write) and reaches an "
               "indirect return through it without restoring the saved "
               "return address first";
      case Code::CC003:
        return "a function provably returns with a non-zero net stack-"
               "pointer adjustment, or paths with provably different "
               "adjustments join at a call or return (frames must "
               "balance across every call edge)";
      case Code::CC004:
        return "a call target reads an argument register on entry, "
               "but no definition of that register reaches the call "
               "site in the caller";
      case Code::LT004:
        return "a function (or labeled region that is never fallen "
               "into) is unreachable through the whole-program call "
               "graph: never called, never branched to, and its "
               "address is never taken";
      case Code::MS001:
        return "the value-range analysis proves (error/MUST) or cannot "
               "exclude on a narrowed range (warning/MAY) that a load "
               "or store's effective word address lies outside physical "
               "memory [0, mem_words)";
      case Code::MS002:
        return "a base-shifted word access discards provably non-zero "
               "low bits of its byte index: the hardware silently reads "
               "the containing word, so a word-sized object accessed "
               "through an unaligned byte pointer is truncated";
      case Code::MS003:
        return "with memory mapping enabled, a reference's system-"
               "virtual address falls in the gap between the two valid "
               "segments (the hardware raises ADDRESS_ERROR)";
      case Code::MS004:
        return "an ADD/SUB/RSUB provably (error/MUST) or possibly on a "
               "narrowed range (warning/MAY) overflows signed 32-bit "
               "arithmetic while overflow traps are enabled";
      case Code::MS005:
        return "the worst-case stack depth, rolled up over the call "
               "graph, exceeds the configured --stack-budget (recursive "
               "call-graph cycles make the depth unbounded)";
      case Code::MS006:
        return "every execution path from the unit entry to an exit "
               "passes through an instruction that must fault: the "
               "program cannot complete without taking an exception";
      case Code::VF003:
        return "a table-dispatch jump carries no table label, or its "
               "label does not start a contiguous run of relocated "
               ".word entries inside the unit (the successor set "
               "cannot be recovered statically)";
      case Code::VF004:
        return "a jump-table entry relocates to an address outside the "
               "unit's code (or onto a data word): dispatching through "
               "it executes an unpredictable decode";
      case Code::HZ007:
        return "a store sits in the two-slot delay shadow of a "
               "table-dispatch jump; the table fetch overlaps the "
               "shadow on the data port, so a store that may alias the "
               "table makes the fetched target undefined";
      case Code::MS007:
        return "the value-range analysis proves (error/MUST) or cannot "
               "exclude on a narrowed range (warning/MAY) that a "
               "table-dispatch fetch at base + index reads outside the "
               "jump table named by the instruction";
      case Code::TV007:
        return "symbolic execution proves a paired table-dispatch exit "
               "fetches its target from a different address (or a "
               "different table) than the legal input unit";
      case Code::TV008:
        return "the jump tables named by a paired table-dispatch exit "
               "resolve to different entry-label sequences, so some "
               "case arm dispatches to a different target";
      case Code::VF005:
        return "a label is defined more than once in the unit: "
               "references resolve to the first definition, and the "
               "unit does not link";
    }
    support::panic("codeDescription: bad code %d",
                   static_cast<int>(code));
}

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::NOTE: return "note";
      case Severity::WARNING: return "warning";
      case Severity::ERROR: return "error";
    }
    support::panic("severityName: bad severity %d",
                   static_cast<int>(severity));
}

void
DiagnosticEngine::report(Code code, Severity severity, size_t item_index,
                         std::string message)
{
    Diagnostic d;
    d.code = code;
    d.severity = severity;
    d.item_index = item_index;
    if (unit_ && item_index != kNoItem &&
        item_index < unit_->items.size()) {
        d.pc = unit_->origin + static_cast<uint32_t>(item_index);
        d.source_line = unit_->items[item_index].source_line;
    }
    d.message = std::move(message);
    ++counts_[static_cast<int>(severity)];
    diags_.push_back(std::move(d));
}

std::string
regListNames(uint16_t mask)
{
    std::string out;
    for (int r = 0; r < isa::kNumRegs; ++r) {
        if ((mask >> r) & 1) {
            if (!out.empty())
                out += ", ";
            out += isa::regName(static_cast<isa::Reg>(r));
        }
    }
    return out;
}

void
DiagnosticEngine::sort()
{
    std::stable_sort(diags_.begin(), diags_.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.item_index != b.item_index)
                             return a.item_index < b.item_index;
                         return static_cast<int>(a.code) <
                                static_cast<int>(b.code);
                     });
}

std::string
renderText(const std::vector<Diagnostic> &diags,
           const assembler::Unit *unit, const std::string &name)
{
    std::string out;
    for (const Diagnostic &d : diags) {
        std::string loc = name;
        if (d.item_index != kNoItem) {
            loc += support::strprintf(":%u", d.pc);
            if (d.source_line > 0)
                loc += support::strprintf(" (line %d)", d.source_line);
        }
        out += support::strprintf("%s: %s: %s: %s", loc.c_str(),
                                  severityName(d.severity),
                                  codeName(d.code), d.message.c_str());
        if (unit && d.item_index != kNoItem &&
            d.item_index < unit->items.size()) {
            const assembler::Item &item = unit->items[d.item_index];
            if (item.is_data) {
                out += support::strprintf("  [.word %u]",
                                          item.data_value);
            } else {
                out += "  [" + isa::disasm(item.inst, d.pc) + "]";
            }
        }
        out += "\n";
    }
    return out;
}

std::string
renderJson(const std::vector<Diagnostic> &diags, const std::string &name,
           double elapsed_ms)
{
    size_t errors = 0, warnings = 0, notes = 0;
    size_t per_code[kNumCodes] = {};
    for (const Diagnostic &d : diags) {
        switch (d.severity) {
          case Severity::ERROR: ++errors; break;
          case Severity::WARNING: ++warnings; break;
          case Severity::NOTE: ++notes; break;
        }
        ++per_code[static_cast<int>(d.code)];
    }
    std::string out = "{\n";
    out += "  \"schema\": 1,\n";
    out += support::strprintf("  \"unit\": \"%s\",\n",
                              support::jsonEscape(name).c_str());
    if (elapsed_ms >= 0.0)
        out += support::strprintf("  \"elapsed_ms\": %.3f,\n", elapsed_ms);
    out += support::strprintf(
        "  \"errors\": %zu,\n  \"warnings\": %zu,\n  \"notes\": %zu,\n",
        errors, warnings, notes);
    out += "  \"summary\": {";
    bool first_code = true;
    for (int c = 0; c < kNumCodes; ++c) {
        if (!per_code[c])
            continue;
        out += support::strprintf("%s\"%s\": %zu",
                                  first_code ? "" : ", ",
                                  codeName(static_cast<Code>(c)),
                                  per_code[c]);
        first_code = false;
    }
    out += "},\n";
    out += "  \"diagnostics\": [";
    for (size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        out += (i ? ",\n    " : "\n    ");
        out += support::strprintf(
            "{\"code\": \"%s\", \"severity\": \"%s\", ",
            codeName(d.code), severityName(d.severity));
        if (d.item_index == kNoItem) {
            out += "\"pc\": null, \"item\": null, ";
        } else {
            out += support::strprintf("\"pc\": %u, \"item\": %zu, ",
                                      d.pc, d.item_index);
        }
        out += support::strprintf(
            "\"source_line\": %d, \"message\": \"%s\"}", d.source_line,
            support::jsonEscape(d.message).c_str());
    }
    out += diags.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace mips::verify
