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
