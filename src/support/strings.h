/**
 * @file
 * Small string utilities shared by the assembler and the compiler.
 */
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mips::support {

/** Strip leading and trailing whitespace. */
std::string_view trim(std::string_view s);

/** Split on a single-character delimiter; empty fields are preserved. */
std::vector<std::string_view> split(std::string_view s, char delim);

/** Split into non-empty whitespace-separated tokens. */
std::vector<std::string_view> splitWhitespace(std::string_view s);

/** ASCII lowercase copy. */
std::string toLower(std::string_view s);

/** True if `s` begins with `prefix`. */
bool startsWith(std::string_view s, std::string_view prefix);

/** Join the elements with `sep` between them. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** Escape `s` for the inside of a JSON string literal: quotes,
 *  backslash and control characters. */
std::string jsonEscape(std::string_view s);

} // namespace mips::support
