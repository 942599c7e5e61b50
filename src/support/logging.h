/**
 * @file
 * Status-message and fatal-error helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for unrecoverable
 * user-level errors (bad input, bad configuration).
 */
#pragma once

#include <cstdarg>
#include <string>

namespace mips::support {

/**
 * Report an unrecoverable user-level error and exit(1).
 * Use for bad input or configuration, not for internal bugs.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation and abort().
 * Use only for conditions that indicate a bug in this library.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list ap);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace mips::support
