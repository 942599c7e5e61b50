#include "support/logging.h"

#include <cstdio>
#include <cstdlib>

namespace mips::support {

std::string
vstrprintf(const char *fmt, va_list ap)
{
    // Format once into a stack buffer; only a longer result is
    // formatted a second time, straight into the string.
    char buf[256];
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(buf, sizeof buf, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return "<format error>";
    size_t len = static_cast<size_t>(needed);
    if (len < sizeof buf)
        return std::string(buf, len);
    std::string out(len, '\0');
    std::vsnprintf(out.data(), len + 1, fmt, ap);
    return out;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrprintf(fmt, ap);
    va_end(ap);
    return s;
}

namespace {

void
emit(const char *prefix, const char *fmt, va_list ap)
{
    std::string body = vstrprintf(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", prefix, body.c_str());
}

} // namespace

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

} // namespace mips::support
