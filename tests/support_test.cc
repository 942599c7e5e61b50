/**
 * @file
 * Unit tests for the support library.
 */
#include <gtest/gtest.h>

#include <string>

#include "support/bits.h"
#include "support/cores.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"

namespace mips::support {
namespace {

TEST(Bits, MaskBasics)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(4), 0xfu);
    EXPECT_EQ(mask(32), 0xffffffffu);
    EXPECT_EQ(mask(64), ~0ULL);
}

TEST(Bits, ExtractAndInsert)
{
    EXPECT_EQ(bits(0xdeadbeef, 31, 28), 0xdu);
    EXPECT_EQ(bits(0xdeadbeef, 3, 0), 0xfu);
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);

    uint64_t w = insertBits(0, 31, 28, 0xd);
    w = insertBits(w, 27, 24, 0xe);
    EXPECT_EQ(bits(w, 31, 24), 0xdeu);

    // Insert must not spill outside the field.
    EXPECT_EQ(insertBits(0, 7, 4, 0xfff), 0xf0u);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(sext(0xf, 4), -1);
    EXPECT_EQ(sext(0x7, 4), 7);
    EXPECT_EQ(sext(0x8, 4), -8);
    EXPECT_EQ(sext(0xff, 8), -1);
    EXPECT_EQ(sext(0x1fffff, 21), -1);
    EXPECT_EQ(sext(0x0fffff, 21), 0x0fffff);
}

TEST(Bits, FitsSignedUnsigned)
{
    EXPECT_TRUE(fitsUnsigned(15, 4));
    EXPECT_FALSE(fitsUnsigned(16, 4));
    EXPECT_TRUE(fitsSigned(7, 4));
    EXPECT_TRUE(fitsSigned(-8, 4));
    EXPECT_FALSE(fitsSigned(8, 4));
    EXPECT_FALSE(fitsSigned(-9, 4));
}

TEST(Bits, AddOverflow)
{
    bool ov = false;
    EXPECT_EQ(addOverflow(1, 2, &ov), 3u);
    EXPECT_FALSE(ov);
    addOverflow(0x7fffffff, 1, &ov);
    EXPECT_TRUE(ov);
    addOverflow(0x80000000, 0xffffffff, &ov); // INT_MIN + (-1)
    EXPECT_TRUE(ov);
    EXPECT_EQ(addOverflow(0xffffffff, 1, &ov), 0u); // -1 + 1 = 0
    EXPECT_FALSE(ov);
}

TEST(Bits, SubOverflow)
{
    bool ov = false;
    EXPECT_EQ(subOverflow(5, 3, &ov), 2u);
    EXPECT_FALSE(ov);
    subOverflow(0x80000000, 1, &ov); // INT_MIN - 1
    EXPECT_TRUE(ov);
    subOverflow(0x7fffffff, 0xffffffff, &ov); // INT_MAX - (-1)
    EXPECT_TRUE(ov);
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(Strings, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");

    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, SplitWhitespace)
{
    auto parts = splitWhitespace("  ld  2(r4),  r1 ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "ld");
    EXPECT_EQ(parts[1], "2(r4),");
    EXPECT_EQ(parts[2], "r1");
}

TEST(Strings, Misc)
{
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_TRUE(startsWith("hello", "he"));
    EXPECT_FALSE(startsWith("he", "hello"));
    EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(jsonEscape("plain.s"), "plain.s");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\ny\tz"), "x\\ny\\tz");
    EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(Strprintf, Formats)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%.1f%%", 24.82), "24.8%");
}

TEST(Strprintf, LengthsAroundTheStackBuffer)
{
    // The first pass formats into 256 bytes (255 characters and the
    // terminator); longer results are formatted a second time.
    for (size_t len : {0u, 1u, 254u, 255u, 256u, 257u, 10000u}) {
        SCOPED_TRACE(len);
        std::string body(len, 'x');
        if (len > 0)
            body.back() = 'y'; // the last character survives
        std::string s = strprintf("%s", body.c_str());
        EXPECT_EQ(s.size(), len);
        EXPECT_EQ(s, body);
    }
    std::string padded = strprintf("%0*d|%s", 9998, 7, "ab");
    EXPECT_EQ(padded.size(), 10001u);
    EXPECT_EQ(padded.substr(9994), "0007|ab");
}

TEST(Strprintf, FormatErrorIsReported)
{
    // The C locale cannot encode U+20AC, so vsnprintf fails (EILSEQ).
    EXPECT_EQ(strprintf("%ls", L"\u20ac"), "<format error>");
}

TEST(BucketDist, CountsAndFractions)
{
    BucketDist d({"a", "b", "c"});
    d.add("a", 3);
    d.add("b");
    EXPECT_EQ(d.total(), 4u);
    EXPECT_EQ(d.count("a"), 3u);
    EXPECT_EQ(d.count("c"), 0u);
    EXPECT_DOUBLE_EQ(d.fraction("a"), 0.75);
    EXPECT_DOUBLE_EQ(d.fraction("c"), 0.0);
}

TEST(BucketDist, EmptyTotal)
{
    BucketDist d({"x"});
    EXPECT_DOUBLE_EQ(d.fraction("x"), 0.0);
}

TEST(MeanStat, WeightedMean)
{
    Mean m;
    m.add(2.0);
    m.add(4.0);
    EXPECT_DOUBLE_EQ(m.value(), 3.0);
    m.add(10.0, 2.0);
    EXPECT_DOUBLE_EQ(m.value(), 6.5);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = r.range(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(TableTest, RenderAligned)
{
    TextTable t("Title");
    t.setHeader({"col1", "column2"});
    t.addRow({"a", "b"});
    t.addSeparator();
    t.addRow({"longer", "x"});
    std::string s = t.render();
    EXPECT_NE(s.find("Title"), std::string::npos);
    EXPECT_NE(s.find("col1"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableTest, PctAndNum)
{
    EXPECT_EQ(TextTable::pct(0.248), "24.8%");
    EXPECT_EQ(TextTable::num(4.156, 3), "4.156");
}

TEST(Cores, QuotaParsing)
{
    EXPECT_EQ(quotaCores("max 100000"), 0u);     // v2: no limit
    EXPECT_EQ(quotaCores("150000 100000"), 1u);  // 1.5 cores round down
    EXPECT_EQ(quotaCores("50000 100000"), 1u);   // under one core: 1
    EXPECT_EQ(quotaCores("400000 100000\n"), 4u);
    EXPECT_EQ(quotaCores("-1 100000"), 0u);      // v1: no limit
    EXPECT_EQ(quotaCores(" "), 0u);              // files absent
    EXPECT_GE(effectiveCores(), 1u);
}

} // namespace
} // namespace mips::support
