/**
 * @file
 * Unit tests for the support library: logging, statistics, tables,
 * the deterministic RNG, fixed-point helpers, and FNV-1a.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "support/fixed_point.hpp"
#include "support/fnv.hpp"
#include "support/logging.hpp"
#include "support/memory_image.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace cs {
namespace {

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(CS_PANIC("boom ", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(CS_FATAL("bad input"), FatalError);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(CS_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(CS_ASSERT(1 + 1 == 3, "broken"), PanicError);
}

TEST(Stats, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geometricMean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_NEAR(geometricMean({1.0, 10.0}), 3.1622776601, 1e-9);
}

TEST(Stats, GeometricMeanRejectsBadInput)
{
    EXPECT_THROW(geometricMean({}), PanicError);
    EXPECT_THROW(geometricMean({1.0, -1.0}), PanicError);
    EXPECT_THROW(geometricMean({0.0}), PanicError);
}

TEST(Stats, ArithmeticMeanAndExtremes)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
    EXPECT_DOUBLE_EQ(minOf({3.0, 1.0, 2.0}), 1.0);
    EXPECT_DOUBLE_EQ(maxOf({3.0, 1.0, 2.0}), 3.0);
}

TEST(Stats, CounterSet)
{
    CounterSet counters;
    EXPECT_EQ(counters.get("x"), 0u);
    counters.bump("x");
    counters.bump("x", 4);
    counters.bump("y");
    EXPECT_EQ(counters.get("x"), 5u);
    EXPECT_EQ(counters.get("y"), 1u);
    counters.clear();
    EXPECT_EQ(counters.get("x"), 0u);
}

TEST(Table, RendersAlignedRows)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1.00"});
    table.addRow({"b", "10.50"});
    std::ostringstream os;
    table.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("10.50"), std::string::npos);
    // Header separator present.
    EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, RowArityChecked)
{
    TextTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), PanicError);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Table, TextBarClamps)
{
    EXPECT_EQ(textBar(1.5, 10), std::string(10, '#'));
    EXPECT_EQ(textBar(-0.5, 10), std::string(10, ' '));
    EXPECT_EQ(textBar(0.5, 10), "#####     ");
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformDoubleInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformDouble(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(9);
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = items;
    rng.shuffle(items);
    std::sort(items.begin(), items.end());
    EXPECT_EQ(items, orig);
}

TEST(FixedPoint, RoundTrip)
{
    EXPECT_EQ(fromFixed(toFixed(1.0)), 1.0);
    EXPECT_NEAR(fromFixed(toFixed(0.7071)), 0.7071, 1.0 / 256);
}

TEST(FixedPoint, FixMulMatchesScaledProduct)
{
    std::int32_t a = toFixed(1.5), b = toFixed(2.0);
    EXPECT_NEAR(fromFixed(fixMul(a, b)), 3.0, 1.0 / 128);
    // Rounding, not truncation.
    EXPECT_EQ(fixMul(1, 128), 1); // 1/256 * 0.5 rounds up to 1/256
}

TEST(FixedPoint, Saturate16)
{
    EXPECT_EQ(saturate16(40000), 32767);
    EXPECT_EQ(saturate16(-40000), -32768);
    EXPECT_EQ(saturate16(1234), 1234);
}

TEST(MemoryImage, ZeroDefaultAndStores)
{
    MemoryImage mem;
    EXPECT_EQ(mem.loadInt(100), 0);
    EXPECT_EQ(mem.loadFloat(100), 0.0);
    mem.storeInt(100, 42);
    EXPECT_EQ(mem.loadInt(100), 42);
    EXPECT_EQ(mem.loadFloat(100), 42.0); // coherent views
    mem.storeFloat(101, 2.5);
    EXPECT_EQ(mem.loadFloat(101), 2.5);
    EXPECT_EQ(mem.loadInt(101), 2);
    EXPECT_EQ(mem.size(), 2u);
}

TEST(MemoryImage, WordEquality)
{
    EXPECT_TRUE(Word::fromInt(3) == Word::fromInt(3));
    EXPECT_FALSE(Word::fromInt(3) == Word::fromInt(4));
    EXPECT_TRUE(Word::fromFloat(1.5) == Word::fromFloat(1.5));
}

TEST(Fnv, ByteWiseMatchesThePublishedVectors)
{
    // The 64-bit FNV-1a test vectors from the reference implementation.
    EXPECT_EQ(fnv1aBytes("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1aBytes("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1aBytes("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(Fnv, LaneHasherStartsAtTheOffsetBasis)
{
    EXPECT_EQ(FnvHasher{}.state, 0xcbf29ce484222325ULL);
    // Lane and byte feeds share the basis: one byte-sized lane is one
    // byte-wise round.
    FnvHasher h;
    h.u64('a');
    EXPECT_EQ(h.state, fnv1aBytes("a", 1));
}

} // namespace
} // namespace cs
