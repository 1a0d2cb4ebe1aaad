/**
 * @file
 * Unit tests for the statistics package and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "sim/random.hh"
#include "sim/stats.hh"

using namespace misp;
using namespace misp::stats;

TEST(Stats, ScalarAccumulates)
{
    StatGroup root("root");
    Scalar s(&root, "count");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s = 10;
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, VectorIndexesAndTotals)
{
    StatGroup root("root");
    Vector v(&root, "v", 4);
    v[0] = 1;
    v[2] = 5;
    EXPECT_DOUBLE_EQ(v.total(), 6.0);
    EXPECT_DOUBLE_EQ(v.at(2), 5.0);
    EXPECT_EQ(v.size(), 4u);
    EXPECT_THROW(v[7], SimError);
}

TEST(Stats, GroupPathsAndLookup)
{
    StatGroup root("");
    StatGroup cpu("cpu0", &root);
    StatGroup tlb("tlb", &cpu);
    Scalar hits(&tlb, "hits");
    hits += 42;
    EXPECT_EQ(tlb.path(), "cpu0.tlb");
    EXPECT_DOUBLE_EQ(root.lookupValue("cpu0.tlb.hits"), 42.0);
    EXPECT_EQ(root.find("cpu0.tlb.misses"), nullptr);
    EXPECT_EQ(root.find("nope.hits"), nullptr);
}

TEST(Stats, DumpContainsAllStats)
{
    StatGroup root("");
    StatGroup cpu("cpu0", &root);
    Scalar insts(&cpu, "insts");
    Vector perSeq(&cpu, "perSeq", 2);
    insts += 7;
    perSeq[1] = 3;
    std::ostringstream os;
    root.dumpJson(os);
    EXPECT_NE(os.str().find("\"cpu0\": {"), std::string::npos) << os.str();
    EXPECT_NE(os.str().find("\"insts\": 7"), std::string::npos) << os.str();
    EXPECT_NE(os.str().find("\"[1]\": 3"), std::string::npos) << os.str();
}

// ---------------------------------------------------------------------
// JSON primitives against the snprintf forms they replaced
// ---------------------------------------------------------------------

namespace {

/** writeJsonNumber's former body. */
std::string
snprintfJsonNumber(double v)
{
    char buf[48];
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15)
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** The former scalar line of StatGroup::dumpJson. */
std::string
snprintfStatDump(double v)
{
    char buf[40];
    if (v != v || v > 1.7e308 || v < -1.7e308)
        std::snprintf(buf, sizeof(buf), "null");
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string("{\n  \"x\": ") + buf + "\n}";
}

/** The former snprintf-based escaper, wrapped in quotes. */
std::string
snprintfQuoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

void
expectSameAsSnprintf(double v)
{
    std::ostringstream num;
    writeJsonNumber(num, v);
    EXPECT_EQ(num.str(), snprintfJsonNumber(v))
        << std::bit_cast<std::uint64_t>(v);

    StatGroup root("");
    Scalar x(&root, "x");
    x = v;
    std::ostringstream dump;
    root.dumpJson(dump);
    EXPECT_EQ(dump.str(), snprintfStatDump(v))
        << std::bit_cast<std::uint64_t>(v);
}

} // namespace

TEST(JsonPrimitives, NumbersMatchTheSnprintfForms)
{
    using Lim = std::numeric_limits<double>;
    const double p53 = 9007199254740992.0; // 2^53
    for (double v :
         {0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 0.5, 1e15, 1e16, 1e17,
          p53, -p53, p53 - 1, -(p53 - 1), p53 + 2, -(p53 + 2),
          9.007199254740991e15, 123456789.0, 0.123456789, 1.23456789e-7,
          3.14159265358979312, 0.30000000000000004, 1.0000000000000002,
          12345678.9, 1234567.891, 1.7e308, -1.7e308,
          1.7000000000000001e308, -1.7000000000000001e308, Lim::max(),
          Lim::lowest(), Lim::min(),
          -Lim::min(), Lim::denorm_min(), -Lim::denorm_min(),
          Lim::min() / 3, 4.9406564584124654e-324, Lim::infinity(),
          -Lim::infinity(), Lim::quiet_NaN(), -Lim::quiet_NaN(),
          Lim::epsilon(), 1e-5, 1e-4, 123456.0e-10, 1e21, 1e22})
        expectSameAsSnprintf(v);

    // Seeded doubles: uniform bit patterns (every exponent, denormals,
    // NaN payloads) and values of a few significant digits, as
    // simulated counters and ratios are.
    Rng rng(20260);
    for (int i = 0; i < 50'000; ++i)
        expectSameAsSnprintf(std::bit_cast<double>(rng.next()));
    for (int i = 0; i < 50'000; ++i) {
        const double mantissa = double(rng.next() % 1'000'000'000) /
                                double(1 + rng.next() % 1000);
        expectSameAsSnprintf(rng.next() % 2 ? mantissa : -mantissa);
    }
}

TEST(JsonPrimitives, QuotedStringsMatchTheSnprintfEscaper)
{
    std::string every;
    for (int c = 1; c < 256; ++c)
        every += static_cast<char>(c);
    for (const std::string &s :
         {std::string(), std::string("plain"), std::string("a\"b\\c"),
          std::string("tab\tnl\ncr\rbs\bff\f"), std::string(1, '\0'),
          std::string("\x01\x1f\x7f mid\x10" "dle"),
          std::string("caf\xc3\xa9"), every}) {
        std::ostringstream os;
        writeJsonQuoted(os, s);
        EXPECT_EQ(os.str(), snprintfQuoted(s));
        EXPECT_EQ(jsonQuote(s), snprintfQuoted(s));
    }
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        sawLo |= v == 3;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ReseedReproduces)
{
    Rng rng(9);
    std::uint64_t first = rng.next();
    rng.next();
    rng.reseed(9);
    EXPECT_EQ(rng.next(), first);
}
