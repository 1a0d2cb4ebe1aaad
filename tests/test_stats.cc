/**
 * @file
 * Unit tests for the statistics package and the deterministic RNG.
 */

#include <gtest/gtest.h>

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
