/**
 * @file
 * Unit tests for the xoshiro256** RNG wrapper.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace rfc {
namespace {

TEST(Rng, DeterministicBySeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.uniform(bound), bound);
    }
}

TEST(Rng, UniformBoundOneAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformCoversAllResidues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.uniform(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIsApproximatelyUniform)
{
    Rng rng(13);
    const int buckets = 10, samples = 100000;
    std::vector<int> count(buckets, 0);
    for (int i = 0; i < samples; ++i)
        ++count[rng.uniform(buckets)];
    for (int c : count) {
        EXPECT_GT(c, samples / buckets * 0.9);
        EXPECT_LT(c, samples / buckets * 1.1);
    }
}

TEST(Rng, UniformInRangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.uniformInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(17);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(19);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i)
        v[i] = i;
    rng.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleActuallyShuffles)
{
    Rng rng(31);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i)
        v[i] = i;
    rng.shuffle(v);
    int fixed = 0;
    for (int i = 0; i < 100; ++i)
        fixed += v[i] == i;
    EXPECT_LT(fixed, 20);  // expectation is 1 fixed point
}

TEST(Rng, PickReturnsElement)
{
    Rng rng(37);
    std::vector<int> v{10, 20, 30};
    for (int i = 0; i < 50; ++i) {
        int x = rng.pick(v);
        EXPECT_TRUE(x == 10 || x == 20 || x == 30);
    }
}

} // namespace
} // namespace rfc
