/**
 * @file
 * Tests for the synthetic traffic patterns (Section 6).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/traffic.hpp"

namespace rfc {
namespace {

TEST(UniformTraffic, NeverSelf)
{
    UniformTraffic t;
    Rng rng(1);
    t.init(16, rng);
    for (int i = 0; i < 1000; ++i) {
        long long src = i % 16;
        long long d = t.dest(src, rng);
        EXPECT_NE(d, src);
        EXPECT_GE(d, 0);
        EXPECT_LT(d, 16);
    }
}

TEST(UniformTraffic, CoversAllDestinations)
{
    UniformTraffic t;
    Rng rng(2);
    t.init(8, rng);
    std::set<long long> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(t.dest(0, rng));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(UniformTraffic, ApproximatelyUniform)
{
    UniformTraffic t;
    Rng rng(3);
    t.init(10, rng);
    std::vector<int> count(10, 0);
    const int n = 90000;
    for (int i = 0; i < n; ++i)
        ++count[t.dest(0, rng)];
    EXPECT_EQ(count[0], 0);
    for (int d = 1; d < 10; ++d)
        EXPECT_NEAR(count[d], n / 9.0, n / 9.0 * 0.1);
}

TEST(RandomPairingTraffic, IsPerfectMatching)
{
    RandomPairingTraffic t;
    Rng rng(4);
    t.init(64, rng);
    for (long long i = 0; i < 64; ++i) {
        long long p = t.dest(i, rng);
        EXPECT_NE(p, i);
        EXPECT_EQ(t.dest(p, rng), i);  // involution
    }
}

TEST(RandomPairingTraffic, FixedOverTime)
{
    RandomPairingTraffic t;
    Rng rng(5);
    t.init(10, rng);
    long long d0 = t.dest(3, rng);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(t.dest(3, rng), d0);
}

TEST(RandomPairingTraffic, OddCountThrows)
{
    RandomPairingTraffic t;
    Rng rng(6);
    EXPECT_THROW(t.init(9, rng), std::invalid_argument);
}

TEST(FixedRandomTraffic, FixedAndNeverSelf)
{
    FixedRandomTraffic t;
    Rng rng(7);
    t.init(32, rng);
    for (long long i = 0; i < 32; ++i) {
        long long d = t.dest(i, rng);
        EXPECT_NE(d, i);
        EXPECT_EQ(t.dest(i, rng), d);
    }
}

TEST(FixedRandomTraffic, CollisionsPossible)
{
    // Unlike a permutation, several sources may share a destination;
    // with 64 nodes the birthday bound makes a collision essentially
    // certain.
    FixedRandomTraffic t;
    Rng rng(8);
    t.init(64, rng);
    std::set<long long> seen;
    bool collision = false;
    for (long long i = 0; i < 64; ++i)
        collision |= !seen.insert(t.dest(i, rng)).second;
    EXPECT_TRUE(collision);
}

TEST(PermutationTraffic, BijectionWithoutFixedPoints)
{
    PermutationTraffic t;
    Rng rng(9);
    t.init(50, rng);
    std::set<long long> image;
    for (long long i = 0; i < 50; ++i) {
        long long d = t.dest(i, rng);
        EXPECT_NE(d, i);
        image.insert(d);
    }
    EXPECT_EQ(image.size(), 50u);
}

TEST(HotspotTraffic, ConcentratesOnHotNodes)
{
    HotspotTraffic t(0.5, 1);
    Rng rng(10);
    t.init(100, rng);
    std::vector<int> count(100, 0);
    for (int i = 0; i < 20000; ++i)
        ++count[t.dest(1, rng)];
    int hottest = 0;
    for (int d = 0; d < 100; ++d)
        hottest = std::max(hottest, count[d]);
    // ~50% of packets go to the single hotspot.
    EXPECT_GT(hottest, 8000);
}

TEST(HotspotTraffic, RejectsFractionOutsideUnitInterval)
{
    EXPECT_NO_THROW(HotspotTraffic(0.0, 1));
    EXPECT_NO_THROW(HotspotTraffic(1.0, 1));
    for (double bad : {2.0, -1.0, std::nan("")}) {
        try {
            HotspotTraffic t(bad, 1);
            ADD_FAILURE() << "accepted hot fraction " << bad;
        } catch (const std::invalid_argument &e) {
            // The message names the rejected value.
            EXPECT_NE(std::string(e.what()).find(std::to_string(bad)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ShiftTraffic, ShiftsByStrideModulo)
{
    ShiftTraffic t(3);
    Rng rng(11);
    t.init(10, rng);
    EXPECT_EQ(t.dest(0, rng), 3);
    EXPECT_EQ(t.dest(8, rng), 1);
    EXPECT_EQ(t.dest(9, rng), 2);
}

TEST(ShiftTraffic, NegativeAndZeroStridesNormalized)
{
    Rng rng(12);
    ShiftTraffic neg(-1);
    neg.init(10, rng);
    EXPECT_EQ(neg.dest(0, rng), 9);
    ShiftTraffic zero(0);
    zero.init(10, rng);
    EXPECT_EQ(zero.dest(4, rng), 5);  // promoted to stride 1
}

TEST(ShiftTraffic, IsAPermutationWithoutFixedPoints)
{
    ShiftTraffic t(7);
    Rng rng(13);
    t.init(20, rng);
    std::set<long long> image;
    for (long long i = 0; i < 20; ++i) {
        long long d = t.dest(i, rng);
        EXPECT_NE(d, i);
        image.insert(d);
    }
    EXPECT_EQ(image.size(), 20u);
}

/** True iff makeTraffic(@p name) builds a @p T. */
template <typename T>
bool
makesType(const std::string &name)
{
    return dynamic_cast<T *>(makeTraffic(name).get()) != nullptr;
}

TEST(TrafficFactory, KnownNames)
{
    EXPECT_TRUE(makesType<UniformTraffic>("uniform"));
    EXPECT_TRUE(makesType<RandomPairingTraffic>("random-pairing"));
    EXPECT_TRUE(makesType<FixedRandomTraffic>("fixed-random"));
    EXPECT_TRUE(makesType<PermutationTraffic>("permutation"));
}

TEST(TrafficFactory, UnknownThrows)
{
    EXPECT_THROW(makeTraffic("tornado"), std::invalid_argument);
}

} // namespace
} // namespace rfc
