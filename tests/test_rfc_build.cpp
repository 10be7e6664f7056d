/**
 * @file
 * Tests for RFC construction and the Theorem 4.2 threshold machinery.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "clos/rfc.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

class RfcBuildP
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(RfcBuildP, LevelStructure)
{
    auto [radix, levels, n1] = GetParam();
    Rng rng(1234);
    auto fc = buildRfcUnchecked(radix, levels, n1, rng);
    EXPECT_EQ(fc.levels(), levels);
    for (int lv = 1; lv < levels; ++lv)
        EXPECT_EQ(fc.switchesAtLevel(lv), n1);
    EXPECT_EQ(fc.switchesAtLevel(levels), n1 / 2);
    EXPECT_EQ(fc.numTerminals(),
              static_cast<long long>(n1) * (radix / 2));
}

TEST_P(RfcBuildP, RadixRegularAndValid)
{
    auto [radix, levels, n1] = GetParam();
    Rng rng(99);
    auto fc = buildRfcUnchecked(radix, levels, n1, rng);
    EXPECT_TRUE(fc.isRadixRegular());
    EXPECT_TRUE(fc.validate());
}

TEST_P(RfcBuildP, InterLevelWiringIsSimple)
{
    auto [radix, levels, n1] = GetParam();
    Rng rng(7);
    auto fc = buildRfcUnchecked(radix, levels, n1, rng);
    for (int s = 0; s < fc.numSwitches(); ++s) {
        std::set<int> seen(fc.up(s).begin(), fc.up(s).end());
        EXPECT_EQ(seen.size(), fc.up(s).size()) << "switch " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RfcBuildP,
    ::testing::Values(std::tuple{4, 2, 8}, std::tuple{8, 2, 16},
                      std::tuple{8, 3, 32}, std::tuple{8, 3, 62},
                      std::tuple{12, 3, 100}, std::tuple{4, 4, 16},
                      std::tuple{6, 4, 30}, std::tuple{16, 2, 40}));

TEST(RfcBuild, Figure4Case)
{
    // Figure 4: RFC of radix 4, N1 = 16, 4 levels.
    Rng rng(5);
    auto fc = buildRfcUnchecked(4, 4, 16, rng);
    EXPECT_EQ(fc.switchesAtLevel(1), 16);
    EXPECT_EQ(fc.switchesAtLevel(2), 16);
    EXPECT_EQ(fc.switchesAtLevel(3), 16);
    EXPECT_EQ(fc.switchesAtLevel(4), 8);
    EXPECT_EQ(fc.numTerminals(), 32);
}

TEST(RfcBuild, AcceptanceLoopProducesRoutable)
{
    Rng rng(11);
    int n1 = rfcMaxLeaves(8, 3);
    auto built = buildRfc(8, 3, n1, rng);
    EXPECT_TRUE(built.routable);
    EXPECT_GE(built.attempts, 1);
    UpDownOracle oracle(built.topology);
    EXPECT_TRUE(oracle.routable());
}

TEST(RfcBuild, DeterministicBySeed)
{
    Rng a(77), b(77);
    auto f1 = buildRfcUnchecked(8, 3, 40, a);
    auto f2 = buildRfcUnchecked(8, 3, 40, b);
    for (int s = 0; s < f1.numSwitches(); ++s)
        EXPECT_EQ(f1.up(s), f2.up(s));
}

TEST(RfcBuild, RejectsBadParameters)
{
    Rng rng(1);
    EXPECT_THROW(buildRfcUnchecked(5, 3, 10, rng), std::invalid_argument);
    EXPECT_THROW(buildRfcUnchecked(8, 1, 10, rng), std::invalid_argument);
    EXPECT_THROW(buildRfcUnchecked(8, 3, 9, rng), std::invalid_argument);
}

TEST(Threshold, PaperExampleRadix36ThreeLevels)
{
    // Section 4.2: at R=36, l=3 the threshold is slightly above
    // N1 ~ 11,254 leaves, about 202,554 terminals.
    int n1 = rfcMaxLeaves(36, 3);
    EXPECT_NEAR(n1, 11254, 60);
    long long t = static_cast<long long>(n1) * 18;
    EXPECT_NEAR(static_cast<double>(t), 202554.0, 1500.0);
}

TEST(Threshold, MonotoneInRadixAndLevels)
{
    EXPECT_LT(rfcMaxLeaves(12, 3), rfcMaxLeaves(16, 3));
    EXPECT_LT(rfcMaxLeaves(16, 3), rfcMaxLeaves(16, 4));
    EXPECT_LT(rfcMaxLeaves(8, 2), rfcMaxLeaves(8, 3));
}

TEST(Threshold, ProbabilityShapeMatchesTheorem)
{
    // At the threshold the success probability is ~ e^{-1} ~ 0.37 and
    // it must increase with radix.
    int n1 = rfcMaxLeaves(36, 3);
    auto at = rfcThresholdPrediction(36, 3, n1);
    double p0 = at.p_routable;
    EXPECT_DOUBLE_EQ(p0, std::exp(-std::exp(-at.x)));
    EXPECT_GT(p0, 0.2);
    EXPECT_LT(p0, 0.75);
    EXPECT_GT(rfcThresholdPrediction(38, 3, n1).p_routable, p0);
    EXPECT_LT(rfcThresholdPrediction(34, 3, n1).p_routable, p0);
    // Far below the threshold: near certain.
    EXPECT_GT(rfcThresholdPrediction(36, 3, n1 / 2).p_routable, 0.999);
}

TEST(Threshold, EmpiricalAcceptanceNearTheoreticalRate)
{
    // Generate many RFCs at the sharp threshold and compare the
    // fraction with up/down routing to e^{-e^{-x}}.  Small sizes have
    // finite-size effects, so the tolerance is loose.
    const int radix = 12, levels = 2;
    int n1 = rfcMaxLeaves(radix, levels);
    double expect = rfcThresholdPrediction(radix, levels, n1).p_routable;
    Rng rng(2024);
    int ok = 0;
    const int trials = 60;
    for (int i = 0; i < trials; ++i) {
        auto fc = buildRfcUnchecked(radix, levels, n1, rng);
        UpDownOracle oracle(fc);
        ok += oracle.routable();
    }
    double rate = static_cast<double>(ok) / trials;
    EXPECT_NEAR(rate, expect, 0.3);
    EXPECT_GT(rate, 0.05);
}

TEST(Threshold, TwoLevelRfcRoutableMeansAllPairsShareRoot)
{
    Rng rng(31);
    auto built = buildRfc(8, 2, 12, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    for (int a = 0; a < fc.numLeaves(); ++a) {
        for (int b = a + 1; b < fc.numLeaves(); ++b) {
            std::set<int> ra(fc.up(a).begin(), fc.up(a).end());
            bool common = false;
            for (int r : fc.up(b))
                common |= ra.count(r) > 0;
            EXPECT_TRUE(common);
        }
    }
}

} // namespace
} // namespace rfc
