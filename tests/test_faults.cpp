/**
 * @file
 * Tests for fault injection and the resiliency experiments (Section 7).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/resiliency.hpp"
#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/oft.hpp"
#include "clos/rfc.hpp"
#include "graph/algorithms.hpp"
#include "graph/random_regular.hpp"
#include "routing/updown.hpp"
#include "util/stats.hpp"

namespace rfc {
namespace {

/** Mean of @p trials calls to @p fraction, each drawing its own order. */
template <typename Fn>
double
meanOfTrials(int trials, Fn fraction)
{
    RunningStat stat;
    for (int t = 0; t < trials; ++t)
        stat.add(fraction());
    return stat.mean();
}

TEST(Faults, RandomLinkOrderIsPermutation)
{
    Rng rng(1);
    auto fc = buildCft(8, 2);
    auto all = fc.links();
    auto order = randomLinkOrder(fc, rng);
    EXPECT_EQ(order.size(), all.size());
    auto key = [](const ClosLink &l) {
        return std::pair<int, int>{l.lower, l.upper};
    };
    std::set<std::pair<int, int>> sa, sb;
    for (const auto &l : all)
        sa.insert(key(l));
    for (const auto &l : order)
        sb.insert(key(l));
    EXPECT_EQ(sa, sb);
}

TEST(Faults, WithLinksRemovedCounts)
{
    Rng rng(2);
    auto fc = buildCft(8, 3);
    auto order = randomLinkOrder(fc, rng);
    auto cut = withLinksRemoved(fc, order, 10);
    EXPECT_EQ(cut.numWires(), fc.numWires() - 10);
    EXPECT_EQ(fc.numWires(), static_cast<long long>(order.size()));
}

TEST(Faults, RemoveRandomLinksInPlace)
{
    Rng rng(3);
    auto fc = buildCft(8, 2);
    long long before = fc.numWires();
    auto removed = removeRandomLinks(fc, 5, rng);
    EXPECT_EQ(removed.size(), 5u);
    EXPECT_EQ(fc.numWires(), before - 5);
    EXPECT_TRUE(fc.validate());
}

TEST(Faults, RemoveTooManyThrows)
{
    Rng rng(4);
    auto fc = buildCft(4, 2);
    EXPECT_THROW(removeRandomLinks(fc, 1000, rng), std::out_of_range);
}

TEST(Resiliency, DisconnectionFractionInUnitInterval)
{
    Rng rng(5);
    auto g = buildCft(8, 3).toGraph();
    for (int i = 0; i < 5; ++i) {
        double f = disconnectionFraction(g, rng);
        EXPECT_GT(f, 0.0);
        EXPECT_LE(f, 1.0);
    }
}

TEST(Resiliency, DisconnectionNeedsAtLeastMinDegreeIntuition)
{
    // Disconnecting cannot need fewer removals than the min degree
    // fraction... but it can never need *more* than all links.  Check
    // the trivial exact case: a single link graph disconnects at the
    // first removal.
    Graph g(2);
    g.addEdge(0, 1);
    Rng rng(6);
    EXPECT_DOUBLE_EQ(disconnectionFraction(g, rng), 1.0);
}

TEST(Resiliency, CftDisconnectionNearPaperValue)
{
    // Table 3, T~1024: CFT with R=16 loses connectivity after ~45.6%
    // of links are removed.  Loose tolerance: we use fewer trials.
    Rng rng(7);
    auto g = buildCft(16, 3).toGraph();
    double mean =
        meanOfTrials(15, [&] { return disconnectionFraction(g, rng); });
    EXPECT_NEAR(mean, 0.456, 0.08);
}

TEST(Resiliency, RfcDisconnectsEarlierThanCft)
{
    // Table 3: RFC percentages are consistently below CFT's (smaller
    // radix for the same terminal count in the paper; here we compare
    // at equal resources where they should be in the same ballpark).
    Rng rng(8);
    auto cft = buildCft(16, 3).toGraph();
    Rng rng2(9);
    auto built = buildRfc(16, 3, 128, rng2);
    auto rfc_g = built.topology.toGraph();
    double m_cft =
        meanOfTrials(10, [&] { return disconnectionFraction(cft, rng); });
    double m_rfc =
        meanOfTrials(10, [&] { return disconnectionFraction(rfc_g, rng); });
    EXPECT_GT(m_cft, 0.0);
    EXPECT_GT(m_rfc, 0.0);
    // Both around 40-50%; no more than 15 points apart.
    EXPECT_NEAR(m_cft, m_rfc, 0.15);
}

TEST(Resiliency, UpdownToleranceZeroForOft2)
{
    // Section 7: in the 2-level OFT up/down paths are unique, so any
    // single removal breaks some pair.
    Rng rng(10);
    auto fc = buildOft(3, 2);
    EXPECT_DOUBLE_EQ(updownToleranceFraction(fc, rng), 0.0);
}

TEST(Resiliency, UpdownTolerancePositiveForCft)
{
    Rng rng(11);
    auto fc = buildCft(12, 2);
    double f = updownToleranceFraction(fc, rng);
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, 1.0);
}

TEST(Resiliency, RfcBelowThresholdToleratesMoreThanAtThreshold)
{
    // Fault tolerance is traded against scalability: an RFC built far
    // below the Theorem 4.2 threshold tolerates more link failures.
    Rng rng(12);
    int n1_max = rfcMaxLeaves(12, 3);
    int n1_small = n1_max / 2;
    if (n1_small % 2)
        --n1_small;
    auto big = buildRfc(12, 3, n1_max, rng, 500);
    auto small = buildRfc(12, 3, n1_small, rng, 500);
    ASSERT_TRUE(big.routable);
    ASSERT_TRUE(small.routable);
    double m_big = meanOfTrials(
        8, [&] { return updownToleranceFraction(big.topology, rng); });
    double m_small = meanOfTrials(
        8, [&] { return updownToleranceFraction(small.topology, rng); });
    EXPECT_GT(m_small, m_big);
}

TEST(Resiliency, ToleranceMatchesLinearScan)
{
    // Binary search must agree with a linear removal scan.
    Rng rng(13);
    auto built = buildRfc(8, 2, 10, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;

    Rng rng_a(99), rng_b(99);
    double via_search = updownToleranceFraction(fc, rng_a);

    auto order = randomLinkOrder(fc, rng_b);
    long long k = 0;
    while (k < static_cast<long long>(order.size())) {
        auto cut = withLinksRemoved(fc, order, k + 1);
        UpDownOracle oracle(cut);
        if (!oracle.routable())
            break;
        ++k;
    }
    double via_scan =
        static_cast<double>(k) / static_cast<double>(order.size());
    EXPECT_DOUBLE_EQ(via_search, via_scan);
}

TEST(Resiliency, RandomRegularDisconnectionSanity)
{
    // Table 3 RRN column: random regular networks disconnect in the
    // same regime as CFTs.
    Rng rng(14);
    Graph g = randomRegularGraph(128, 8, rng);
    double mean =
        meanOfTrials(10, [&] { return disconnectionFraction(g, rng); });
    EXPECT_GT(mean, 0.25);
    EXPECT_LT(mean, 0.75);
}

} // namespace
} // namespace rfc
