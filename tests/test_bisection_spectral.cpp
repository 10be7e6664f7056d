/**
 * @file
 * Tests for the bisection estimators and spectral expansion (Sec 4.2).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "graph/bisection.hpp"
#include "graph/random_regular.hpp"
#include "graph/spectral.hpp"
#include "util/rng.hpp"

namespace rfc {
namespace {

Graph
completeGraph(int n)
{
    Graph g(n);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            g.addEdge(i, j);
    return g;
}

Graph
cycleGraph(int n)
{
    Graph g(n);
    for (int i = 0; i < n; ++i)
        g.addEdge(i, (i + 1) % n);
    return g;
}

TEST(Bollobas, IsoperimetricFormula)
{
    // i(G) >= d/2 - sqrt(d ln 2).
    EXPECT_NEAR(bollobasIsoperimetric(26.0),
                13.0 - std::sqrt(26.0 * std::log(2.0)), 1e-12);
}

TEST(Bollobas, PaperNormalizedBisectionNumbers)
{
    // Section 4.2: RRN with Delta=26 and 10 hosts/switch -> ~0.88;
    // 2-level RFC at R=36 -> ~0.80; 3-level RFC -> ~0.86.
    EXPECT_NEAR(normalizedBisectionRrn(26.0, 10.0), 0.88, 0.01);
    EXPECT_NEAR(normalizedBisectionRfc(36.0, 2), 0.80, 0.01);
    EXPECT_NEAR(normalizedBisectionRfc(36.0, 3), 0.86, 0.01);
}

TEST(Bollobas, RfcBisectionFormula)
{
    // The normalized bound ablation_bisection prints: the Bollobas RFC
    // width N1/4 ((l-1) R - sqrt(2 (l-1) R ln 2)) over T/2 (l-1) with
    // T = N1 R / 2, i.e. 1 - sqrt(2 ln 2 / ((l-1) R)); R=36, l=3 here.
    EXPECT_DOUBLE_EQ(normalizedBisectionRfc(36.0, 3),
                     1.0 - std::sqrt(2.0 * std::log(2.0) / 72.0));
}

TEST(Bollobas, NormalizedBisectionImprovesWithLevels)
{
    EXPECT_LT(normalizedBisectionRfc(36.0, 2),
              normalizedBisectionRfc(36.0, 3));
    EXPECT_LT(normalizedBisectionRfc(36.0, 3),
              normalizedBisectionRfc(36.0, 4));
}

TEST(EmpiricalBisection, CompleteGraphExact)
{
    Rng rng(1);
    // K8 split 4/4 cuts exactly 16 edges regardless of the partition.
    EXPECT_EQ(empiricalBisection(completeGraph(8), 3, rng), 16u);
}

TEST(EmpiricalBisection, CycleFindsTwo)
{
    Rng rng(2);
    // A cycle's optimal bisection cuts exactly 2 edges.
    EXPECT_EQ(empiricalBisection(cycleGraph(16), 10, rng), 2u);
}

TEST(EmpiricalBisection, RandomRegularAboveBollobasBound)
{
    Rng rng(3);
    const int n = 64, d = 6;
    Graph g = randomRegularGraph(n, d, rng);
    auto cut = empiricalBisection(g, 5, rng);
    // The empirical cut is an upper bound on the min bisection, which
    // in turn is lower bounded by Bollobas for random regular graphs.
    double bound = bollobasBisectionRrn(n, d);
    EXPECT_GE(static_cast<double>(cut), bound * 0.9);
    EXPECT_LE(cut, g.numEdges());
}

TEST(Spectral, CompleteGraphGap)
{
    Rng rng(4);
    // K_n has eigenvalues n-1 and -1: |lambda2| = 1.
    double l2 = secondEigenvalue(completeGraph(10), 300, rng);
    EXPECT_NEAR(std::abs(l2), 1.0, 0.05);
}

TEST(Spectral, CycleSecondEigenvalue)
{
    Rng rng(5);
    // Power iteration on the deflated space converges to the largest
    // *magnitude* non-principal eigenvalue.  For an odd cycle C_n that
    // is |2 cos(pi (n-1) / n)| = 2 cos(pi / n).
    const int n = 13;
    double l2 = std::abs(secondEigenvalue(cycleGraph(n), 4000, rng));
    EXPECT_NEAR(l2, 2.0 * std::cos(M_PI / n), 0.05);
}

TEST(Spectral, RandomRegularIsExpander)
{
    Rng rng(6);
    Graph g = randomRegularGraph(100, 6, rng);
    double l2 = std::abs(secondEigenvalue(g, 500, rng));
    EXPECT_LT(l2, 6.0);
    // Friedman: lambda2 -> 2 sqrt(d-1) ~ 4.47; allow slack.
    EXPECT_LT(l2, 5.5);
    EXPECT_GT(spectralExpansionBound(6, l2), 0.0);
}

} // namespace
} // namespace rfc
