/**
 * @file
 * Mutation smoke tests for the invariant validators (tier 1).
 *
 * Each test seeds one deliberate fault - a removed or duplicated
 * inter-level edge, a differently wired twin - and asserts the
 * corresponding validator reports it.  A validator that cannot detect
 * its own fault class is vacuous; these tests keep the check subsystem
 * honest.  checkForwardingTables has no case here: the rows it checks
 * are streamed from the oracle, not stored, so there is no entry to
 * corrupt.
 */
#include <gtest/gtest.h>

#include <string>

#include "check/guard.hpp"
#include "check/invariants.hpp"
#include "clos/rfc.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

FoldedClos
smallRfc(std::uint64_t seed = 21)
{
    Rng rng(seed);
    return buildRfc(8, 2, 12, rng).topology;
}

TEST(CheckMutation, PristineTopologyPassesEverything)
{
    FoldedClos fc = smallRfc();
    EXPECT_TRUE(checkAllStructural(fc).ok);
}

TEST(CheckMutation, RemovedEdgeBreaksBiregularity)
{
    FoldedClos fc = smallRfc();
    int leaf = 3;
    ASSERT_FALSE(fc.up(leaf).empty());
    int parent = fc.up(leaf)[0];
    ASSERT_TRUE(fc.removeLink(leaf, parent));
    // Level structure still holds (the mirror was removed too)...
    EXPECT_TRUE(checkLevelStructure(fc).ok);
    // ...but the degree deficit must be caught, with coordinates.
    auto r = checkBipartiteRegular(fc);
    ASSERT_FALSE(r.ok);
    EXPECT_FALSE(r.message.empty());
}

TEST(CheckMutation, DuplicatedEdgeBreaksSimpleWiring)
{
    FoldedClos fc = smallRfc();
    int leaf = 2;
    int parent = fc.up(leaf)[0];
    // Re-adding an existing link makes the wiring a multigraph while
    // keeping the mirror property: only the simplicity check can see it.
    fc.addLink(leaf, parent);
    EXPECT_EQ(fc.countLink(leaf, parent), 2);
    EXPECT_TRUE(checkLevelStructure(fc).ok);
    EXPECT_FALSE(checkBipartiteRegular(fc).ok);
}

TEST(CheckMutation, SameTopologyDetectsDifferences)
{
    Rng r1(31), r2(32);
    FoldedClos a = buildRfcUnchecked(8, 2, 12, r1);
    FoldedClos b = buildRfcUnchecked(8, 2, 12, r2);
    EXPECT_TRUE(sameTopology(a, a).ok);
    // Same shape, different random wiring: adjacency must differ.
    EXPECT_FALSE(sameTopology(a, b).ok);
}

TEST(CheckMutation, CheckContextKeepsFirstViolation)
{
    CheckContext ctx;
    EXPECT_EQ(ctx.violations(), 0);
    ctx.countChecks(3);
    ctx.report("credit-overflow", 42, 7, 2, "first");
    ctx.report("no-progress", 99, -1, -1, "second");
    EXPECT_EQ(ctx.violations(), 2);
    EXPECT_EQ(ctx.checksPerformed(), 3);
    EXPECT_EQ(ctx.first().kind, "credit-overflow");
    EXPECT_EQ(ctx.first().cycle, 42);
    EXPECT_EQ(ctx.first().sw, 7);
    EXPECT_EQ(ctx.first().vc, 2);
    EXPECT_NE(ctx.summary().find("credit-overflow"), std::string::npos);
    EXPECT_NE(ctx.first().str().find("cycle 42"), std::string::npos);
}

TEST(CheckMutation, ShrinkCandidatesRespectBounds)
{
    TopoParams minimal{4, 2, 2, 123};
    EXPECT_TRUE(shrinkTopoParams(minimal).empty());
    TopoParams p{8, 3, 20, 456};
    for (const TopoParams &q : shrinkTopoParams(p)) {
        EXPECT_GE(q.radix, 4);
        EXPECT_GE(q.levels, 2);
        EXPECT_GE(q.n1, 2);
        EXPECT_EQ(q.n1 % 2, 0);
        EXPECT_EQ(q.wiring_seed, p.wiring_seed);
    }
}

} // namespace
} // namespace rfc
