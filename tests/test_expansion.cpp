/**
 * @file
 * Tests for strong (incremental) RFC expansion (Section 5).
 *
 * The expansion goldens in tests/golden/expand_*.txt pin every port
 * list, the counters and the generator's state after planning; re-record
 * (only for an intended change of the rewiring) with
 * RFC_GOLDEN_RECORD=1 ./test_expansion
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "clos/expansion.hpp"
#include "clos/rfc.hpp"
#include "routing/updown.hpp"

#ifndef RFC_GOLDEN_DIR
#define RFC_GOLDEN_DIR "tests/golden"
#endif

namespace rfc {
namespace {

TEST(Expansion, AddsTwoPerLevelAndOneTop)
{
    Rng rng(3);
    auto fc = buildRfcUnchecked(8, 3, 20, rng);
    ExpansionPlan plan(fc, 1, rng);
    EXPECT_EQ(plan.finalTopology().switchesAtLevel(1), 22);
    EXPECT_EQ(plan.finalTopology().switchesAtLevel(2), 22);
    EXPECT_EQ(plan.finalTopology().switchesAtLevel(3), 11);
}

TEST(Expansion, AddsRadixTerminalsPerStep)
{
    Rng rng(5);
    auto fc = buildRfcUnchecked(8, 3, 20, rng);
    long long before = fc.numTerminals();
    ExpansionPlan plan(fc, 1, rng);
    EXPECT_EQ(plan.finalTopology().numTerminals() - before, 8);  // R
    EXPECT_EQ(plan.addedTerminals(), 8);
}

TEST(Expansion, PreservesRadixRegularity)
{
    Rng rng(7);
    auto fc = buildRfcUnchecked(12, 3, 30, rng);
    ExpansionPlan plan(fc, 3, rng);
    EXPECT_TRUE(plan.finalTopology().isRadixRegular());
    EXPECT_TRUE(plan.finalTopology().validate());
}

TEST(Expansion, WiringStaysSimple)
{
    Rng rng(11);
    auto fc = buildRfcUnchecked(8, 3, 24, rng);
    ExpansionPlan plan(fc, 5, rng);
    const FoldedClos &out = plan.finalTopology();
    for (int s = 0; s < out.numSwitches(); ++s) {
        std::set<int> seen(out.up(s).begin(), out.up(s).end());
        EXPECT_EQ(seen.size(), out.up(s).size());
    }
}

TEST(Expansion, RewiringCountMatchesMinimalUpgrade)
{
    // Each step rewires 2m links per level pair: (l-1) * R total.
    Rng rng(13);
    auto fc = buildRfcUnchecked(8, 3, 20, rng);
    EXPECT_EQ(ExpansionPlan(fc, 1, rng).rewired(), 2 * 8);
    EXPECT_EQ(ExpansionPlan(fc, 3, rng).rewired(), 3 * 2 * 8);
}

TEST(Expansion, WireCountGrowsLinearly)
{
    Rng rng(17);
    auto fc = buildRfcUnchecked(8, 3, 20, rng);
    long long w0 = fc.numWires();
    ExpansionPlan plan(fc, 4, rng);
    // Each step adds 2 leaves (2m up-links) and 2 level-2 up ports
    // worth of links: +2m per level pair.
    EXPECT_EQ(plan.finalTopology().numWires() - w0, 4 * 2 * (8 / 2) * 2);
}

TEST(Expansion, RoutabilityPreservedBelowThreshold)
{
    // Expanding a small RFC (far below the Theorem 4.2 threshold) must
    // keep up/down routing with overwhelming probability.
    Rng rng(19);
    int n1 = rfcMaxLeaves(12, 3) / 4;
    if (n1 % 2)
        --n1;
    auto built = buildRfc(12, 3, n1, rng);
    ASSERT_TRUE(built.routable);
    ExpansionPlan plan(built.topology, 2, rng);
    UpDownOracle oracle(plan.finalTopology());
    EXPECT_TRUE(oracle.routable());
}

TEST(Expansion, MultiStepAccumulates)
{
    Rng rng(23);
    auto fc = buildRfcUnchecked(8, 3, 20, rng);
    ExpansionPlan plan(fc, 10, rng);
    EXPECT_EQ(plan.finalTopology().switchesAtLevel(1), 40);
    EXPECT_EQ(plan.finalTopology().switchesAtLevel(3), 20);
    EXPECT_EQ(plan.addedTerminals(), 80);
}

TEST(Expansion, TwoLevelNetworks)
{
    Rng rng(29);
    auto fc = buildRfcUnchecked(8, 2, 16, rng);
    ExpansionPlan plan(fc, 2, rng);
    EXPECT_EQ(plan.finalTopology().switchesAtLevel(1), 20);
    EXPECT_EQ(plan.finalTopology().switchesAtLevel(2), 10);
    EXPECT_TRUE(plan.finalTopology().isRadixRegular());
}

TEST(Expansion, RejectsSingleLevel)
{
    Rng rng(31);
    FoldedClos fc({4}, 8, 4, "flat");
    EXPECT_THROW(ExpansionPlan(fc, 1, rng), std::invalid_argument);
}

// ======================================================================
// Expansion golden: port order, counters and generator state
// ======================================================================

/** One recorded expansion: an RFC base, its seeds and the step count. */
struct ExpansionGolden
{
    const char *name;
    int radix, levels, leaves;
    std::uint64_t build_seed, seed;
    int steps;
};

constexpr ExpansionGolden kExpansionGoldens[] = {
    {"expand_rfc8_3_n20_s1", 8, 3, 20, 37, 41, 1},
    {"expand_rfc8_3_n20_s2", 8, 3, 20, 37, 41, 2},
    {"expand_rfc8_3_n20_s3", 8, 3, 20, 37, 41, 3},
    {"expand_rfc16_3_n64_s2", 16, 3, 64, 89, 97, 2},
};

/**
 * The expansion of @p g as text: its counters, the generator's next
 * draw after planning, then every switch's up and down lists in port
 * order - which the engine's port numbering and every later draw of
 * the rewiring read.
 */
std::vector<std::string>
describeExpansion(const ExpansionGolden &g)
{
    Rng build_rng(g.build_seed);
    auto base = buildRfcUnchecked(g.radix, g.levels, g.leaves, build_rng);
    Rng rng(g.seed);
    ExpansionPlan plan(base, g.steps, rng);
    const FoldedClos &fc = plan.finalTopology();
    const long long rewired = plan.rewired(), added = plan.addedTerminals();
    std::vector<std::string> lines = {
        "rewired " + std::to_string(rewired),
        "added_terminals " + std::to_string(added),
        "next_draw " + std::to_string(rng.nextU64()),
    };
    auto list = [](Span<std::int32_t> ports) {
        std::string s;
        for (int p : ports)
            s += " " + std::to_string(p);
        return s;
    };
    for (int s = 0; s < fc.numSwitches(); ++s) {
        lines.push_back("up " + std::to_string(s) + ":" + list(fc.up(s)));
        lines.push_back("down " + std::to_string(s) + ":" +
                        list(fc.down(s)));
    }
    return lines;
}

TEST(ExpansionPlan, ReproducesRecordedExpansionsBitForBit)
{
    for (const ExpansionGolden &g : kExpansionGoldens) {
        SCOPED_TRACE(g.name);
        const std::string path =
            std::string(RFC_GOLDEN_DIR) + "/" + g.name + ".txt";
        const std::vector<std::string> got = describeExpansion(g);
        const char *env = std::getenv("RFC_GOLDEN_RECORD");
        if (env != nullptr && env[0] != '\0' && env[0] != '0') {
            std::ofstream out(path);
            ASSERT_TRUE(out.good()) << "cannot write " << path;
            for (const std::string &line : got)
                out << line << "\n";
            continue;
        }
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << "missing golden file " << path
                               << " (record with RFC_GOLDEN_RECORD=1)";
        std::vector<std::string> want;
        for (std::string line; std::getline(in, line);)
            want.push_back(line);
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(want[i], got[i]) << "line " << i + 1;
    }
}

// ======================================================================
// ExpansionPlan: staged replay, union fabric and timelines
// ======================================================================

TEST(ExpansionPlan, StagedReplayReachesTheFinalTopology)
{
    Rng build_rng(43);
    auto base = buildRfcUnchecked(8, 3, 20, build_rng);
    Rng rng(47);
    ExpansionPlan plan(base, 2, rng);

    FoldedClos live = plan.preStaged();
    EXPECT_EQ(live.numSwitches(), plan.finalTopology().numSwitches());
    EXPECT_EQ(live.numWires(), base.numWires());
    for (const ExpansionStage &st : plan.stages())
        plan.applyStage(live, st);
    CheckResult same = sameTopology(live, plan.finalTopology());
    EXPECT_TRUE(same.ok) << same.message;
    EXPECT_TRUE(live.isRadixRegular());
    EXPECT_TRUE(live.validate());

    // Replaying again must fail loudly: the removed links are gone.
    EXPECT_THROW(plan.applyStage(live, plan.stages().front()),
                 std::logic_error);
}

TEST(ExpansionPlan, UnionMinusDetachedLinksIsTheFinalTopology)
{
    // The union fabric is exactly final + the to-be-removed links: what
    // a live run converges to once every detach event has applied.
    Rng build_rng(53);
    auto base = buildRfcUnchecked(8, 3, 20, build_rng);
    Rng rng(59);
    ExpansionPlan plan(base, 2, rng);

    FoldedClos u = plan.unionTopology();
    long long staged = 0;
    for (const ExpansionStage &st : plan.stages())
        staged += 2 * static_cast<long long>(st.ops.size());
    EXPECT_EQ(u.numWires(), base.numWires() + staged);
    for (const ExpansionStage &st : plan.stages())
        for (const RewireOp &op : st.ops)
            ASSERT_TRUE(u.removeLink(op.removed.lower, op.removed.upper));
    CheckResult same = sameTopology(u, plan.finalTopology());
    EXPECT_TRUE(same.ok) << same.message;
}

TEST(ExpansionPlan, KeepsRoutabilityBelowTheorem42Threshold)
{
    Rng rng(61);
    int n1 = rfcMaxLeaves(12, 3) / 4;
    if (n1 % 2)
        --n1;
    auto built = buildRfc(12, 3, n1, rng);
    ASSERT_TRUE(built.routable);
    ExpansionPlan plan(built.topology, 2, rng);
    EXPECT_TRUE(plan.finalTopology().isRadixRegular());
    UpDownOracle oracle(plan.finalTopology());
    EXPECT_TRUE(oracle.routable());
}

TEST(ExpansionPlan, LiveTimelineSchedulesStepsInOrder)
{
    Rng build_rng(67);
    auto base = buildRfcUnchecked(8, 3, 20, build_rng);
    Rng rng(71);
    ExpansionPlan plan(base, 2, rng);
    TopologyTimeline tl = plan.liveTimeline(100, 50, 8);

    // Per step: one commissioning marker per new switch (2 per level
    // below the top, 1 at the top), a detach/attach/attach triplet per
    // rewire, one activation barrier.
    long long adds = 0, detaches = 0, attaches = 0, activates = 0;
    for (const TopologyEvent &e : tl.events()) {
        switch (e.op) {
        case TopoOp::kAddSwitch: ++adds; break;
        case TopoOp::kDetach: ++detaches; break;
        case TopoOp::kAttach: ++attaches; break;
        case TopoOp::kActivateTerminals: ++activates; break;
        default: FAIL() << "unexpected op in expansion timeline";
        }
    }
    EXPECT_EQ(adds, 2 * 5);  // 2 steps x (2 + 2 + 1) switches
    EXPECT_EQ(detaches, plan.rewired());
    EXPECT_EQ(attaches, 2 * plan.rewired());
    EXPECT_EQ(activates, 2);
    EXPECT_EQ(tl.initialDead().size(),
              static_cast<std::size_t>(2 * plan.rewired()));
    EXPECT_EQ(tl.firstDisruptionCycle(), 100);
    EXPECT_EQ(tl.lastEventCycle(), 100 + 50 + 8);
    EXPECT_EQ(plan.activeTerminalsAfter(plan.steps() - 1),
              plan.baseTerminals() + plan.addedTerminals());
    EXPECT_THROW(plan.liveTimeline(-1, 50, 8), std::invalid_argument);
}

TEST(ExpansionPlan, MorphOfBaseIntoFinalMatchesTheUnion)
{
    // planMorph is the generic morph; on (base, final) of a 1-step plan
    // it must rediscover exactly the plan's rewires and union fabric.
    Rng build_rng(73);
    auto base = buildRfcUnchecked(8, 3, 20, build_rng);
    Rng rng(79);
    ExpansionPlan plan(base, 1, rng);
    MorphPlan mp = planMorph(plan.base(), plan.finalTopology());
    EXPECT_EQ(static_cast<long long>(mp.detach.size()), plan.rewired());
    EXPECT_EQ(static_cast<long long>(mp.attach.size()),
              2 * plan.rewired());
    EXPECT_EQ(mp.to_terminals - mp.from_terminals,
              plan.addedTerminals());
    CheckResult same =
        sameTopology(mp.union_topology, plan.unionTopology());
    EXPECT_TRUE(same.ok) << same.message;
}

TEST(ExpansionPlan, MorphRejectsMisalignedTopologies)
{
    Rng rng(83);
    auto small = buildRfcUnchecked(8, 3, 20, rng);
    auto other_radix = buildRfcUnchecked(12, 3, 24, rng);
    auto two_level = buildRfcUnchecked(8, 2, 20, rng);
    ExpansionPlan plan(small, 1, rng);
    EXPECT_THROW(planMorph(small, other_radix), std::invalid_argument);
    EXPECT_THROW(planMorph(small, two_level), std::invalid_argument);
    // Shrinking is not a morph: to must dominate per level.
    EXPECT_THROW(planMorph(plan.finalTopology(), small),
                 std::invalid_argument);
}

} // namespace
} // namespace rfc
