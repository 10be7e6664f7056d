/**
 * @file
 * Tests for the up/down routing oracle (Section 4.1).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/oft.hpp"
#include "clos/expansion.hpp"
#include "clos/rfc.hpp"
#include "graph/algorithms.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

TEST(UpDownOracle, BelowSetsOnCft)
{
    auto fc = buildCft(4, 2);  // 4 leaves, 2 roots
    UpDownOracle oracle(fc);
    for (int leaf = 0; leaf < fc.numLeaves(); ++leaf) {
        EXPECT_EQ(oracle.below(leaf).count(), 1u);
        EXPECT_TRUE(oracle.below(leaf).test(leaf));
    }
    for (int r = fc.levelOffset(2); r < fc.numSwitches(); ++r)
        EXPECT_TRUE(oracle.below(r).all());
}

TEST(UpDownOracle, MinUpsSemantics)
{
    auto fc = buildCft(4, 3);
    UpDownOracle oracle(fc);
    // A leaf needs 0 ups for itself.
    EXPECT_EQ(oracle.minUps(0, 0), 0);
    // Leaves in the same 2-level subtree need 1 up.
    EXPECT_EQ(oracle.minUps(0, 1), 1);
    // Leaves in different subtrees need 2 ups.
    EXPECT_EQ(oracle.minUps(0, fc.numLeaves() - 1), 2);
}

TEST(UpDownOracle, LeafDistanceBoundedByDiameter)
{
    Rng rng(3);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    UpDownOracle oracle(built.topology);
    for (int a = 0; a < built.topology.numLeaves(); ++a)
        for (int b = 0; b < built.topology.numLeaves(); ++b) {
            int d = oracle.leafDistance(a, b);
            EXPECT_GE(d, a == b ? 0 : 2);
            EXPECT_LE(d, 4);
        }
}

TEST(UpDownOracle, UpDownDistanceAtLeastBfsDistance)
{
    // Up/down routes are a restricted path class: never shorter than
    // the unconstrained shortest path.
    Rng rng(17);
    auto built = buildRfc(8, 3, 50, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    Graph g = fc.toGraph();
    UpDownOracle oracle(fc);
    for (int a = 0; a < fc.numLeaves(); a += 3) {
        auto dist = bfsDistances(g, a);
        for (int b = 0; b < fc.numLeaves(); ++b) {
            if (a == b)
                continue;
            EXPECT_GE(oracle.leafDistance(a, b), dist[b]);
        }
    }
}

TEST(UpDownOracle, ChoicesMakeProgress)
{
    Rng rng(23);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    std::vector<int> choices;
    for (int a = 0; a < fc.numLeaves(); a += 5) {
        for (int b = 0; b < fc.numLeaves(); b += 7) {
            if (a == b)
                continue;
            int need = oracle.minUps(a, b);
            ASSERT_GE(need, 1);
            oracle.upChoices(fc, a, b, choices);
            ASSERT_FALSE(choices.empty());
            for (int idx : choices) {
                int p = fc.up(a)[idx];
                EXPECT_EQ(oracle.minUps(p, b), need - 1);
            }
        }
    }
}

TEST(UpDownOracle, DownChoicesLeadToDestination)
{
    auto fc = buildCft(6, 3);
    UpDownOracle oracle(fc);
    std::vector<int> choices;
    int root = fc.levelOffset(3);
    for (int d = 0; d < fc.numLeaves(); d += 4) {
        oracle.downChoices(fc, root, d, choices);
        ASSERT_FALSE(choices.empty());
        for (int idx : choices) {
            int c = fc.down(root)[idx];
            EXPECT_TRUE(oracle.below(c).test(d));
        }
    }
}

/**
 * One random minimal up/down hop from switch @p s toward leaf @p dest,
 * drawn with rng.pick over the oracle's minimal choices; -1 when dest
 * is unreachable.
 */
int
randomMinimalHop(const UpDownOracle &oracle, const FoldedClos &fc, int s,
                 int dest, Rng &rng)
{
    const int need = oracle.minUps(s, dest);
    if (need < 0)
        return -1;
    std::vector<int> choices;
    if (need == 0) {
        oracle.downChoices(fc, s, dest, choices);
        return choices.empty() ? -1 : fc.down(s)[rng.pick(choices)];
    }
    oracle.upChoices(fc, s, dest, choices);
    return choices.empty() ? -1 : fc.up(s)[rng.pick(choices)];
}

TEST(UpDownOracle, RandomNextHopWalksToDestination)
{
    Rng rng(31);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    // Walk random minimal hops; must reach dest in <= 4 hops.
    for (int trial = 0; trial < 100; ++trial) {
        int a = static_cast<int>(rng.uniform(fc.numLeaves()));
        int b = static_cast<int>(rng.uniform(fc.numLeaves()));
        int cur = a, hops = 0;
        while (cur != b) {
            cur = randomMinimalHop(oracle, fc, cur, b, rng);
            ASSERT_GE(cur, 0);
            ++hops;
            ASSERT_LE(hops, 4);
        }
        if (a != b)
            EXPECT_EQ(hops, oracle.leafDistance(a, b));
    }
}

TEST(UpDownOracle, RandomWalkNeverGoesDownThenUp)
{
    // Deadlock freedom: the up phase strictly precedes the down phase.
    Rng rng(37);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    for (int trial = 0; trial < 200; ++trial) {
        int a = static_cast<int>(rng.uniform(fc.numLeaves()));
        int b = static_cast<int>(rng.uniform(fc.numLeaves()));
        if (a == b)
            continue;
        int cur = a;
        bool went_down = false;
        while (cur != b) {
            int nxt = randomMinimalHop(oracle, fc, cur, b, rng);
            ASSERT_GE(nxt, 0);
            bool down_hop = fc.levelOf(nxt) < fc.levelOf(cur);
            if (down_hop)
                went_down = true;
            else
                ASSERT_FALSE(went_down) << "up hop after a down hop";
            cur = nxt;
        }
    }
}

TEST(UpDownOracle, RoutablePairFractionDropsWithFaults)
{
    Rng rng(41);
    auto built = buildRfc(8, 3, 62, rng);
    ASSERT_TRUE(built.routable);
    auto fc = built.topology;
    UpDownOracle before(fc);
    EXPECT_DOUBLE_EQ(before.routablePairFraction(), 1.0);
    // Remove a third of the links; routability degrades but the
    // fraction stays in (0, 1].
    removeRandomLinks(fc, fc.links().size() / 3, rng);
    UpDownOracle after(fc);
    double frac = after.routablePairFraction();
    EXPECT_LE(frac, 1.0);
    EXPECT_GT(frac, 0.1);
}

TEST(UpDownOracle, ReachMonotoneInUps)
{
    Rng rng(43);
    auto fc = buildRfcUnchecked(8, 3, 40, rng);
    UpDownOracle oracle(fc);
    for (int s = 0; s < fc.numSwitches(); s += 3) {
        for (int j = 1; j < fc.levels(); ++j) {
            // reach with j-1 ups is a subset of reach with j ups.
            auto a = oracle.reach(s, j - 1);
            a &= oracle.reach(s, j);
            EXPECT_TRUE(a == oracle.reach(s, j - 1));
        }
    }
}

namespace {

/**
 * Reference model: minimal up/down distance by explicit BFS over
 * (switch, phase) states, where phase 1 means "already went down".
 * Independent of the oracle's bitset recurrences.
 */
int
referenceUpDownDistance(const FoldedClos &fc, int a, int b)
{
    if (a == b)
        return 0;
    const int n = fc.numSwitches();
    std::vector<int> dist(2 * n, -1);
    std::vector<int> queue;
    dist[a] = 0;  // (a, phase 0)
    queue.push_back(a);
    for (std::size_t h = 0; h < queue.size(); ++h) {
        int state = queue[h];
        int s = state % n, phase = state / n;
        int d = dist[state];
        if (phase == 0) {
            for (int p : fc.up(s)) {
                if (dist[p] == -1) {
                    dist[p] = d + 1;
                    queue.push_back(p);
                }
            }
        }
        for (int c : fc.down(s)) {
            int nxt = n + c;
            if (dist[nxt] == -1) {
                dist[nxt] = d + 1;
                queue.push_back(nxt);
            }
        }
    }
    return dist[n + b];
}

} // namespace

class UpDownReferenceP
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(UpDownReferenceP, OracleMatchesPhaseBfsReference)
{
    auto [radix, levels, n1] = GetParam();
    Rng rng(1000ULL + radix * 10 + levels + n1);
    auto fc = buildRfcUnchecked(radix, levels, n1, rng);
    UpDownOracle oracle(fc);
    for (int a = 0; a < fc.numLeaves(); ++a)
        for (int b = 0; b < fc.numLeaves(); ++b)
            EXPECT_EQ(oracle.leafDistance(a, b),
                      referenceUpDownDistance(fc, a, b))
                << "pair " << a << "," << b;
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, UpDownReferenceP,
    ::testing::Values(std::tuple{4, 2, 8}, std::tuple{8, 2, 16},
                      std::tuple{4, 3, 10}, std::tuple{8, 3, 24},
                      std::tuple{6, 4, 12}, std::tuple{4, 4, 16},
                      std::tuple{12, 3, 36}));

TEST(UpDownOracle, FeasibleUpChoicesSupersetOfMinimal)
{
    Rng rng(53);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    std::vector<int> minimal, feasible;
    for (int a = 0; a < fc.numLeaves(); a += 3) {
        for (int b = 0; b < fc.numLeaves(); b += 5) {
            if (a == b)
                continue;
            oracle.upChoices(fc, a, b, minimal);
            oracle.feasibleUpChoices(fc, a, b, feasible);
            ASSERT_FALSE(feasible.empty());
            for (int idx : minimal)
                EXPECT_NE(std::find(feasible.begin(), feasible.end(),
                                    idx),
                          feasible.end());
            EXPECT_GE(feasible.size(), minimal.size());
        }
    }
}

TEST(UpDownOracle, FeasibleChoicesAlwaysLeadToDestination)
{
    // Walking random *feasible* parents (then minimal down) must reach
    // the destination within 2(l-1) hops - the non-minimal request
    // mode stays deadlock free and bounded.
    Rng rng(59);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    std::vector<int> choices;
    for (int trial = 0; trial < 200; ++trial) {
        int a = static_cast<int>(rng.uniform(fc.numLeaves()));
        int b = static_cast<int>(rng.uniform(fc.numLeaves()));
        if (a == b)
            continue;
        int cur = a, hops = 0;
        while (cur != b) {
            ASSERT_LE(++hops, 2 * (fc.levels() - 1));
            if (oracle.minUps(cur, b) == 0) {
                oracle.downChoices(fc, cur, b, choices);
                ASSERT_FALSE(choices.empty());
                cur = fc.down(cur)[rng.pick(choices)];
            } else {
                oracle.feasibleUpChoices(fc, cur, b, choices);
                ASSERT_FALSE(choices.empty());
                cur = fc.up(cur)[rng.pick(choices)];
            }
        }
    }
}

TEST(UpDownOracle, UnroutableDestinationReportsMinusOne)
{
    // Cut every link of one leaf: nothing can reach it.
    Rng rng(47);
    auto built = buildRfc(8, 2, 12, rng);
    auto fc = built.topology;
    std::vector<int> ups(fc.up(0).begin(), fc.up(0).end());
    for (int p : ups)
        fc.removeLink(0, p);
    UpDownOracle oracle(fc);
    EXPECT_EQ(oracle.minUps(1, 0), -1);
    EXPECT_EQ(oracle.leafDistance(1, 0), -1);
    EXPECT_FALSE(oracle.routable());
}

// ======================================================================
// nextHops: the list methods' choice sets as one port mask
// ======================================================================

/**
 * Check nextHops against minUps plus the list methods for every
 * (switch, leaf) pair of @p fc, in minimal and feasible mode, as whole
 * masks of maskWords() words; maskSelect must give the k-th list entry.
 * Counts the unreachable pairs into @p unreachable.
 */
void
expectNextHopsMatchLists(const FoldedClos &fc, const UpDownOracle &oracle,
                         long long &unreachable)
{
    std::size_t widest = 1;
    for (int s = 0; s < fc.numSwitches(); ++s)
        widest = std::max({widest, fc.up(s).size(), fc.down(s).size()});
    const int words = oracle.maskWords();
    ASSERT_EQ(static_cast<std::size_t>(words), (widest + 63) / 64);

    std::vector<int> list;
    std::vector<std::uint64_t> mask, want;
    for (bool feasible : {false, true}) {
        for (int s = 0; s < fc.numSwitches(); ++s) {
            for (int leaf = 0; leaf < fc.numLeaves(); ++leaf) {
                // Stale bits everywhere: nextHops must write every word.
                mask.assign(static_cast<std::size_t>(words), ~0ULL);
                want.assign(static_cast<std::size_t>(words), 0);
                const int need =
                    oracle.nextHops(fc, s, leaf, feasible, mask.data());
                ASSERT_EQ(need, oracle.minUps(s, leaf))
                    << "switch " << s << " leaf " << leaf;
                if (need < 0) {
                    EXPECT_EQ(mask, want);
                    ++unreachable;
                    continue;
                }
                if (need == 0)
                    oracle.downChoices(fc, s, leaf, list);
                else if (feasible)
                    oracle.feasibleUpChoices(fc, s, leaf, list);
                else
                    oracle.upChoices(fc, s, leaf, list);
                for (int i : list)
                    want[static_cast<std::size_t>(i / 64)] |=
                        std::uint64_t{1} << (i % 64);
                EXPECT_EQ(mask, want)
                    << "switch " << s << " leaf " << leaf << " feasible "
                    << feasible;
                ASSERT_EQ(UpDownOracle::maskCount(mask.data(), words),
                          static_cast<int>(list.size()));
                for (std::size_t k = 0; k < list.size(); ++k)
                    EXPECT_EQ(UpDownOracle::maskSelect(mask.data(), k),
                              list[k]);
            }
        }
    }
}

/** Kill every @p stride-th link of @p fc in @p overlay. */
void
killEvery(const FoldedClos &fc, LinkFaultState &overlay, std::size_t stride)
{
    const auto links = fc.links();
    for (std::size_t i = 0; i < links.size(); i += stride)
        ASSERT_TRUE(overlay.setLink(links[i].lower, links[i].upper, true));
}

TEST(UpDownOracle, NextHopsMatchListMethodsExhaustively)
{
    Rng rng(61);
    std::vector<FoldedClos> nets;
    nets.push_back(buildCft(8, 3));
    nets.push_back(buildRfcUnchecked(8, 3, 24, rng));
    nets.push_back(buildRfcUnchecked(6, 4, 12, rng));
    nets.push_back(buildOft(2, 3));
    // Radix 100: 100 down ports per spine, a 2-word mask.  Radix 130:
    // 65 up ports per leaf and 130 down per spine, a 3-word mask.
    nets.push_back(buildCft(100, 2));
    nets.push_back(buildCft(130, 2));
    long long unreachable = 0;
    std::set<int> widths;
    for (const auto &fc : nets) {
        SCOPED_TRACE(fc.numSwitches());
        UpDownOracle pristine(fc);
        widths.insert(pristine.maskWords());
        expectNextHopsMatchLists(fc, pristine, unreachable);

        LinkFaultState overlay(fc);
        killEvery(fc, overlay, 5);
        UpDownOracle faulty;
        faulty.build(fc, &overlay);
        ASSERT_GT(overlay.deadLinks(), 0u);
        expectNextHopsMatchLists(fc, faulty, unreachable);
    }
    EXPECT_GT(unreachable, 0);  // the need == -1 case ran
    EXPECT_EQ(widths, (std::set<int>{1, 2, 3}));
}

// ======================================================================
// The flat reach array against the per-budget bitsets it replaced
// ======================================================================

/**
 * The oracle's storage before the flat reach array: one DynBitset per
 * (budget, switch) for every budget below levels, built with the same
 * OR recurrences, and every query as it read those bitsets.
 */
class LegacyOracle
{
  public:
    LegacyOracle(const FoldedClos &fc, const LinkFaultState *faults)
        : levels_(fc.levels()), faults_(faults)
    {
        const int s_count = fc.numSwitches();
        const int leaves = fc.numLeaves();
        std::size_t widest = 1;
        for (int s = 0; s < s_count; ++s)
            widest = std::max({widest, fc.up(s).size(), fc.down(s).size()});
        mask_words_ = static_cast<int>((widest + 63) / 64);
        reach_.assign(levels_,
                      std::vector<DynBitset>(
                          s_count,
                          DynBitset(static_cast<std::size_t>(leaves))));
        for (int leaf = 0; leaf < leaves; ++leaf)
            reach_[0][leaf].set(static_cast<std::size_t>(leaf));
        for (int lv = 2; lv <= levels_; ++lv) {
            const int lo = fc.levelOffset(lv);
            const int hi = lo + fc.switchesAtLevel(lv);
            for (int s = lo; s < hi; ++s) {
                const auto &down = fc.down(s);
                for (std::size_t i = 0; i < down.size(); ++i)
                    if (downAlive(s, i))
                        reach_[0][s] |= reach_[0][down[i]];
            }
        }
        for (int j = 1; j < levels_; ++j) {
            for (int s = 0; s < s_count; ++s) {
                reach_[j][s] = reach_[j - 1][s];
                const auto &up = fc.up(s);
                for (std::size_t i = 0; i < up.size(); ++i)
                    if (upAlive(s, i))
                        reach_[j][s] |= reach_[j - 1][up[i]];
            }
        }
    }

    const DynBitset &reach(int s, int j) const { return reach_[j][s]; }
    int maskWords() const { return mask_words_; }

    int
    minUps(int s, int d) const
    {
        for (int j = 0; j < levels_; ++j)
            if (reach_[j][s].test(static_cast<std::size_t>(d)))
                return j;
        return -1;
    }

    int
    leafDistance(int a, int b) const
    {
        if (a == b)
            return 0;
        const int j = minUps(a, b);
        return j < 0 ? -1 : 2 * j;
    }

    double
    averageLeafDistance() const
    {
        double total = 0.0;
        long long pairs = 0;
        for (std::size_t leaf = 0; leaf < reach_[0][0].size(); ++leaf) {
            std::size_t prev = 1;
            for (int j = 1; j < levels_; ++j) {
                const std::size_t cur = reach_[j][leaf].count();
                total += 2.0 * j * static_cast<double>(cur - prev);
                pairs += static_cast<long long>(cur - prev);
                prev = cur;
            }
        }
        return pairs ? total / static_cast<double>(pairs) : 0.0;
    }

    bool
    routable() const
    {
        for (std::size_t leaf = 0; leaf < reach_[0][0].size(); ++leaf)
            if (!reach_[levels_ - 1][leaf].all())
                return false;
        return true;
    }

    double
    routablePairFraction() const
    {
        const auto n = static_cast<long long>(reach_[0][0].size());
        if (n < 2)
            return 1.0;
        long long good = 0;
        for (long long leaf = 0; leaf < n; ++leaf)
            good += static_cast<long long>(
                reach_[levels_ - 1][static_cast<std::size_t>(leaf)].count());
        good -= n;
        return static_cast<double>(good) / static_cast<double>(n * (n - 1));
    }

    void
    downChoices(const FoldedClos &fc, int s, int d,
                std::vector<int> &out) const
    {
        out.clear();
        const auto &down = fc.down(s);
        for (std::size_t i = 0; i < down.size(); ++i)
            if (downAlive(s, i) &&
                reach_[0][down[i]].test(static_cast<std::size_t>(d)))
                out.push_back(static_cast<int>(i));
    }

    void
    upChoices(const FoldedClos &fc, int s, int d,
              std::vector<int> &out) const
    {
        out.clear();
        const int need = minUps(s, d);
        if (need >= 1)
            upChoicesAt(fc, s, d, need - 1, out);
    }

    void
    feasibleUpChoices(const FoldedClos &fc, int s, int d,
                      std::vector<int> &out) const
    {
        out.clear();
        if (!fc.up(s).empty())
            upChoicesAt(fc, s, d, levels_ - fc.levelOf(s) - 1, out);
    }

    int
    nextHops(const FoldedClos &fc, int s, int d, bool feasible,
             std::uint64_t *mask) const
    {
        std::fill_n(mask, mask_words_, std::uint64_t{0});
        const auto dd = static_cast<std::size_t>(d);
        int need = 0;
        while (!reach_[need][s].test(dd))
            if (++need == levels_)
                return -1;
        if (need == 0) {
            const auto down = fc.down(s);
            for (std::size_t i = 0; i < down.size(); ++i)
                if (downAlive(s, i) && reach_[0][down[i]].test(dd))
                    mask[i / 64] |= std::uint64_t{1} << (i % 64);
            return need;
        }
        const auto up = fc.up(s);
        const int budget =
            feasible ? levels_ - fc.levelOf(s) - 1 : need - 1;
        for (std::size_t i = 0; i < up.size(); ++i)
            if (upAlive(s, i) && reach_[budget][up[i]].test(dd))
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
        return need;
    }

  private:
    bool upAlive(int s, std::size_t i) const
    {
        return !faults_ || !faults_->upDead(s, i);
    }

    bool downAlive(int s, std::size_t i) const
    {
        return !faults_ || !faults_->downDead(s, i);
    }

    void
    upChoicesAt(const FoldedClos &fc, int s, int d, int budget,
                std::vector<int> &out) const
    {
        const auto &up = fc.up(s);
        for (std::size_t i = 0; i < up.size(); ++i)
            if (upAlive(s, i) &&
                reach_[budget][up[i]].test(static_cast<std::size_t>(d)))
                out.push_back(static_cast<int>(i));
    }

    int levels_;
    int mask_words_ = 1;
    std::vector<std::vector<DynBitset>> reach_;
    const LinkFaultState *faults_;
};

/**
 * Every answer of @p oracle (built on @p fc) bit-equal to the legacy
 * replica's for every switch and leaf, and its tables equal to a fresh
 * build's.  Counts the unreachable (switch, leaf) pairs into
 * @p unreachable.
 */
void
expectMatchesLegacy(const FoldedClos &fc, const UpDownOracle &oracle,
                    long long &unreachable)
{
    const LegacyOracle legacy(fc, oracle.faultOverlay());
    const int leaves = fc.numLeaves();
    ASSERT_EQ(oracle.maskWords(), legacy.maskWords());
    const auto words = static_cast<std::size_t>(oracle.maskWords());
    std::vector<std::uint64_t> mask(words), want(words);
    std::vector<int> got_list, want_list;
    for (int s = 0; s < fc.numSwitches(); ++s) {
        for (int j = 0; j < fc.levels(); ++j)
            ASSERT_TRUE(oracle.reach(s, j) == legacy.reach(s, j))
                << "switch " << s << " budget " << j;
        ASSERT_TRUE(oracle.below(s) == legacy.reach(s, 0)) << s;
        for (int d = 0; d < leaves; ++d) {
            const int need = legacy.minUps(s, d);
            ASSERT_EQ(oracle.minUps(s, d), need) << s << " " << d;
            unreachable += need < 0;
            for (bool feasible : {false, true}) {
                EXPECT_EQ(oracle.nextHops(fc, s, d, feasible, mask.data()),
                          legacy.nextHops(fc, s, d, feasible, want.data()));
                EXPECT_EQ(mask, want) << "switch " << s << " leaf " << d
                                      << " feasible " << feasible;
            }
            oracle.downChoices(fc, s, d, got_list);
            legacy.downChoices(fc, s, d, want_list);
            EXPECT_EQ(got_list, want_list) << s << " " << d;
            oracle.upChoices(fc, s, d, got_list);
            legacy.upChoices(fc, s, d, want_list);
            EXPECT_EQ(got_list, want_list) << s << " " << d;
            oracle.feasibleUpChoices(fc, s, d, got_list);
            legacy.feasibleUpChoices(fc, s, d, want_list);
            EXPECT_EQ(got_list, want_list) << s << " " << d;
        }
    }
    for (int a = 0; a < leaves; ++a)
        for (int b = 0; b < leaves; ++b)
            ASSERT_EQ(oracle.leafDistance(a, b), legacy.leafDistance(a, b));
    EXPECT_EQ(oracle.routable(), legacy.routable());
    EXPECT_EQ(oracle.routablePairFraction(), legacy.routablePairFraction());
    EXPECT_EQ(oracle.averageLeafDistance(), legacy.averageLeafDistance());

    UpDownOracle fresh;
    fresh.build(fc, oracle.faultOverlay());
    EXPECT_TRUE(oracle.sameTables(fresh));
}

/**
 * The legacy comparison on @p fc pristine and under an overlay with
 * dead links at every level pair (so dead up and dead down ports).
 */
void
expectMatchesLegacyWithFaults(const FoldedClos &fc, long long &unreachable)
{
    UpDownOracle pristine(fc);
    expectMatchesLegacy(fc, pristine, unreachable);

    LinkFaultState overlay(fc);
    killEvery(fc, overlay, 4);
    ASSERT_GT(overlay.deadLinks(), 0u);
    UpDownOracle faulty;
    faulty.build(fc, &overlay);
    expectMatchesLegacy(fc, faulty, unreachable);
}

TEST(UpDownLegacyEquivalence, FlatReachMatchesPerBudgetBitsets)
{
    Rng rng(73);
    std::vector<FoldedClos> nets;
    nets.push_back(buildCft(8, 3));
    nets.push_back(buildCft(8, 4));
    nets.push_back(buildOft(2, 3));
    nets.push_back(buildRfcUnchecked(8, 3, rfcMaxLeaves(8, 3), rng));
    nets.push_back(buildRfcUnchecked(12, 3, rfcMaxLeaves(12, 3), rng));
    long long unreachable = 0;
    for (const auto &fc : nets) {
        SCOPED_TRACE(fc.name());
        expectMatchesLegacyWithFaults(fc, unreachable);
    }
    EXPECT_GT(unreachable, 0);  // the need == -1 case ran
}

TEST(UpDownLegacyEquivalence, RebuildAfterExpansionStageMatches)
{
    // One oracle object rebuilt as an expansion stage grows the switch
    // count: every level's base and stride move.
    Rng build_rng(79);
    const auto base = buildRfcUnchecked(8, 3, 40, build_rng);
    Rng rng(83);
    ExpansionPlan plan(base, 2, rng);
    UpDownOracle oracle(base);
    FoldedClos live = plan.preStaged();
    ASSERT_GT(live.numSwitches(), base.numSwitches());
    plan.applyStage(live, plan.stages().front());
    oracle.build(live);
    long long unreachable = 0;
    expectMatchesLegacy(live, oracle, unreachable);

    LinkFaultState overlay(live);
    killEvery(live, overlay, 4);
    oracle.build(live, &overlay);
    expectMatchesLegacy(live, oracle, unreachable);
    EXPECT_GT(unreachable, 0);  // the staged network's new leaves
}

// ======================================================================
// Pooled rows against a replica of the dense level-major build
// ======================================================================

/**
 * Test-only replica of the oracle's earlier dense build: one row per
 * (switch, budget up to its ceiling), level-major, each level's rows
 * budget by budget in switch order, every row computed in place.
 * Kept as the reference the pooled rows and their offset runs must
 * reproduce bit for bit.
 */
class DenseOracle
{
  public:
    DenseOracle(const FoldedClos &fc, const LinkFaultState *faults)
        : levels_(fc.levels()), faults_(faults)
    {
        std::size_t widest = 1;
        for (int s = 0; s < fc.numSwitches(); ++s)
            widest = std::max({widest, fc.up(s).size(), fc.down(s).size()});
        mask_words_ = static_cast<int>((widest + 63) / 64);
        row_words_ = (static_cast<std::size_t>(fc.numLeaves()) + 63) / 64;
        std::size_t total = 0;
        for (int lv = 0; lv < levels_; ++lv) {
            first_.push_back(fc.levelOffset(lv + 1));
            base_.push_back(total);
            stride_.push_back(
                static_cast<std::size_t>(fc.switchesAtLevel(lv + 1)) *
                row_words_);
            total += static_cast<std::size_t>(levels_ - lv) * stride_.back();
        }
        words_.assign(total, 0);
        for (int leaf = 0; leaf < fc.numLeaves(); ++leaf)
            row(leaf, 0)[static_cast<std::size_t>(leaf) >> 6] |=
                std::uint64_t{1} << (leaf & 63);
        for (int lv = 1; lv < levels_; ++lv)
            for (int s = first_[static_cast<std::size_t>(lv)];
                 s < first_[static_cast<std::size_t>(lv)] +
                         fc.switchesAtLevel(lv + 1);
                 ++s) {
                const auto down = fc.down(s);
                for (std::size_t i = 0; i < down.size(); ++i)
                    if (downAlive(s, i))
                        orInto(row(s, 0), row(down[i], 0));
            }
        for (int lv = levels_ - 2; lv >= 0; --lv)
            for (int j = 1; j <= levels_ - 1 - lv; ++j)
                for (int s = first_[static_cast<std::size_t>(lv)];
                     s < first_[static_cast<std::size_t>(lv)] +
                             fc.switchesAtLevel(lv + 1);
                     ++s) {
                    orInto(row(s, j), row(s, j - 1));
                    const auto up = fc.up(s);
                    for (std::size_t i = 0; i < up.size(); ++i)
                        if (upAlive(s, i))
                            orInto(row(s, j), row(up[i], j - 1));
                }
    }

    int maskWords() const { return mask_words_; }
    std::size_t rowWords() const { return row_words_; }

    /** Row (s, j), the ceiling row for j above s's ceiling. */
    const std::uint64_t *
    reachWords(int s, int j) const
    {
        return const_cast<DenseOracle *>(this)->row(
            s, std::min(j, levels_ - 1 - levelIndex(s)));
    }

    int
    minUps(int s, int d) const
    {
        for (int j = 0; j <= levels_ - 1 - levelIndex(s); ++j)
            if (has(reachWords(s, j), d))
                return j;
        return -1;
    }

    int
    nextHops(const FoldedClos &fc, int s, int d, bool feasible,
             std::uint64_t *mask) const
    {
        std::fill_n(mask, mask_words_, std::uint64_t{0});
        const int need = minUps(s, d);
        if (need < 0)
            return need;
        if (need == 0) {
            const auto down = fc.down(s);
            for (std::size_t i = 0; i < down.size(); ++i)
                if (downAlive(s, i) && has(reachWords(down[i], 0), d))
                    mask[i / 64] |= std::uint64_t{1} << (i % 64);
            return need;
        }
        const int ceiling = levels_ - 1 - levelIndex(s);
        const auto up = fc.up(s);
        for (std::size_t i = 0; i < up.size(); ++i)
            if (upAlive(s, i) &&
                has(reachWords(up[i], feasible ? ceiling - 1 : need - 1), d))
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
        return need;
    }

  private:
    int
    levelIndex(int s) const
    {
        int lv = levels_ - 1;
        while (s < first_[static_cast<std::size_t>(lv)])
            --lv;
        return lv;
    }

    std::uint64_t *
    row(int s, int j)
    {
        const auto lv = static_cast<std::size_t>(levelIndex(s));
        return words_.data() + base_[lv] +
               static_cast<std::size_t>(j) * stride_[lv] +
               static_cast<std::size_t>(s - first_[lv]) * row_words_;
    }

    void
    orInto(std::uint64_t *dst, const std::uint64_t *src) const
    {
        for (std::size_t w = 0; w < row_words_; ++w)
            dst[w] |= src[w];
    }

    static bool
    has(const std::uint64_t *row, int d)
    {
        return (row[static_cast<std::size_t>(d) >> 6] >> (d & 63)) & 1;
    }

    bool upAlive(int s, std::size_t i) const
    {
        return !faults_ || !faults_->upDead(s, i);
    }

    bool downAlive(int s, std::size_t i) const
    {
        return !faults_ || !faults_->downDead(s, i);
    }

    int levels_;
    int mask_words_ = 1;
    std::size_t row_words_ = 0;
    std::vector<int> first_;
    std::vector<std::size_t> base_, stride_;
    std::vector<std::uint64_t> words_;
    const LinkFaultState *faults_;
};

/**
 * Every reachWords(s, j) for j < levels, every minUps and every
 * nextHops mask, minimal and feasible, of @p oracle (built on @p fc
 * under its own overlay) equal to the dense replica's.
 */
void
expectMatchesDense(const FoldedClos &fc, const UpDownOracle &oracle)
{
    const DenseOracle dense(fc, oracle.faultOverlay());
    ASSERT_EQ(oracle.maskWords(), dense.maskWords());
    const std::size_t row_words = dense.rowWords();
    const auto words = static_cast<std::size_t>(oracle.maskWords());
    std::vector<std::uint64_t> mask(words), want(words);
    for (int s = 0; s < fc.numSwitches(); ++s) {
        for (int j = 0; j < fc.levels(); ++j)
            ASSERT_TRUE(std::equal(oracle.reachWords(s, j),
                                   oracle.reachWords(s, j) + row_words,
                                   dense.reachWords(s, j)))
                << "switch " << s << " budget " << j;
        for (int d = 0; d < fc.numLeaves(); ++d) {
            ASSERT_EQ(oracle.minUps(s, d), dense.minUps(s, d))
                << "switch " << s << " leaf " << d;
            for (bool feasible : {false, true}) {
                ASSERT_EQ(oracle.nextHops(fc, s, d, feasible, mask.data()),
                          dense.nextHops(fc, s, d, feasible, want.data()));
                ASSERT_EQ(mask, want) << "switch " << s << " leaf " << d
                                      << " feasible " << feasible;
            }
        }
    }
}

/**
 * Flip each link's state in @p overlay with probability @p p; returns
 * the number of links revived.
 */
std::size_t
flipRandomLinks(const FoldedClos &fc, LinkFaultState &overlay, double p,
                Rng &rng)
{
    std::size_t revived = 0;
    for (const auto &link : fc.links())
        if (rng.uniformReal() < p &&
            !overlay.setLink(link.lower, link.upper, true)) {
            EXPECT_TRUE(overlay.setLink(link.lower, link.upper, false));
            ++revived;
        }
    return revived;
}

TEST(UpDownDenseEquivalence, PooledRowsMatchDenseBuild)
{
    // Plain, under a random dead-link overlay, and one oracle object
    // rebuilt after links flip both ways.  CFT(132,2) has 3-word rows
    // and 3-word masks.
    Rng rng(97);
    std::vector<FoldedClos> nets;
    for (int i = 0; i < 3; ++i) {
        const int radix = 2 * static_cast<int>(rng.uniformInRange(2, 6));
        const int levels = static_cast<int>(rng.uniformInRange(2, 4));
        nets.push_back(buildCft(radix, levels));
        const int n1 = 2 * static_cast<int>(rng.uniformInRange(
                               radix / 2, rfcMaxLeaves(radix, 3)));
        nets.push_back(buildRfcUnchecked(radix, 3, n1, rng));
        nets.push_back(buildRfcUnchecked(radix, 4, n1, rng));
    }
    nets.push_back(buildOft(2, 3));
    nets.push_back(buildOft(3, 2));
    nets.push_back(buildCft(132, 2));
    bool multi_word = false;
    for (const auto &fc : nets) {
        SCOPED_TRACE(fc.name());
        multi_word |= fc.numLeaves() > 64;
        UpDownOracle oracle(fc);
        expectMatchesDense(fc, oracle);

        LinkFaultState overlay(fc);
        flipRandomLinks(fc, overlay, 0.15, rng);
        ASSERT_GT(overlay.deadLinks(), 0u);
        oracle.build(fc, &overlay);
        expectMatchesDense(fc, oracle);

        ASSERT_GT(flipRandomLinks(fc, overlay, 0.3, rng), 0u);
        ASSERT_GT(overlay.deadLinks(), 0u);
        oracle.build(fc, &overlay);
        expectMatchesDense(fc, oracle);

        // Copies own their pool: the source is rebuilt under them.
        const UpDownOracle copy = oracle;
        UpDownOracle assigned;
        assigned = oracle;
        oracle.build(fc);
        expectMatchesDense(fc, copy);
        EXPECT_TRUE(copy.sameTables(assigned));
        EXPECT_FALSE(copy.sameTables(oracle));
    }
    EXPECT_TRUE(multi_word);
}

// ======================================================================
// Oracle bytes: one copy of each distinct row, plus the offset runs
// ======================================================================

/**
 * The dense bound: 8 x ceil(N1 / 64) x sum_L switchesAtLevel(L) x
 * (levels - L + 1), one row per switch and stored budget.  The pool
 * never holds more rows than that.
 */
std::int64_t
plannedOracleBytes(const FoldedClos &fc)
{
    std::int64_t rows = 0;
    for (int lv = 1; lv <= fc.levels(); ++lv)
        rows += static_cast<std::int64_t>(fc.switchesAtLevel(lv)) *
                (fc.levels() - lv + 1);
    return 8 * ((fc.numLeaves() + 63) / 64) * rows;
}

/** Distinct rows among reachWords(s, j), j up to each ceiling. */
std::int64_t
distinctRows(const FoldedClos &fc, const UpDownOracle &oracle)
{
    const auto words = static_cast<std::size_t>((fc.numLeaves() + 63) / 64);
    std::set<std::vector<std::uint64_t>> rows;
    for (int s = 0; s < fc.numSwitches(); ++s)
        for (int j = 0; j <= fc.levels() - fc.levelOf(s); ++j)
            rows.emplace(oracle.reachWords(s, j),
                         oracle.reachWords(s, j) + words);
    return static_cast<std::int64_t>(rows.size());
}

/**
 * 8 x ceil(N1 / 64) x D + 4 x (run entries + switches): each switch
 * at level L runs c + 1 own entries, c x |up| parent entries and
 * |down| child entries, c = levels - L its ceiling.
 */
std::int64_t
pooledOracleBytes(const FoldedClos &fc, std::int64_t distinct)
{
    std::int64_t entries = 0;
    for (int s = 0; s < fc.numSwitches(); ++s) {
        const auto c = static_cast<std::int64_t>(fc.levels() - fc.levelOf(s));
        entries += c + 1 + c * static_cast<std::int64_t>(fc.up(s).size()) +
                   static_cast<std::int64_t>(fc.down(s).size());
    }
    return 8 * ((fc.numLeaves() + 63) / 64) * distinct +
           4 * (entries + fc.numSwitches());
}

/** The CFT(R, l) subtree count N1 + sum_{k=2}^{l-1} N1/(R/2)^(k-1) + 1. */
std::int64_t
cftDistinctRows(int radix, int levels, int n1)
{
    std::int64_t rows = n1 + 1;
    std::int64_t width = n1;
    for (int k = 2; k <= levels - 1; ++k)
        rows += width /= radix / 2;
    return rows;
}

TEST(UpDownOracle, MemoryBytesCountsDistinctRowsAndRuns)
{
    EXPECT_EQ(UpDownOracle().memoryBytes(), 0);
    Rng rng(89);
    std::vector<FoldedClos> nets;
    for (int i = 0; i < 6; ++i) {
        const int radix = 2 * static_cast<int>(rng.uniformInRange(2, 6));
        const int levels = static_cast<int>(rng.uniformInRange(2, 4));
        nets.push_back(buildCft(radix, levels));
        int n1 = 2 * static_cast<int>(rng.uniformInRange(
                         radix / 2, std::max(radix, rfcMaxLeaves(radix, 3))));
        nets.push_back(buildRfcUnchecked(radix, 3, n1, rng));
    }
    nets.push_back(buildOft(2, 2));
    nets.push_back(buildOft(3, 3));
    bool multi_word = false, shared = false;
    for (const auto &fc : nets) {
        SCOPED_TRACE(fc.name());
        UpDownOracle oracle(fc);
        const std::int64_t distinct = distinctRows(fc, oracle);
        EXPECT_EQ(oracle.memoryBytes(), pooledOracleBytes(fc, distinct));
        EXPECT_LE(8 * ((fc.numLeaves() + 63) / 64) * distinct,
                  plannedOracleBytes(fc));
        shared |= 8 * ((fc.numLeaves() + 63) / 64) * distinct <
                  plannedOracleBytes(fc);
        multi_word |= fc.numLeaves() > 64;

        LinkFaultState overlay(fc);
        killEvery(fc, overlay, 3);
        UpDownOracle faulty;
        faulty.build(fc, &overlay);
        EXPECT_EQ(faulty.memoryBytes(),
                  pooledOracleBytes(fc, distinctRows(fc, faulty)));
    }
    EXPECT_TRUE(multi_word);
    EXPECT_TRUE(shared);
}

TEST(UpDownOracle, CftStoresOneRowPerSubtree)
{
    // Every switch of a CFT subtree reaches the same leaves: level-k
    // subtrees give the distinct rows, plus the all-leaves row.
    const std::vector<std::array<int, 3>> cases = {
        {20, 4, 2221}, {36, 3, 685}, {12, 4, 517}};
    for (const auto &[radix, levels, want] : cases) {
        const FoldedClos fc = buildCft(radix, levels);
        SCOPED_TRACE(fc.name());
        ASSERT_EQ(cftDistinctRows(radix, levels, fc.numLeaves()), want);
        const UpDownOracle oracle(fc);
        EXPECT_EQ(distinctRows(fc, oracle), want);
        EXPECT_EQ(oracle.memoryBytes(), pooledOracleBytes(fc, want));
    }
    Rng rng(101);
    for (int i = 0; i < 6; ++i) {
        const int radix = 2 * static_cast<int>(rng.uniformInRange(2, 8));
        const int levels = static_cast<int>(rng.uniformInRange(2, 4));
        const FoldedClos fc = buildCft(radix, levels);
        SCOPED_TRACE(fc.name());
        const UpDownOracle oracle(fc);
        EXPECT_EQ(distinctRows(fc, oracle),
                  cftDistinctRows(radix, levels, fc.numLeaves()));
    }
}

} // namespace
} // namespace rfc
