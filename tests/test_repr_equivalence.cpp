/**
 * @file
 * Representation-equivalence tests for the million-terminal scale tier
 * (tier 1).
 *
 * The CSR FoldedClos core and the hash-consed compressed
 * ForwardingTables replaced vector-of-vector representations whose
 * semantics (construction order, swap-remove mutation, per-entry port
 * order) other layers observe.  These tests pin the new
 * representations to executable replicas of the legacy ones over
 * randomized small RFCs (check/prop forAll), plus the scale-boundary
 * overflow guards that make the 1M-terminal operating point reachable:
 *
 *  - CSR adjacency == legacy per-level randomBipartiteGraph assembly
 *    (same wiring seed, element order included);
 *  - addLink/removeLink == push_back / swap-remove shadow model under
 *    random mutation sequences;
 *  - compressed ports(sw, dest) == a dense vector-of-vector rebuild
 *    from the same oracle, element order included, with all four
 *    counters equal to a replay of the encoding and a real compression
 *    win - on plain, dead-link-overlay, radix-72 and expansion-union
 *    fabrics;
 *  - setPorts is copy-on-write: pre-mutation views stay valid and the
 *    shared pool is untouched for every other entry;
 *  - int-overflow guards at the sizes where the legacy code wrapped
 *    (rfcMaxLeaves at R=54 l=5, buildOft3 at q ~ 1290, dense-bytes
 *    formula at 1M-terminal parameters).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analysis/scalability.hpp"
#include "check/prop.hpp"
#include "clos/expansion.hpp"
#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/oft.hpp"
#include "clos/projective.hpp"
#include "clos/rfc.hpp"
#include "graph/random_bipartite.hpp"
#include "routing/tables.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

const std::function<TopoParams(Rng &, int)> kGenTopo = genTopoParams;
const std::function<std::vector<TopoParams>(const TopoParams &)>
    kShrinkTopo = shrinkTopoParams;
const std::function<std::string(const TopoParams &)> kDescribeTopo =
    describeTopoParams;

/** Legacy-style adjacency model: per-switch heap vectors. */
struct ShadowAdj
{
    std::vector<std::vector<int>> up, down;

    explicit ShadowAdj(int num_switches)
        : up(static_cast<std::size_t>(num_switches)),
          down(static_cast<std::size_t>(num_switches))
    {
    }

    void
    add(int lower, int upper)
    {
        up[static_cast<std::size_t>(lower)].push_back(upper);
        down[static_cast<std::size_t>(upper)].push_back(lower);
    }

    /** The legacy swap-remove of one link occurrence. */
    bool
    remove(int lower, int upper)
    {
        auto &u = up[static_cast<std::size_t>(lower)];
        auto it = std::find(u.begin(), u.end(), upper);
        if (it == u.end())
            return false;
        *it = u.back();
        u.pop_back();
        auto &d = down[static_cast<std::size_t>(upper)];
        auto dit = std::find(d.begin(), d.end(), lower);
        *dit = d.back();
        d.pop_back();
        return true;
    }
};

/** Element-order-sensitive comparison of a CSR topology vs a shadow. */
CheckResult
compareAdjacency(const FoldedClos &fc, const ShadowAdj &shadow)
{
    for (int s = 0; s < fc.numSwitches(); ++s) {
        const auto us = fc.up(s);
        const auto &su = shadow.up[static_cast<std::size_t>(s)];
        if (!std::equal(us.begin(), us.end(), su.begin(), su.end()))
            return CheckResult::fail("up(" + std::to_string(s) +
                                     ") diverges from legacy model");
        const auto ds = fc.down(s);
        const auto &sd = shadow.down[static_cast<std::size_t>(s)];
        if (!std::equal(ds.begin(), ds.end(), sd.begin(), sd.end()))
            return CheckResult::fail("down(" + std::to_string(s) +
                                     ") diverges from legacy model");
    }
    return CheckResult::pass();
}

TEST(ReprEquivalence, CsrMatchesLegacyLevelAssemblyOnRandomRfcs)
{
    // Replay the generator against the pre-CSR construction: one
    // randomBipartiteGraph (vector-of-vector) per level pair, links
    // pushed left-major.  Same wiring seed must give byte-identical
    // adjacency in identical element order.
    PropConfig cfg;
    cfg.cases = 50;
    cfg.seed = 601;
    cfg.max_size = 45;
    auto res = forAll<TopoParams>(
        cfg, kGenTopo,
        [](const TopoParams &p) {
            FoldedClos fc = materializeTopo(p);
            ShadowAdj shadow(fc.numSwitches());
            Rng rng(p.wiring_seed);
            const int m = p.radix / 2;
            for (int lv = 1; lv < p.levels; ++lv) {
                const int lower_n = fc.switchesAtLevel(lv);
                const int upper_n = fc.switchesAtLevel(lv + 1);
                const int upper_deg = (lv + 1 == p.levels) ? p.radix : m;
                const int lo = fc.levelOffset(lv);
                const int uo = fc.levelOffset(lv + 1);
                BipartiteGraph bg = randomBipartiteGraph(
                    lower_n, m, upper_n, upper_deg, rng);
                for (int u = 0; u < lower_n; ++u)
                    for (int v : bg.adj1[static_cast<std::size_t>(u)])
                        shadow.add(lo + u, uo + v);
            }
            return compareAdjacency(fc, shadow);
        },
        kShrinkTopo, kDescribeTopo);
    EXPECT_TRUE(res.passed) << res.report();
    EXPECT_EQ(res.cases_run, 50);
}

TEST(ReprEquivalence, MutationsMatchSwapRemoveShadowModel)
{
    // Random interleavings of removeLink (uniform existing wire) and
    // addLink (possibly re-adding, possibly duplicating) against the
    // push_back / swap-remove shadow.  CSR in-segment order must track
    // the legacy vectors exactly, including duplicate multiplicity.
    PropConfig cfg;
    cfg.cases = 40;
    cfg.seed = 602;
    cfg.max_size = 35;
    auto res = forAll<TopoParams>(
        cfg, kGenTopo,
        [](const TopoParams &p) {
            FoldedClos fc = materializeTopo(p);
            ShadowAdj shadow(fc.numSwitches());
            for (int s = 0; s < fc.numSwitches(); ++s) {
                const auto us = fc.up(s);
                for (std::size_t i = 0; i < us.size(); ++i)
                    shadow.up[static_cast<std::size_t>(s)].push_back(
                        us[i]);
                const auto ds = fc.down(s);
                for (std::size_t i = 0; i < ds.size(); ++i)
                    shadow.down[static_cast<std::size_t>(s)].push_back(
                        ds[i]);
            }

            Rng rng(deriveSeed(p.wiring_seed, 0x6d7574ULL, 0));
            const int ops = 2 * p.n1 + 8;
            std::vector<std::pair<int, int>> removed;
            for (int op = 0; op < ops; ++op) {
                const bool do_remove =
                    removed.empty() || rng.uniform(3) != 0;
                if (do_remove) {
                    // Pick a random present wire via a random non-empty
                    // up segment.
                    int s = static_cast<int>(
                        rng.uniform(static_cast<std::uint64_t>(
                            fc.numSwitches())));
                    const auto us = fc.up(s);
                    if (us.empty())
                        continue;
                    int upper = us[static_cast<std::size_t>(rng.uniform(
                        static_cast<std::uint64_t>(us.size())))];
                    const bool a = fc.removeLink(s, upper);
                    const bool b = shadow.remove(s, upper);
                    if (a != b)
                        return CheckResult::fail(
                            "removeLink divergence at switch " +
                            std::to_string(s));
                    removed.push_back({s, upper});
                } else {
                    const std::size_t pick = static_cast<std::size_t>(
                        rng.uniform(static_cast<std::uint64_t>(
                            removed.size())));
                    const auto [lo, hi] = removed[pick];
                    fc.addLink(lo, hi);
                    shadow.add(lo, hi);
                }
                // Occasionally duplicate an existing wire: parallel
                // links are legal in folded Clos wirings and exercise
                // multiplicity handling.
                if (op % 7 == 3) {
                    int s = static_cast<int>(
                        rng.uniform(static_cast<std::uint64_t>(
                            fc.numSwitches())));
                    const auto us = fc.up(s);
                    if (!us.empty()) {
                        int upper = us[0];
                        fc.addLink(s, upper);
                        shadow.add(s, upper);
                        if (fc.countLink(s, upper) < 2)
                            return CheckResult::fail(
                                "countLink missed duplicate");
                    }
                }
            }
            return compareAdjacency(fc, shadow);
        },
        kShrinkTopo, kDescribeTopo);
    EXPECT_TRUE(res.passed) << res.report();
}

TEST(ReprEquivalence, GrowSegmentRebuildMatchesShadowPastCapacity)
{
    // The CSR arrays reserve exactly the radix-regular capacity per
    // segment (R/2 up links below the top, R down links at the top);
    // the addLink past that capacity takes the rare growSegment rebuild
    // path, which relocates the segment inside the arena.  Push one up
    // segment and one down segment far past capacity - through several
    // capacity doublings - interleaved with removes, and hold the
    // element order byte-identical to the legacy-vector shadow.
    Rng rng(607);
    FoldedClos fc = buildRfcUnchecked(8, 3, 20, rng);
    ShadowAdj shadow(fc.numSwitches());
    for (int s = 0; s < fc.numSwitches(); ++s) {
        for (int u : fc.up(s))
            shadow.up[static_cast<std::size_t>(s)].push_back(u);
        for (int d : fc.down(s))
            shadow.down[static_cast<std::size_t>(s)].push_back(d);
    }

    const int lower = 0;                      // leaf: up capacity R/2
    const int top = fc.levelOffset(3);        // root: down capacity R
    const int parent = fc.up(lower)[0];
    const int child = fc.down(top)[0];
    for (int i = 0; i < 20; ++i) {
        fc.addLink(lower, parent);            // grows lower's up segment
        shadow.add(lower, parent);
        fc.addLink(child, top);               // grows top's down segment
        shadow.add(child, top);
        if (i % 5 == 4) {
            ASSERT_EQ(fc.removeLink(lower, parent),
                      shadow.remove(lower, parent));
            auto res = compareAdjacency(fc, shadow);
            ASSERT_TRUE(res.ok) << res.message;
        }
    }
    EXPECT_GE(fc.countLink(lower, parent), 16);
    EXPECT_GT(fc.up(lower).size(), 4u);       // past the R/2 capacity
    EXPECT_GT(fc.down(top).size(), 8u);       // past the R capacity
    auto res = compareAdjacency(fc, shadow);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(fc.validate());
}

TEST(ReprEquivalence, UnionTopologyGrowSegmentMatchesShadow)
{
    // The production trigger of growSegment: ExpansionPlan's union
    // fabric keeps every donor's removed link *and* its staged
    // replacement, so donor switches briefly hold more than R/2 up
    // links.  Replaying the union construction order against the
    // legacy-vector shadow must stay byte-identical through the
    // segment rebuilds.
    Rng build_rng(608);
    FoldedClos base = buildRfcUnchecked(8, 3, 20, build_rng);
    Rng plan_rng(609);
    ExpansionPlan plan(base, 2, plan_rng);
    FoldedClos u = plan.unionTopology();

    const FoldedClos &fin = plan.finalTopology();
    ShadowAdj shadow(fin.numSwitches());
    auto remap = [&](int s) {
        int lv = base.levelOf(s);
        return fin.levelOffset(lv) + (s - base.levelOffset(lv));
    };
    for (int s = 0; s < base.numSwitches(); ++s)
        for (int p : base.up(s))
            shadow.add(remap(s), remap(p));
    for (const ExpansionStage &st : plan.stages())
        for (const RewireOp &op : st.ops) {
            shadow.add(op.added_up.lower, op.added_up.upper);
            shadow.add(op.added_down.lower, op.added_down.upper);
        }

    bool grew = false;
    for (int s = 0; s < u.numSwitches(); ++s)
        if (u.levelOf(s) < u.levels() && u.up(s).size() > 4u)
            grew = true;
    EXPECT_TRUE(grew) << "no up segment exceeded its R/2 capacity; the "
                         "union did not exercise growSegment";
    auto res = compareAdjacency(u, shadow);
    EXPECT_TRUE(res.ok) << res.message;
}

/** Dense vector-of-vector rebuild of the tables from the same oracle. */
std::vector<std::vector<std::uint16_t>>
denseReference(const FoldedClos &fc, const UpDownOracle &oracle)
{
    const int leaves = fc.numLeaves();
    std::vector<std::vector<std::uint16_t>> dense(
        static_cast<std::size_t>(fc.numSwitches()) *
        static_cast<std::size_t>(leaves));
    std::vector<int> choices;
    for (int sw = 0; sw < fc.numSwitches(); ++sw) {
        const auto n_up = static_cast<int>(fc.up(sw).size());
        for (int d = 0; d < leaves; ++d) {
            if (sw == d)
                continue;
            auto &entry =
                dense[static_cast<std::size_t>(sw) *
                          static_cast<std::size_t>(leaves) +
                      static_cast<std::size_t>(d)];
            const int need = oracle.minUps(sw, d);
            if (need == 0) {
                oracle.downChoices(fc, sw, d, choices);
                for (int idx : choices)
                    entry.push_back(
                        static_cast<std::uint16_t>(n_up + idx));
            } else if (need > 0) {
                oracle.upChoices(fc, sw, d, choices);
                for (int idx : choices)
                    entry.push_back(static_cast<std::uint16_t>(idx));
            }
        }
    }
    return dense;
}

/**
 * uniqueSets() and memoryBytes() of the compressed layout replayed from
 * the dense lists: one pool entry per distinct list in first-occurrence
 * order, and per switch the cheaper of a local dictionary (1/2/4-byte
 * entries) and direct 3-byte pool ids.
 */
std::pair<long long, long long>
referencePoolAndBytes(const std::vector<std::vector<std::uint16_t>> &dense,
                      int switches, int leaves)
{
    std::map<std::vector<std::uint16_t>, std::uint32_t> pool;
    long long pool_ports = 0, dict_ids = 0, entry_bytes = 0;
    for (int sw = 0; sw < switches; ++sw) {
        std::set<std::uint32_t> local;
        std::uint32_t max_gid = 0;
        for (int d = 0; d < leaves; ++d) {
            const auto &list =
                dense[static_cast<std::size_t>(sw) *
                          static_cast<std::size_t>(leaves) +
                      static_cast<std::size_t>(d)];
            const auto gid = static_cast<std::uint32_t>(pool.size());
            const auto [it, fresh] = pool.emplace(list, gid);
            if (fresh)
                pool_ports += static_cast<long long>(list.size());
            local.insert(it->second);
            max_gid = std::max(max_gid, it->second);
        }
        const auto distinct = static_cast<long long>(local.size());
        const long long dict_width =
            distinct <= 0x100 ? 1 : (distinct <= 0x10000 ? 2 : 4);
        const bool direct =
            max_gid < (1u << 24) &&
            3LL * leaves < dict_width * leaves + 4 * distinct;
        if (!direct)
            dict_ids += distinct;
        entry_bytes += static_cast<long long>(leaves) *
                       (direct ? 3 : dict_width);
    }
    const auto unique = static_cast<long long>(pool.size());
    const long long offsets = 8LL * (unique + 1) + 2 * 8LL * (switches + 1);
    return {unique, pool_ports * 2 + dict_ids * 4 + entry_bytes + offsets +
                        switches};
}

/**
 * Every ports() list, in order, and all four counters of the tables
 * built from @p oracle equal the dense per-entry reference.
 */
CheckResult
matchesDenseReference(const FoldedClos &fc, const UpDownOracle &oracle)
{
    ForwardingTables tables(fc, oracle);
    const auto dense = denseReference(fc, oracle);
    long long populated = 0, total_ports = 0;
    const int leaves = fc.numLeaves();
    for (int sw = 0; sw < fc.numSwitches(); ++sw) {
        for (int d = 0; d < leaves; ++d) {
            const auto &want =
                dense[static_cast<std::size_t>(sw) *
                          static_cast<std::size_t>(leaves) +
                      static_cast<std::size_t>(d)];
            const auto got = tables.ports(sw, d);
            if (!std::equal(got.begin(), got.end(), want.begin(),
                            want.end()))
                return CheckResult::fail(
                    "ports(" + std::to_string(sw) + ", " +
                    std::to_string(d) + ") diverges from dense reference");
            if (!want.empty()) {
                ++populated;
                total_ports += static_cast<long long>(want.size());
            }
        }
    }
    const auto [unique, bytes] =
        referencePoolAndBytes(dense, fc.numSwitches(), leaves);
    if (tables.populatedEntries() != populated)
        return CheckResult::fail("populatedEntries mismatch");
    if (tables.totalPorts() != total_ports)
        return CheckResult::fail("totalPorts mismatch");
    if (tables.uniqueSets() != unique)
        return CheckResult::fail("uniqueSets mismatch");
    if (tables.memoryBytes() != bytes)
        return CheckResult::fail("memoryBytes mismatch");
    return CheckResult::pass();
}

/** Mark the first @p fraction of a seeded random link order dead. */
void
killRandomLinks(const FoldedClos &fc, LinkFaultState &overlay,
                double fraction, std::uint64_t seed)
{
    Rng rng(seed);
    const auto order = randomLinkOrder(fc, rng);
    const auto n = static_cast<std::size_t>(
        fraction * static_cast<double>(order.size()));
    for (std::size_t i = 0; i < n; ++i)
        overlay.setLink(order[i].lower, order[i].upper, true);
}

TEST(ReprEquivalence, CompressedTablesMatchDenseReference)
{
    PropConfig cfg;
    cfg.cases = 30;
    cfg.seed = 603;
    cfg.max_size = 40;

    // Plain generated topologies, all links alive.
    auto res = forAll<TopoParams>(
        cfg, kGenTopo,
        [](const TopoParams &p) {
            FoldedClos fc = materializeTopo(p);
            return matchesDenseReference(fc, UpDownOracle(fc));
        },
        kShrinkTopo, kDescribeTopo);
    EXPECT_TRUE(res.passed) << res.report();
    EXPECT_EQ(res.cases_run, 30);

    // The same shapes under a random dead-link overlay: dead links
    // must never appear as ports, and cut pairs get empty entries.
    cfg.seed = 604;
    res = forAll<TopoParams>(
        cfg, kGenTopo,
        [](const TopoParams &p) {
            FoldedClos fc = materializeTopo(p);
            LinkFaultState overlay(fc);
            killRandomLinks(fc, overlay, 0.2,
                            deriveSeed(p.wiring_seed, 0x646561ULL, 0));
            UpDownOracle oracle;
            oracle.build(fc, &overlay);
            return matchesDenseReference(fc, oracle);
        },
        kShrinkTopo, kDescribeTopo);
    EXPECT_TRUE(res.passed) << res.report();

    // Radix 72: middle and top switches have 72 ports, so a port mask
    // spans two words; with and without dead links.
    Rng rng(605);
    const FoldedClos wide = buildRfcUnchecked(72, 3, 72, rng);
    auto r = matchesDenseReference(wide, UpDownOracle(wide));
    EXPECT_TRUE(r.ok) << r.message;
    LinkFaultState wide_overlay(wide);
    killRandomLinks(wide, wide_overlay, 0.3, 606);
    UpDownOracle wide_faulted;
    wide_faulted.build(wide, &wide_overlay);
    r = matchesDenseReference(wide, wide_faulted);
    EXPECT_TRUE(r.ok) << r.message;

    // An expansion's union fabric with its staged links dead, as a
    // live run starts: donor switches hold more than R/2 up links.
    Rng build_rng(607);
    const FoldedClos base = buildRfcUnchecked(8, 3, 20, build_rng);
    Rng plan_rng(608);
    const ExpansionPlan plan(base, 2, plan_rng);
    const FoldedClos u = plan.unionTopology();
    LinkFaultState staged(u);
    for (const ClosLink &l : plan.liveTimeline(100, 50, 8).initialDead())
        ASSERT_TRUE(staged.setLink(l.lower, l.upper, true));
    ASSERT_GT(staged.deadLinks(), 0u);
    UpDownOracle union_oracle;
    union_oracle.build(u, &staged);
    r = matchesDenseReference(u, union_oracle);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(ReprEquivalence, CompressionWinsOnFigTenShapedCft)
{
    // Scaled-down proxy of the Figure 10 table configuration (the full
    // R=36 point runs in bench/fig_perf_1M): a 4-level CFT, where most
    // destinations at a switch share one ECMP set.  The >= 5x bound is
    // the acceptance criterion the compressed layout is held to.
    FoldedClos cft = buildCft(12, 4);
    UpDownOracle oracle(cft);
    ForwardingTables tables(cft, oracle);
    EXPECT_GE(tables.compressionRatio(), 5.0);
    EXPECT_LT(tables.memoryBytes(), tables.denseMemoryBytes());
    EXPECT_GT(tables.uniqueSets(), 0);
}

TEST(ReprEquivalence, SetPortsIsCopyOnWrite)
{
    Rng rng(7);
    auto built = buildRfc(8, 2, 12, rng, 200);
    ASSERT_TRUE(built.routable);
    const FoldedClos &fc = built.topology;
    UpDownOracle oracle(fc);
    ForwardingTables tables(fc, oracle);

    // A view taken before the mutation must stay valid and unchanged:
    // the override redirects one entry, it does not touch the pool.
    const auto before = tables.ports(0, 1);
    std::vector<std::uint16_t> before_copy(before.begin(), before.end());
    ASSERT_FALSE(before_copy.empty());

    const long long populated = tables.populatedEntries();
    const long long total = tables.totalPorts();

    // Another entry that shares no override: must be unaffected.
    const auto other_copy = [&] {
        const auto v = tables.ports(1, 0);
        return std::vector<std::uint16_t>(v.begin(), v.end());
    }();

    tables.setPorts(0, 1, {before_copy[0]});
    EXPECT_TRUE(std::equal(before.begin(), before.end(),
                           before_copy.begin(), before_copy.end()))
        << "pre-mutation view was clobbered (not copy-on-write)";
    const auto after = tables.ports(0, 1);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0], before_copy[0]);
    EXPECT_EQ(tables.populatedEntries(), populated);
    EXPECT_EQ(tables.totalPorts(),
              total -
                  static_cast<long long>(before_copy.size()) + 1);

    const auto other_now = tables.ports(1, 0);
    EXPECT_TRUE(std::equal(other_now.begin(), other_now.end(),
                           other_copy.begin(), other_copy.end()));

    // Overriding to empty depopulates the entry; overriding the same
    // entry twice keeps the counters consistent.
    tables.setPorts(0, 1, {});
    EXPECT_TRUE(tables.ports(0, 1).empty());
    EXPECT_EQ(tables.populatedEntries(), populated - 1);
    EXPECT_EQ(tables.totalPorts(),
              total - static_cast<long long>(before_copy.size()));
    tables.setPorts(0, 1, before_copy);
    EXPECT_EQ(tables.populatedEntries(), populated);
    EXPECT_EQ(tables.totalPorts(), total);
}

TEST(ReprEquivalence, OverflowGuardsAtScaleBoundaries)
{
    // R=54 l=5: the Theorem 4.2 threshold is ~1.24e10 leaves.  The
    // legacy double->int cast was undefined behavior here.
    EXPECT_GT(rfcMaxLeavesLL(54, 5),
              static_cast<long long>(
                  std::numeric_limits<int>::max()));
    EXPECT_THROW(rfcMaxLeaves(54, 5), std::overflow_error);
    // In-range combinations agree between the two entry points.
    EXPECT_EQ(static_cast<long long>(rfcMaxLeaves(36, 3)),
              rfcMaxLeavesLL(36, 3));

    // The levels-for search probes exactly the overflowing regime and
    // must terminate with 64-bit terminal counts.
    EXPECT_GT(rfcMaxTerminals(54, 5), 300000000000LL);
    const int l = rfcLevelsFor(1000000000000LL, 54);
    EXPECT_GE(l, 4);
    EXPECT_GE(rfcMaxTerminals(54, l), 1000000000000LL);

    // buildOft3 level sizes wrap int at q ~ 1290; the guard must throw
    // instead of constructing a corrupted topology.
    EXPECT_THROW(buildOft(191, 3), std::invalid_argument);

    // Dense-table formula at the 1M-terminal operating point: the
    // 32-bit product switches*leaves*4 wrapped; 64-bit stays sane.
    const long long sw = 137781, leaves = 39366;
    EXPECT_GT(ForwardingTables::denseBytesFor(sw, leaves, sw * 8), 0);
    EXPECT_GT(ForwardingTables::denseBytesFor(sw, leaves, sw * 8),
              sw * leaves * 4);
}

} // namespace
} // namespace rfc
