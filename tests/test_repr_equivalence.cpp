/**
 * @file
 * Representation-equivalence tests for the million-terminal scale tier
 * (tier 1).
 *
 * The CSR FoldedClos core and the hash-consed compressed
 * ForwardingTables meter replaced vector-of-vector representations
 * whose semantics (construction order, swap-remove mutation, per-entry
 * port order) other layers observe.  These tests pin the new
 * representations to executable replicas of the legacy ones over
 * randomized small RFCs (check/prop forAll), plus the scale-boundary
 * overflow guards that make the 1M-terminal operating point reachable:
 *
 *  - CSR adjacency == legacy per-level randomBipartiteGraph assembly
 *    (same wiring seed, element order included);
 *  - addLink/removeLink == push_back / swap-remove shadow model under
 *    random mutation sequences;
 *  - every streamed table row == the per-entry oracle reference
 *    (checkForwardingTables), with all four meter counters equal to a
 *    replay of the compressed encoding over those rows and a real
 *    compression win - on plain, dead-link-overlay, radix-72,
 *    CFT(132, 2) and expansion-union fabrics;
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
#include "check/invariants.hpp"
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

/** Table counters replayed from the streamed rows. */
struct ReferenceCounters
{
    long long populated = 0, total_ports = 0, unique = 0, bytes = 0;
};

/**
 * All four counters of the compressed layout replayed from
 * forEachTableRow's rows: one pool entry per distinct port list in
 * first-occurrence order, and per switch the cheaper of a local
 * dictionary (1/2/4-byte entries) and direct 3-byte pool ids.
 */
ReferenceCounters
referencePoolAndBytes(const FoldedClos &fc, const UpDownOracle &oracle)
{
    ReferenceCounters ref;
    std::map<std::vector<std::uint16_t>, std::uint32_t> pool;
    long long pool_ports = 0, dict_ids = 0, entry_bytes = 0;
    const long long leaves = fc.numLeaves();
    std::vector<std::uint16_t> list;
    forEachTableRow(fc, oracle, [&](int, const std::uint64_t *masks,
                                    int words) {
        std::set<std::uint32_t> local;
        std::uint32_t max_gid = 0;
        for (long long d = 0; d < leaves; ++d) {
            list.clear();
            for (int w = 0; w < words; ++w)
                for (std::uint64_t bits = masks[d * words + w]; bits;
                     bits &= bits - 1)
                    list.push_back(static_cast<std::uint16_t>(
                        w * 64 + __builtin_ctzll(bits)));
            if (!list.empty()) {
                ++ref.populated;
                ref.total_ports += static_cast<long long>(list.size());
            }
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
        entry_bytes += leaves * (direct ? 3 : dict_width);
    });
    const long long switches = fc.numSwitches();
    ref.unique = static_cast<long long>(pool.size());
    const long long offsets =
        8LL * (ref.unique + 1) + 2 * 8LL * (switches + 1);
    ref.bytes = pool_ports * 2 + dict_ids * 4 + entry_bytes + offsets +
                switches;
    return ref;
}

/**
 * Every streamed row equals the per-entry oracle reference
 * (checkForwardingTables), and all four counters of the meter built
 * from @p oracle equal a replay of the encoding over those rows.
 */
CheckResult
matchesDenseReference(const FoldedClos &fc, const UpDownOracle &oracle)
{
    if (CheckResult r = checkForwardingTables(fc, oracle); !r.ok)
        return r;
    const ForwardingTables tables(fc, oracle);
    const ReferenceCounters ref = referencePoolAndBytes(fc, oracle);
    if (tables.populatedEntries() != ref.populated)
        return CheckResult::fail("populatedEntries mismatch");
    if (tables.totalPorts() != ref.total_ports)
        return CheckResult::fail("totalPorts mismatch");
    if (tables.uniqueSets() != ref.unique)
        return CheckResult::fail("uniqueSets mismatch");
    if (tables.memoryBytes() != ref.bytes)
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
    // spans two words; with and without dead links.  This case also
    // covers the meter's global set growing: it starts at 1024 slots
    // and doubles past 3/4 load, so more than 1536 unique sets make it
    // grow at least twice.
    Rng rng(605);
    const FoldedClos wide = buildRfcUnchecked(72, 3, 72, rng);
    const UpDownOracle wide_oracle(wide);
    auto r = matchesDenseReference(wide, wide_oracle);
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_GT(ForwardingTables(wide, wide_oracle).uniqueSets(), 1536);
    LinkFaultState wide_overlay(wide);
    killRandomLinks(wide, wide_overlay, 0.3, 606);
    UpDownOracle wide_faulted;
    wide_faulted.build(wide, &wide_overlay);
    r = matchesDenseReference(wide, wide_faulted);
    EXPECT_TRUE(r.ok) << r.message;

    // Leaf 0 of the radix-72 RFC cut off: the 2-word middle and top
    // switches then hold the empty set, as the 1-word leaf switches
    // do, so it is one pool set only if keys drop trailing zero words.
    LinkFaultState cut(wide);
    for (const int parent : wide.up(0))
        ASSERT_TRUE(cut.setLink(0, parent, true));
    UpDownOracle cut_oracle;
    cut_oracle.build(wide, &cut);
    r = matchesDenseReference(wide, cut_oracle);
    EXPECT_TRUE(r.ok) << r.message;

    // CFT(132, 2): top switches have 132 ports, so their rows are three
    // words and a set's key spans more than two words.
    const FoldedClos cft132 = buildCft(132, 2);
    r = matchesDenseReference(cft132, UpDownOracle(cft132));
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
