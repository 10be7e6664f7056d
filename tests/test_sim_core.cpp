/**
 * @file
 * Unit tests for the shared VCT core pieces: SimConfig validation,
 * the type-7 binned latency histogram and its deterministic merge,
 * the packet arena's buffer-slot bound, the pooled timing wheel
 * (SlotQueue), and the adaptive policies.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/guard.hpp"
#include "clos/fat_tree.hpp"
#include "clos/folded_clos.hpp"
#include "graph/graph.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/updown.hpp"
#include "sim/core/config.hpp"
#include "sim/core/engine.hpp"
#include "sim/core/histogram.hpp"
#include "sim/core/layout.hpp"
#include "sim/core/policy_updown.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rfc {
namespace {

TEST(SimConfigValidate, AcceptsDefaults)
{
    SimConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SimConfigValidate, RejectsBadParameters)
{
    auto broken = [](auto mutate) {
        SimConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    broken([](SimConfig &c) { c.vcs = 0; });
    broken([](SimConfig &c) { c.buf_packets = 0; });
    broken([](SimConfig &c) { c.pkt_phits = 0; });
    broken([](SimConfig &c) { c.link_latency = -1; });
    broken([](SimConfig &c) { c.warmup = -1; });
    broken([](SimConfig &c) { c.measure = 0; });  // warmup >= total
    broken([](SimConfig &c) { c.load = -0.1; });
    // Exactly 0 must be rejected too: the Bernoulli injection step
    // divides by log(1 - load / pkt_phits) and a zero-load run measures
    // nothing, leaving quantile readers with an empty histogram.
    broken([](SimConfig &c) { c.load = 0.0; });
    broken([](SimConfig &c) { c.load = 1.5; });
    // An arrival wakes its input VC at the next cycle at the earliest,
    // so a zero-latency link cannot be modeled.
    broken([](SimConfig &c) { c.link_latency = 0; });
    broken([](SimConfig &c) {
        c.route_mode = RouteMode::kValiant;
        c.vcs = 1;
    });
    broken([](SimConfig &c) { c.telemetry_bin = -1; });
    broken([](SimConfig &c) { c.route_ttl = -1; });
}

TEST(SimConfigValidate, UgalNeedsTwoVcs)
{
    // UGAL shares Valiant's phase-partitioned channels.
    SimConfig cfg;
    cfg.route_mode = RouteMode::kUgal;
    cfg.vcs = 2;
    EXPECT_NO_THROW(cfg.validate());
    cfg.vcs = 1;
    try {
        cfg.validate();
        ADD_FAILURE() << "UGAL with one VC was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("UGAL"), std::string::npos)
            << e.what();
    }
}

TEST(SimConfigValidate, RejectsValuesNarrowEngineTypesWouldWrap)
{
    // Each bound is the largest value the engine's hot state holds;
    // one past it used to run and quietly misreport (128 buffers
    // accepted 0.000, 1024-phit packets lost a sixth of their load).
    auto check = [](auto mutate, int ok, int bad) {
        SimConfig cfg;
        mutate(cfg, ok);
        EXPECT_NO_THROW(cfg.validate());
        mutate(cfg, bad);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    check([](SimConfig &c, int v) { c.buf_packets = v; }, 127, 128);
    check([](SimConfig &c, int v) { c.vcs = v; }, 127, 128);
    check([](SimConfig &c, int v) { c.pkt_phits = v; }, 1023, 1024);

    // Ring ready times and packet birth cycles are 32-bit cycle stamps:
    // warmup + measure + link_latency + pkt_phits must fit in int32.
    // link_latency = INT32_MAX used to pass, then overflow the wheel
    // size and die in the constructor with an opaque length error.
    const long long kMax = std::numeric_limits<std::int32_t>::max();
    auto stamps = [](long long warmup, long long measure, int latency) {
        SimConfig c;
        c.warmup = warmup;
        c.measure = measure;
        c.link_latency = latency;
        return c;
    };
    const int phits = SimConfig{}.pkt_phits;
    EXPECT_NO_THROW(stamps(kMax - 1000 - 1 - phits, 1000, 1).validate());
    EXPECT_THROW(stamps(kMax - 1000 - 1 - phits + 1, 1000, 1).validate(),
                 std::invalid_argument);
    EXPECT_NO_THROW(stamps(0, kMax - 1 - phits, 1).validate());
    EXPECT_THROW(stamps(0, kMax - phits, 1).validate(),
                 std::invalid_argument);
    EXPECT_NO_THROW(
        stamps(0, 1, static_cast<int>(kMax - 1 - phits)).validate());
    EXPECT_THROW(stamps(0, 1, static_cast<int>(kMax - phits)).validate(),
                 std::invalid_argument);
    EXPECT_THROW(stamps(1LL << 31, 1000, 1).validate(),
                 std::invalid_argument);
    try {
        stamps(0, 1000, static_cast<int>(kMax)).validate();
        ADD_FAILURE() << "link_latency = INT32_MAX was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos)
            << e.what();
    }
}

TEST(SimConfigValidate, ConstructorsValidate)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.vcs = 0;
    EXPECT_THROW(Simulator(fc, oracle, traffic, cfg),
                 std::invalid_argument);
}

TEST(SimConfigValidate, RejectsRingSlotsBeyondInt32)
{
    // Packet ids index an arena bounded by the input-VC buffer slots,
    // all as int32: ports x vcs x buf_packets past INT32_MAX must be
    // refused at construction, before any per-VC array is sized.
    // CFT(64, 3) has 327,680 ports, so 127 VCs still fit (41.6M input
    // VCs) but 127 buffer packets each do not (5.3G slots).
    auto fc = buildCft(64, 3);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.vcs = 127;
    cfg.buf_packets = 127;
    try {
        Simulator sim(fc, oracle, traffic, cfg);
        ADD_FAILURE() << "5.3G buffer slots were accepted";
    } catch (const std::invalid_argument &e) {
        const std::string m = e.what();
        for (const char *part : {"ports", "VCs", "buffer packets"})
            EXPECT_NE(m.find(part), std::string::npos) << m;
    }
}

TEST(FabricLayoutBuild, RejectsPortGidsBeyondInt32)
{
    // Port gids (out_peer_iport, term_iport) are int32: a fabric of
    // more than INT32_MAX ports is refused before any per-port array is
    // sized.  Two switches of 1.2G terminal ports each hold 2.4G ports.
    constexpr int kWide = 1'200'000'000;
    Graph g(2);
    g.addEdge(0, 1);
    FoldedClos fc({2}, 2, kWide, "two wide leaves");
    for (int which = 0; which < 2; ++which) {
        try {
            if (which == 0)
                FabricLayout::fromGraph(g, kWide);
            else
                FabricLayout::fromFoldedClos(fc);
            ADD_FAILURE() << "2.4G ports were accepted (builder " << which
                          << ")";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("32-bit port id"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(UpDownPolicyMemo, PicksMatchOracleScanAcrossMaskWidth)
{
    // Radix 40: a spine has 40 down ports, so down sets straddle the
    // 32-bit per-packet cache.  Radix 120: a spine has 120 down ports,
    // so its sets sit in a 2-word UpDownOracle::nextHops mask, and a
    // leaf's 60 up ports fill most of one word.  So cached, uncached
    // and multi-word sets all run, and a multi-word set whose choices
    // all sit below port 32 is cached too.  Each visit must pick the
    // port a plain uniform draw over the oracle's list picks, on the
    // first visit and on a second visit of the same packet (a cache hit
    // where every choice is below 32), and report a sole port exactly
    // when that list has one entry.
    int hits = 0, uncached = 0, wide = 0, wide_hits = 0;
    for (int radix : {40, 120}) {
        auto fc = buildCft(radix, 2);
        UpDownOracle oracle(fc);
        FabricLayout lay = FabricLayout::fromFoldedClos(fc);
        for (RouteMode mode :
             {RouteMode::kMinimal, RouteMode::kUpDownRandom}) {
            SimConfig cfg;
            cfg.route_mode = mode;
            UpDownPolicy policy(fc, oracle, lay, cfg);
            const CongestionView cv(lay, cfg.vcs, cfg.buf_packets,
                                    nullptr, nullptr, 0);
            Rng rng(3), ref_rng(3);
            std::vector<int> choices;
            for (int s = 0; s < fc.numSwitches(); s += 7) {
                for (int target = 0; target < fc.numLeaves();
                     target += 5) {
                    if (s == target)
                        continue;
                    const int need = oracle.minUps(s, target);
                    ASSERT_GE(need, 0);
                    if (need == 0)
                        oracle.downChoices(fc, s, target, choices);
                    else if (mode == RouteMode::kUpDownRandom)
                        oracle.feasibleUpChoices(fc, s, target, choices);
                    else
                        oracle.upChoices(fc, s, target, choices);
                    ASSERT_FALSE(choices.empty());
                    const bool is_wide =
                        (need == 0 ? fc.down(s).size()
                                   : fc.up(s).size()) > 64;
                    const bool fits = *std::max_element(choices.begin(),
                                                        choices.end()) < 32;
                    wide += is_wide;
                    wide_hits += is_wide && fits;
                    uncached += !fits;
                    hits += fits;

                    UpDownPolicy::Pkt p{};
                    p.dest_leaf = target;
                    p.inter_leaf = -1;
                    p.phase = 1;
                    for (int visit = 0; visit < 2; ++visit) {
                        const int pick =
                            choices[ref_rng.uniform(choices.size())];
                        const int want =
                            need == 0 ? lay.n_up[s] + pick : pick;
                        bool sole = false;
                        EXPECT_EQ(policy.routeOut(cv, s, p, rng, sole),
                                  want)
                            << "radix " << radix << " switch " << s
                            << " target " << target << " visit " << visit;
                        EXPECT_EQ(sole, choices.size() == 1);
                        // Cached exactly when every choice is below 32.
                        EXPECT_EQ(p.route_mask != 0, fits);
                        EXPECT_TRUE(policy.routeCacheFresh(s, p));
                    }
                }
            }
        }
    }
    EXPECT_GT(hits, 0);
    EXPECT_GT(uncached, 0);
    EXPECT_GT(wide, 0);
    EXPECT_GT(wide_hits, 0);
}

TEST(UpDownPolicyMemo, ForwardEmptiesTheRouteCache)
{
    // A leaf of CFT(8,3) has 4 up ports: injection starts with an
    // empty cache, the first visit caches the up set, and the hop to
    // the next switch must drop it.
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    FabricLayout lay = FabricLayout::fromFoldedClos(fc);
    SimConfig cfg;
    UpDownPolicy policy(fc, oracle, lay, cfg);
    // Terminal 0 first has no injection credit, then a full row.
    std::vector<std::int8_t> inj(static_cast<std::size_t>(cfg.vcs), 0);
    Rng rng(5);
    const int target = fc.numLeaves() - 1;
    const std::int32_t dest = target * fc.terminalsPerLeaf();
    UpDownPolicy::Pkt p{};
    p.route_mask = ~0u;
    const CongestionView blocked(lay, cfg.vcs, cfg.buf_packets, nullptr,
                                 inj.data(), 0);
    EXPECT_EQ(policy.inject(blocked, 0, dest, rng, p), -1);
    EXPECT_EQ(p.route_mask, ~0u);  // a failed injection writes nothing
    inj.assign(inj.size(), static_cast<std::int8_t>(cfg.buf_packets));
    const CongestionView cv(lay, cfg.vcs, cfg.buf_packets, nullptr,
                            inj.data(), 0);
    ASSERT_GE(policy.inject(cv, 0, dest, rng, p), 0);
    EXPECT_EQ(p.route_mask, 0u);
    bool sole = true;
    const int port = policy.routeOut(cv, 0, p, rng, sole);
    ASSERT_GE(port, 0);
    EXPECT_LT(port, lay.n_up[0]);
    EXPECT_EQ(__builtin_popcount(p.route_mask), lay.n_up[0]);
    EXPECT_EQ(p.route_down, 0);
    EXPECT_FALSE(sole);
    policy.onForward(p);
    EXPECT_EQ(p.route_mask, 0u);
    EXPECT_EQ(p.route_down, 0);
    EXPECT_EQ(p.hops, 1);
}

/**
 * UpDownPolicy that checks the engine's hook-time walk: every packet
 * visited in a hook's cycle must arrive with an empty route cache, and
 * the walk must have found cached sets to drop (so the check is not
 * vacuous).
 */
class HookWalkProbe : public UpDownPolicy
{
  public:
    struct Stats
    {
        long long hook_cycle = -1;
        long long walked = 0, dropped = 0;
        long long hook_visits = 0, stale_visits = 0;
    };

    HookWalkProbe(const FoldedClos &fc, const UpDownOracle &oracle,
                  const FabricLayout &lay, const SimConfig &cfg,
                  Stats &stats)
        : UpDownPolicy(fc, oracle, lay, cfg), stats_(&stats)
    {}

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             bool &sole)
    {
        if (cv.now() == stats_->hook_cycle) {
            ++stats_->hook_visits;
            stats_->stale_visits += p.route_mask != 0;
        }
        return UpDownPolicy::routeOut(cv, s, p, rng, sole);
    }

    void
    forgetRoute(Pkt &p)
    {
        ++stats_->walked;
        stats_->dropped += p.route_mask != 0;
        UpDownPolicy::forgetRoute(p);
    }

  private:
    Stats *stats_;
};

TEST(UpDownPolicyMemo, HookWalkEmptiesEveryRouteCache)
{
    // Saturated random pairing: heads wait at switches with their
    // next-hop sets cached when the (no-op) hooks fire.
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    FabricLayout lay = FabricLayout::fromFoldedClos(fc);
    RandomPairingTraffic traffic;
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.load = 1.0;
    cfg.seed = 7;
    HookWalkProbe::Stats stats;
    VctEngine<HookWalkProbe> engine(
        lay, traffic, cfg, HookWalkProbe(fc, oracle, lay, cfg, stats));
    engine.setCycleHook({300, 600, 900},
                        [&stats](long long now) { stats.hook_cycle = now; });
    const SimResult r = engine.run();
    EXPECT_GT(r.delivered_packets, 0);
    EXPECT_GT(stats.walked, 0);
    EXPECT_GT(stats.dropped, 0);
    EXPECT_GT(stats.hook_visits, 0);
    EXPECT_EQ(stats.stale_visits, 0);
    EXPECT_EQ(engine.checkContext().violations(), 0)
        << engine.checkContext().summary();
}

TEST(LatencyHistogramCore, EmptyQuantileIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(LatencyHistogramCore, MatchesBinnedQuantile)
{
    // 1..1000 covers buckets [1,2), [2,4), ... [512,1024).
    LatencyHistogram h;
    for (long long v = 1; v <= 1000; ++v)
        h.add(v);
    double p50 = h.quantile(0.50);
    double p99 = h.quantile(0.99);
    // The log-bucket estimate cannot be exact, but must land inside
    // the right bucket and be monotone.
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1024.0);
    EXPECT_GE(p99, 512.0);
    EXPECT_LE(p99, 1024.0);
    EXPECT_LT(p50, p99);
}

TEST(LatencyHistogramCore, TracksMinMaxSum)
{
    LatencyHistogram h;
    EXPECT_EQ(h.minSample(), 0);
    EXPECT_EQ(h.maxSample(), 0);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    h.add(40);
    h.add(5);
    h.add(1000);
    EXPECT_EQ(h.minSample(), 5);
    EXPECT_EQ(h.maxSample(), 1000);
    EXPECT_DOUBLE_EQ(h.sum(), 1045.0);
}

// ---------------------------------------------------------------------
// Pooled timing wheel
// ---------------------------------------------------------------------

using core_detail::SlotQueue;
constexpr std::size_t kChunk = SlotQueue<int>::kChunk;

/** Pop every entry of @p slot, in order. */
std::vector<int>
drain(SlotQueue<int> &q, std::size_t slot)
{
    std::vector<int> out;
    while (!q.empty(slot))
        out.push_back(q.pop(slot));
    return out;
}

std::vector<int>
iota(int first, int count)
{
    std::vector<int> v(count);
    for (int i = 0; i < count; ++i)
        v[i] = first + i;
    return v;
}

/**
 * Chunk accounting a SlotQueue must follow.  A slot's entries since it
 * was last empty sit at positions [0, pushed) of its chunk chain, of
 * which [0, popped) are consumed; a chunk is freed once every position
 * in it is consumed, or when the slot empties.  So the slot uses
 * ceil(pushed / K) - floor(popped / K) chunks, and the pool, which
 * grows only when no freed chunk is left, must hold exactly the peak
 * over time of their sum.  That sum exceeds sum ceil(live / K) only
 * by the consumed head of a slot that is partly popped.
 */
class ChunkModel
{
  public:
    explicit ChunkModel(std::size_t slots) : pushed_(slots), popped_(slots) {}

    void
    push(std::size_t s)
    {
        ++pushed_[s];
        peak_ = std::max(peak_, inUse());
        std::size_t live_chunks = 0;
        for (std::size_t t = 0; t < pushed_.size(); ++t)
            live_chunks += (pushed_[t] - popped_[t] + kChunk - 1) / kChunk;
        peak_live_chunks_ = std::max(peak_live_chunks_, live_chunks);
    }

    void
    pop(std::size_t s)
    {
        if (++popped_[s] == pushed_[s])
            pushed_[s] = popped_[s] = 0;
    }

    void popAll(std::size_t s) { pushed_[s] = popped_[s] = 0; }

    std::size_t
    inUse() const
    {
        std::size_t n = 0;
        for (std::size_t s = 0; s < pushed_.size(); ++s)
            if (pushed_[s] > popped_[s])
                n += (pushed_[s] + kChunk - 1) / kChunk - popped_[s] / kChunk;
        return n;
    }

    /** Peak over time of the chunks in use. */
    std::size_t peak() const { return peak_; }

    /** Peak over time of sum over slots of ceil(live / K). */
    std::size_t peakLiveChunks() const { return peak_live_chunks_; }

  private:
    std::vector<std::size_t> pushed_, popped_;
    std::size_t peak_ = 0, peak_live_chunks_ = 0;
};

TEST(SlotQueue, EachSlotIsFifo)
{
    SlotQueue<int> q(3);
    for (int v = 0; v < 12; ++v)
        q.push(v % 3, v);
    EXPECT_EQ(drain(q, 1), (std::vector<int>{1, 4, 7, 10}));
    EXPECT_EQ(drain(q, 0), (std::vector<int>{0, 3, 6, 9}));
    EXPECT_EQ(drain(q, 2), (std::vector<int>{2, 5, 8, 11}));
    for (std::size_t s = 0; s < 3; ++s)
        EXPECT_TRUE(q.empty(s));
}

TEST(SlotQueue, ReusesNodesAfterADrain)
{
    // Ten entries fit one chunk; the drain frees it and the next
    // slot's pushes reuse it instead of growing the pool.
    SlotQueue<int> q(4);
    for (int v = 0; v < 10; ++v)
        q.push(0, v);
    EXPECT_EQ(q.chunkCount(), 1u);
    drain(q, 0);
    for (int v = 0; v < 10; ++v)
        q.push(3, v);
    EXPECT_EQ(q.chunkCount(), 1u);
    EXPECT_EQ(drain(q, 3), iota(0, 10));
}

TEST(SlotQueue, PushesIntoOtherSlotsDuringADrainLandInOrder)
{
    // The engine's wheels re-push what they pop into later slots while
    // draining; a chunk is free again once its last entry is popped.
    SlotQueue<int> q(3);
    ChunkModel m(3);
    q.push(2, -1);
    m.push(2);
    for (int v = 0; v < 6; ++v) {
        q.push(0, v);
        m.push(0);
    }
    while (!q.empty(0)) {
        const int v = q.pop(0);
        m.pop(0);
        q.push(1, v);
        m.push(1);
        q.push(2, 10 + v);
        m.push(2);
    }
    EXPECT_EQ(drain(q, 1), iota(0, 6));
    EXPECT_EQ(drain(q, 2),
              (std::vector<int>{-1, 10, 11, 12, 13, 14, 15}));
    EXPECT_EQ(q.chunkCount(), m.peak());
    EXPECT_EQ(q.chunkCount(), 3u);
    EXPECT_LE(q.chunkCount(), m.peakLiveChunks());
}

TEST(SlotQueue, KeepsDuplicates)
{
    // The closed-loop wake wheel leaves stale entries for a terminal
    // next to its live one and drops them only when they come due.
    SlotQueue<int> q(2);
    q.push(1, 7);
    q.push(1, 7);
    q.push(0, 7);
    q.push(1, 7);
    EXPECT_EQ(drain(q, 1), (std::vector<int>{7, 7, 7}));
    EXPECT_EQ(drain(q, 0), (std::vector<int>{7}));
}

TEST(SlotQueue, OneSlotSpansSeveralChunks)
{
    SlotQueue<int> q(2);
    const int n = 3 * static_cast<int>(kChunk) + 5;
    for (int v = 0; v < n; ++v)
        q.push(1, v);
    EXPECT_EQ(q.chunkCount(), 4u);
    EXPECT_TRUE(q.empty(0));
    EXPECT_EQ(drain(q, 1), iota(0, n));
    EXPECT_TRUE(q.empty(1));
    EXPECT_EQ(q.chunkCount(), 4u);
}

TEST(SlotQueue, InterleavedSlotsKeepTheirOwnChains)
{
    // Round-robin pushes give every slot's chain chunks that alternate
    // with the other slots' in the pool.
    constexpr std::size_t kSlots = 3;
    const int per_slot = 2 * static_cast<int>(kChunk) + 3;
    SlotQueue<int> q(kSlots);
    for (int i = 0; i < per_slot; ++i)
        for (std::size_t s = 0; s < kSlots; ++s)
            q.push(s, static_cast<int>(s) * 1000 + i);
    EXPECT_EQ(q.chunkCount(), kSlots * 3);
    EXPECT_EQ(drain(q, 1), iota(1000, per_slot));
    EXPECT_EQ(drain(q, 2), iota(2000, per_slot));
    EXPECT_EQ(drain(q, 0), iota(0, per_slot));
}

TEST(SlotQueue, PushIntoTheDrainingSlotAtAChunkEdge)
{
    // A drain that pushes into its own slot yields those entries in the
    // same drain, also when the push opens a chunk and the pop that
    // follows leaves the one before it.
    SlotQueue<int> q(2);
    ChunkModel m(2);
    const int k = static_cast<int>(kChunk);
    for (int v = 0; v < k; ++v) {
        q.push(0, v);
        m.push(0);
    }
    // Pop to the chunk's last entry, then push while it is still there:
    // the push needs a second chunk, the next pop frees the first.
    for (int v = 0; v < k - 1; ++v) {
        ASSERT_EQ(q.pop(0), v);
        m.pop(0);
    }
    q.push(0, k);
    m.push(0);
    EXPECT_EQ(q.chunkCount(), 2u);
    EXPECT_EQ(q.pop(0), k - 1);
    m.pop(0);
    // Keep two entries queued while re-pushing into the draining slot,
    // so its window slides across several chunk edges without emptying.
    q.push(0, k + 1);
    m.push(0);
    std::vector<int> seen;
    while (!q.empty(0)) {
        const int v = q.pop(0);
        m.pop(0);
        seen.push_back(v);
        if (v + 2 <= 4 * k) {
            q.push(0, v + 2);
            m.push(0);
        }
    }
    EXPECT_EQ(seen, iota(k, 3 * k + 1));
    EXPECT_EQ(q.chunkCount(), m.peak());
    EXPECT_EQ(q.chunkCount(), 2u);
}

TEST(SlotQueue, DuplicatesAcrossAChunkEdge)
{
    SlotQueue<int> q(1);
    const int k = static_cast<int>(kChunk);
    for (int v = 0; v < k - 2; ++v)
        q.push(0, v);
    for (int i = 0; i < 4; ++i)
        q.push(0, 7);  // positions K-2 .. K+1 straddle the edge
    q.push(0, 9);
    std::vector<int> want = iota(0, k - 2);
    want.insert(want.end(), {7, 7, 7, 7, 9});
    EXPECT_EQ(q.chunkCount(), 2u);
    EXPECT_EQ(drain(q, 0), want);
}

TEST(SlotQueue, DrainThenRefillReusesFreedChunks)
{
    SlotQueue<int> q(3);
    const int n = 3 * static_cast<int>(kChunk);
    for (int round = 0; round < 4; ++round) {
        const std::size_t s = round % 3;
        for (int v = 0; v < n; ++v)
            q.push(s, round * n + v);
        EXPECT_EQ(q.chunkCount(), 3u);
        if (round % 2 == 0) {
            EXPECT_EQ(drain(q, s), iota(round * n, n));
        } else {
            std::vector<int> out{-5};
            q.drainInto(s, out);
            std::vector<int> want{-5};
            const std::vector<int> tail = iota(round * n, n);
            want.insert(want.end(), tail.begin(), tail.end());
            EXPECT_EQ(out, want);
        }
        EXPECT_TRUE(q.empty(s));
    }
    EXPECT_EQ(q.chunkCount(), 3u);
}

TEST(SlotQueue, DrainIntoAfterPartialPops)
{
    // drainInto starts mid-chunk and stops mid-chunk, appending.
    SlotQueue<int> q(2);
    const int k = static_cast<int>(kChunk);
    for (int v = 0; v < 2 * k + 7; ++v)
        q.push(1, v);
    for (int v = 0; v < k + 3; ++v)
        ASSERT_EQ(q.pop(1), v);
    std::vector<int> out;
    q.drainInto(0, out);  // empty slot: appends nothing
    EXPECT_TRUE(out.empty());
    q.drainInto(1, out);
    EXPECT_EQ(out, iota(k + 3, k + 4));
    EXPECT_TRUE(q.empty(1));
    for (int v = 0; v < 3 * k; ++v)
        q.push(0, v);
    EXPECT_EQ(q.chunkCount(), 3u);  // all three freed chunks reused
}

TEST(SlotQueue, MatchesPerSlotDequesAndPoolTracksPeakLive)
{
    // Random pushes, pops and whole-slot drains against one std::deque
    // per slot: same entries in the same order (forEach included), and
    // the pool holds exactly the peak number of chunks in use at once
    // (ChunkModel).
    constexpr std::size_t kSlots = 16;
    SlotQueue<int> q(kSlots);
    ChunkModel m(kSlots);
    std::vector<std::deque<int>> ref(kSlots);
    Rng rng(11);
    std::size_t live = 0, peak_live = 0;
    int steps = 0;
    for (int step = 0; step < 20000; ++step, ++steps) {
        const std::size_t s = rng.uniform(kSlots);
        const std::uint64_t r = rng.uniform(1000);
        if (r < 520) {
            q.push(s, step);
            m.push(s);
            ref[s].push_back(step);
            peak_live = std::max(peak_live, ++live);
        } else if (r < 995 && !ref[s].empty()) {
            ASSERT_FALSE(q.empty(s));
            ASSERT_EQ(q.pop(s), ref[s].front());
            m.pop(s);
            ref[s].pop_front();
            --live;
        } else if (r >= 995) {
            std::vector<int> out;
            q.drainInto(s, out);
            m.popAll(s);
            ASSERT_EQ(out, std::vector<int>(ref[s].begin(), ref[s].end()));
            live -= ref[s].size();
            ref[s].clear();
        } else {
            ASSERT_TRUE(q.empty(s));
        }
        ASSERT_EQ(q.chunkCount(), m.peak()) << "step " << step;
        if (step % 97 == 0) {
            std::vector<int> seen;
            q.forEach(s, [&](int v) { seen.push_back(v); });
            ASSERT_EQ(seen, std::vector<int>(ref[s].begin(), ref[s].end()));
        }
        // Each slot wastes less than one chunk at either end.
        ASSERT_LE(q.chunkCount(), peak_live / kChunk + 2 * kSlots);
    }
    EXPECT_EQ(steps, 20000);
    EXPECT_GT(peak_live, 4 * kChunk);  // the run crossed many chunk edges
    for (std::size_t s = 0; s < kSlots; ++s)
        EXPECT_EQ(drain(q, s), std::vector<int>(ref[s].begin(), ref[s].end()));
}

// ---------------------------------------------------------------------
// Packet arena bound
// ---------------------------------------------------------------------

TEST(PacketArena, SaturatedRunStaysWithinRingSlots)
{
    // Freed ids are reused before the arena grows and every live packet
    // sits in one input-VC FIFO of at most buf_packets, so even a
    // saturated run stays within ports x vcs x buf_packets (guard builds
    // also audit the arena size itself every cycle: pkt-arena-bound).
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    FabricLayout lay = FabricLayout::fromFoldedClos(fc);
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1200;
    cfg.load = 1.0;
    cfg.seed = 21;
    VctEngine<UpDownPolicy> engine(lay, traffic, cfg,
                                   UpDownPolicy(fc, oracle, lay, cfg));
    const SimResult r = engine.run();
    EXPECT_GT(r.suppressed_packets, 0);  // saturated: source queues full
    // Every delivery is a commit, and multi-hop paths mean strictly
    // more commits than deliveries.
    EXPECT_GT(r.perf.forwards, r.delivered_packets);
    EXPECT_EQ(r.in_flight_packets, engine.inFlightNow());
    EXPECT_GT(engine.inFlightNow(), 0);
    EXPECT_LE(engine.inFlightNow(),
              lay.total_ports * cfg.vcs * cfg.buf_packets);
    EXPECT_EQ(engine.checkContext().violations(), 0)
        << engine.checkContext().summary();
    if (invariantChecksEnabled()) {
        EXPECT_GT(engine.checkContext().checksPerformed(), 0);
    }
}

// ---------------------------------------------------------------------
// Arbiter visit outcomes
// ---------------------------------------------------------------------

/** Engine counters of saturated random pairing on CFT(8,3). */
PerfCounters
saturatedCft8Perf()
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    RandomPairingTraffic traffic;
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1200;
    cfg.load = 1.0;
    cfg.seed = 1;
    Simulator sim(fc, oracle, traffic, cfg);
    return sim.run().perf;
}

TEST(PerfCounters, ScanOutcomesSumToSwitchScans)
{
    // Saturated random pairing: heads wait, outputs collide, credits
    // run out - every outcome class but "no route" occurs, and each
    // visit lands in exactly one of them.
    const PerfCounters p = saturatedCft8Perf();
    EXPECT_EQ(p.switch_scans,
              p.scan_not_ready + p.scan_no_route + p.scan_sole_busy +
                  p.scan_choice_busy + p.scan_credit_blocked +
                  p.scan_commit_blocked + p.forwards + p.arb_conflicts);
    EXPECT_GT(p.scan_not_ready, 0);
    EXPECT_GT(p.scan_sole_busy, 0);
    EXPECT_GT(p.scan_choice_busy, 0);
    EXPECT_GT(p.scan_credit_blocked, 0);
    EXPECT_GT(p.scan_commit_blocked, 0);
    EXPECT_GT(p.arb_conflicts, 0);
    EXPECT_EQ(p.scan_no_route, 0);  // no faults
    // Credit stalls are counted at scan and at commit.
    EXPECT_GE(p.credit_stalls, p.scan_credit_blocked);
}

TEST(PerfCounters, PhaseTimersSumWithinWallClock)
{
    // The phases are disjoint laps inside run(), which also times the
    // set-up before cycle 0, the occupancy samples and the guards.
    const PerfCounters p = saturatedCft8Perf();
    const double phases[] = {p.hook_seconds,      p.release_seconds,
                             p.generate_seconds,  p.inject_seconds,
                             p.arbitrate_seconds, p.global_step_seconds};
    double sum = 0.0;
    for (double x : phases) {
        EXPECT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_LE(sum, p.wall_seconds);
    EXPECT_GT(p.arbitrate_seconds, 0.0);
}

// ---------------------------------------------------------------------
// Adaptive policies
// ---------------------------------------------------------------------

TEST(AdaptivePolicies, UgalRunsAndDelivers)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    ShiftTraffic traffic(fc.terminalsPerLeaf());  // adversarial shift
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1200;
    cfg.load = 0.9;
    cfg.seed = 23;
    cfg.route_mode = RouteMode::kUgal;
    Simulator sim(fc, oracle, traffic, cfg);
    SimResult r = sim.run();
    EXPECT_GT(r.delivered_packets, 0);
    EXPECT_GT(r.accepted, 0.0);
}

} // namespace
} // namespace rfc
