/**
 * @file
 * Unit tests for the shared VCT core pieces: SimConfig validation,
 * the type-7 binned latency histogram and its deterministic merge,
 * and the engine's deterministic shard execution (results must depend
 * on the shard count only, never on the worker thread count).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "clos/fat_tree.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/updown.hpp"
#include "sim/core/config.hpp"
#include "sim/core/histogram.hpp"
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
    broken([](SimConfig &c) { c.source_queue = 0; });
    broken([](SimConfig &c) { c.shards = -1; });
    // shards = 0 was the retired sequential mode; a zero-latency link
    // cannot cross the end-of-cycle shard barrier.
    broken([](SimConfig &c) { c.shards = 0; });
    broken([](SimConfig &c) { c.link_latency = 0; });
    broken([](SimConfig &c) {
        c.route_mode = RouteMode::kValiant;
        c.vcs = 1;
    });
    broken([](SimConfig &c) { c.telemetry_bin = -1; });
    broken([](SimConfig &c) { c.route_ttl = -1; });
    // Adaptive-policy knobs: the UGAL bias must be a usable number
    // (the comparison q_min*h_min <= q_val*h_val + threshold would
    // silently never/always detour on NaN/inf) and the flowlet idle
    // gap a non-negative cycle count (0 = per-packet ECMP is legal).
    broken([](SimConfig &c) { c.ugal_threshold = -0.5; });
    broken([](SimConfig &c) {
        c.ugal_threshold = std::numeric_limits<double>::quiet_NaN();
    });
    broken([](SimConfig &c) {
        c.ugal_threshold = std::numeric_limits<double>::infinity();
    });
    broken([](SimConfig &c) { c.flowlet_gap = -1; });
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
    check([](SimConfig &c, int v) { c.source_queue = v; }, 32767, 32768);
    check([](SimConfig &c, int v) { c.pkt_phits = v; }, 1023, 1024);
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

TEST(SimConfigValidate, RejectsInputVcCountBeyondInt32)
{
    // The engine stores input-VC ids as int32; ports x vcs past
    // INT32_MAX must be refused at construction, before any per-VC
    // array is sized.  (validate()'s 8-bit VC bound refuses this vcs
    // first; the engine's own check covers fabrics past 16.9M ports.)
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.vcs = 1 << 25;
    EXPECT_THROW(Simulator(fc, oracle, traffic, cfg),
                 std::invalid_argument);
}

TEST(UpDownPolicyMemo, PicksMatchOracleScanAcrossMaskWidth)
{
    // Radix 120: a leaf has 60 up ports and a spine 120 down ports, so
    // choice sets straddle the memo's packed mask width and both the
    // bitmask path and the oracle-scan path run.  Either must pick
    // the port a plain uniform draw over the oracle's list picks, and
    // report a sole port exactly when that list has one entry.
    auto fc = buildCft(120, 2);
    UpDownOracle oracle(fc);
    FabricLayout lay = FabricLayout::fromFoldedClos(fc);
    for (RouteMode mode : {RouteMode::kMinimal, RouteMode::kUpDownRandom}) {
        SimConfig cfg;
        cfg.route_mode = mode;
        UpDownPolicy policy(fc, oracle, lay, cfg);
        const CongestionView cv(lay, cfg.vcs, cfg.buf_packets, nullptr,
                                nullptr, nullptr, nullptr, nullptr, 0);
        Rng rng(3), ref_rng(3);
        std::vector<int> choices;
        for (int s = 0; s < fc.numSwitches(); s += 7) {
            for (int target = 0; target < fc.numLeaves(); target += 5) {
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
                const int pick = choices[ref_rng.uniform(choices.size())];
                const int want = need == 0 ? lay.n_up[s] + pick : pick;

                UpDownPolicy::Pkt p{};
                p.dest_leaf = target;
                p.inter_leaf = -1;
                p.phase = 1;
                int fixed_vc = 0;
                bool sole = false;
                EXPECT_EQ(policy.routeOut(cv, s, p, rng, fixed_vc, sole),
                          want)
                    << "switch " << s << " target " << target;
                EXPECT_EQ(sole, choices.size() == 1);
                EXPECT_EQ(fixed_vc, -1);
            }
        }
    }
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

TEST(LatencyHistogramCore, MergeEqualsConcatenation)
{
    LatencyHistogram a, b, all;
    for (long long v = 1; v <= 300; ++v) {
        a.add(v);
        all.add(v);
    }
    for (long long v = 100; v <= 2000; v += 3) {
        b.add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
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

TEST(LatencyHistogramCore, MergeWithEmptyIsNoOp)
{
    LatencyHistogram a, empty;
    a.add(12);
    a.add(90);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2);
    EXPECT_EQ(a.minSample(), 12);
    EXPECT_EQ(a.maxSample(), 90);
    EXPECT_DOUBLE_EQ(a.sum(), 102.0);
}

TEST(LatencyHistogramCore, MergeIntoEmptyAdoptsExtrema)
{
    LatencyHistogram a, b;
    b.add(12);
    b.add(90);
    a.merge(b);
    EXPECT_EQ(a.count(), 2);
    EXPECT_EQ(a.minSample(), 12);
    EXPECT_EQ(a.maxSample(), 90);
    EXPECT_DOUBLE_EQ(a.sum(), 102.0);
}

TEST(LatencyHistogramCore, MergeOrderIrrelevant)
{
    LatencyHistogram a1, b1, a2, b2;
    for (long long v = 1; v <= 500; ++v)
        (v % 2 ? a1 : b1).add(v * 7 % 900 + 1);
    for (long long v = 1; v <= 500; ++v)
        (v % 2 ? a2 : b2).add(v * 7 % 900 + 1);
    a1.merge(b1);
    b2.merge(a2);
    for (double q : {0.1, 0.5, 0.99})
        EXPECT_DOUBLE_EQ(a1.quantile(q), b2.quantile(q));
}

TEST(PerfCountersCore, MergeSumsDeterministicFields)
{
    PerfCounters a, b;
    a.cycles = 100;
    a.forwards = 7;
    a.occupancy = {1, 2};
    b.cycles = 100;
    b.switch_scans = 3;
    b.arb_conflicts = 2;
    b.credit_stalls = 5;
    b.forwards = 4;
    b.occupancy = {0, 1, 9};
    a.merge(b);
    EXPECT_EQ(a.cycles, 100);
    EXPECT_EQ(a.switch_scans, 3);
    EXPECT_EQ(a.arb_conflicts, 2);
    EXPECT_EQ(a.credit_stalls, 5);
    EXPECT_EQ(a.forwards, 11);
    ASSERT_EQ(a.occupancy.size(), 3u);
    EXPECT_EQ(a.occupancy[0], 1);
    EXPECT_EQ(a.occupancy[1], 3);
    EXPECT_EQ(a.occupancy[2], 9);
}

// ---------------------------------------------------------------------
// Deterministic shard execution
// ---------------------------------------------------------------------

SimResult
runCft(int shards, int jobs, double load = 0.7)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1200;
    cfg.load = load;
    cfg.seed = 21;
    cfg.shards = shards;
    cfg.jobs = jobs;
    Simulator sim(fc, oracle, traffic, cfg);
    return sim.run();
}

SimResult
runDirect(int shards, int jobs)
{
    Rng grng(6);
    Graph g = randomRegularGraph(16, 4, grng);
    KspRoutes routes(g, 4);
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1200;
    cfg.load = 0.6;
    cfg.seed = 22;
    cfg.vcs = std::max(6, routes.maxHops());
    cfg.shards = shards;
    cfg.jobs = jobs;
    Simulator sim(g, routes, 2, traffic, cfg);
    return sim.run();
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.generated_packets, b.generated_packets);
    EXPECT_EQ(a.delivered_packets, b.delivered_packets);
    EXPECT_EQ(a.suppressed_packets, b.suppressed_packets);
    EXPECT_EQ(a.unroutable_packets, b.unroutable_packets);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.avg_latency, b.avg_latency);
    EXPECT_EQ(a.avg_hops, b.avg_hops);
    EXPECT_EQ(a.p50_latency, b.p50_latency);
    EXPECT_EQ(a.p99_latency, b.p99_latency);
    EXPECT_EQ(a.perf.switch_scans, b.perf.switch_scans);
    EXPECT_EQ(a.perf.arb_conflicts, b.perf.arb_conflicts);
    EXPECT_EQ(a.perf.credit_stalls, b.perf.credit_stalls);
    EXPECT_EQ(a.perf.forwards, b.perf.forwards);
    EXPECT_EQ(a.perf.occupancy, b.perf.occupancy);
}

TEST(ShardedSim, IndirectBitIdenticalAcrossJobs)
{
    SimResult one = runCft(4, 1);
    SimResult four = runCft(4, 4);
    SimResult many = runCft(4, 16);
    expectSameResult(one, four);
    expectSameResult(one, many);
    EXPECT_GT(one.delivered_packets, 0);
}

TEST(ShardedSim, DirectBitIdenticalAcrossJobs)
{
    SimResult one = runDirect(3, 1);
    SimResult three = runDirect(3, 3);
    expectSameResult(one, three);
    EXPECT_GT(one.delivered_packets, 0);
}

TEST(ShardedSim, ShardCountIsPartOfTheExperiment)
{
    // Different shard counts are different (equally valid) random
    // streams - close in aggregate, not bit-identical.
    SimResult s1 = runCft(1, 1);
    SimResult s4 = runCft(4, 1);
    EXPECT_GT(s1.delivered_packets, 0);
    EXPECT_GT(s4.delivered_packets, 0);
    EXPECT_NEAR(s1.accepted, s4.accepted, 0.1 * s1.accepted);
}

TEST(ShardedSim, DefaultIsOneShard)
{
    EXPECT_EQ(SimConfig{}.shards, 1);
    SimResult r = runCft(SimConfig{}.shards, 1, 0.5);
    // Every delivery is a commit, and multi-hop paths mean strictly
    // more commits than deliveries.
    EXPECT_GT(r.perf.forwards, r.delivered_packets);
    EXPECT_LE(r.delivered_packets, r.generated_packets);
    EXPECT_NEAR(r.accepted, 0.5, 0.05);
}

TEST(ShardedSim, RejectsMoreShardsThanSwitches)
{
    EXPECT_THROW(runCft(1000, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Adaptive policies under the same determinism contract
// ---------------------------------------------------------------------

SimResult
runCftUgal(int shards, int jobs)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    ShiftTraffic traffic(fc.terminalsPerLeaf());  // adversarial shift
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1200;
    cfg.load = 0.9;
    cfg.seed = 23;
    cfg.shards = shards;
    cfg.jobs = jobs;
    cfg.route_mode = RouteMode::kUgal;
    Simulator sim(fc, oracle, traffic, cfg);
    return sim.run();
}

SimResult
runDirectFlowlet(int shards, int jobs, long long gap = 64)
{
    Rng grng(6);
    Graph g = randomRegularGraph(16, 4, grng);
    KspRoutes routes(g, 4);
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.warmup = 300;
    cfg.measure = 1200;
    cfg.load = 0.6;
    cfg.seed = 24;
    cfg.vcs = std::max(6, routes.maxHops());
    cfg.shards = shards;
    cfg.jobs = jobs;
    cfg.flowlet_gap = gap;
    Simulator sim(g, routes, 2, traffic, cfg, PathPolicy::kFlowletEcmp);
    return sim.run();
}

TEST(AdaptivePolicies, UgalBitIdenticalAcrossJobs)
{
    // The UGAL decision reads the CongestionView, but only shard-local
    // state - so it must stay bit-identical across thread counts like
    // every policy.
    SimResult one = runCftUgal(4, 1);
    SimResult four = runCftUgal(4, 4);
    expectSameResult(one, four);
    EXPECT_GT(one.delivered_packets, 0);
}

TEST(AdaptivePolicies, UgalRunsOnOneShard)
{
    SimResult r = runCftUgal(1, 1);
    EXPECT_GT(r.delivered_packets, 0);
    EXPECT_GT(r.accepted, 0.0);
}

TEST(AdaptivePolicies, FlowletBitIdenticalAcrossJobs)
{
    // Flowlet state is keyed by source terminal and terminals are
    // shard-owned, so the per-shard maps never race and the result
    // only depends on the shard count.
    SimResult one = runDirectFlowlet(3, 1);
    SimResult three = runDirectFlowlet(3, 3);
    expectSameResult(one, three);
    EXPECT_GT(one.delivered_packets, 0);
}

TEST(AdaptivePolicies, FlowletGapZeroIsPerPacketEcmp)
{
    // gap = 0 means "idle >= 0 cycles", which is true for every
    // packet: each one re-draws, i.e. plain per-packet ECMP.  The two
    // runs use different seeds, so compare statistically.
    SimResult ecmp = runDirect(1, 1);
    SimResult gap0 = runDirectFlowlet(1, 1, 0);
    EXPECT_GT(gap0.delivered_packets, 0);
    EXPECT_NEAR(gap0.accepted, ecmp.accepted, 0.15 * ecmp.accepted);
}

} // namespace
} // namespace rfc
