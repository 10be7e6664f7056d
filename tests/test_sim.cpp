/**
 * @file
 * Tests for the virtual cut-through packet simulator (Section 6).
 */
#include <gtest/gtest.h>

#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "routing/updown.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

namespace rfc {
namespace {

SimConfig
quickConfig(double load, std::uint64_t seed = 7)
{
    SimConfig cfg;
    cfg.warmup = 500;
    cfg.measure = 2000;
    cfg.load = load;
    cfg.seed = seed;
    return cfg;
}

TEST(Simulator, ZeroLoadLatencyNearAnalytic)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    Simulator sim(fc, oracle, traffic, quickConfig(0.01));
    auto r = sim.run();
    // Header pipeline: injection link + <=4 switch hops + ejection link
    // at 1 cycle each, plus the 16-cycle tail.  Everything beyond ~1.5x
    // that indicates queueing where there should be none.
    EXPECT_GT(r.avg_latency, 18.0);
    EXPECT_LT(r.avg_latency, 32.0);
    EXPECT_NEAR(r.avg_hops, 3.7, 0.4);
}

TEST(Simulator, AcceptedTracksOfferedAtLowLoad)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    for (double load : {0.1, 0.2, 0.3}) {
        UniformTraffic traffic;
        Simulator sim(fc, oracle, traffic, quickConfig(load));
        auto r = sim.run();
        EXPECT_NEAR(r.accepted, load, 0.03) << "load " << load;
    }
}

TEST(Simulator, SaturationBelowUnity)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    Simulator sim(fc, oracle, traffic, quickConfig(1.0));
    auto r = sim.run();
    EXPECT_GT(r.accepted, 0.6);
    EXPECT_LE(r.accepted, 1.0);
}

TEST(Simulator, DeterministicBySeed)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    UniformTraffic t1, t2;
    Simulator a(fc, oracle, t1, quickConfig(0.5, 42));
    Simulator b(fc, oracle, t2, quickConfig(0.5, 42));
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_EQ(ra.delivered_packets, rb.delivered_packets);
    EXPECT_EQ(ra.generated_packets, rb.generated_packets);
    EXPECT_DOUBLE_EQ(ra.avg_latency, rb.avg_latency);
}

TEST(Simulator, DeliveredNeverExceedsGenerated)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    Simulator sim(fc, oracle, traffic, quickConfig(0.8));
    auto r = sim.run();
    EXPECT_LE(r.delivered_packets, r.generated_packets);
    EXPECT_GT(r.delivered_packets, 0);
}

TEST(Simulator, LatencyGrowsWithLoad)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic t1, t2;
    Simulator lo(fc, oracle, t1, quickConfig(0.1));
    Simulator hi(fc, oracle, t2, quickConfig(0.9));
    EXPECT_LT(lo.run().avg_latency, hi.run().avg_latency);
}

TEST(Simulator, FixedRandomCreatesHotspotLoss)
{
    // Ejection collisions cap fixed-random throughput below uniform's.
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic uni;
    FixedRandomTraffic fixed;
    Simulator a(fc, oracle, uni, quickConfig(1.0));
    Simulator b(fc, oracle, fixed, quickConfig(1.0));
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_LT(rb.accepted, ra.accepted);
}

TEST(Simulator, PairingSlightlyBelowUniformOnRfc)
{
    // Fig 8 shape: random-pairing saturates below uniform on an RFC.
    Rng rng(5);
    auto built = buildRfc(8, 3, rfcMaxLeaves(8, 3), rng);
    ASSERT_TRUE(built.routable);
    UpDownOracle oracle(built.topology);
    UniformTraffic uni;
    RandomPairingTraffic pair;
    Simulator a(built.topology, oracle, uni, quickConfig(1.0));
    Simulator b(built.topology, oracle, pair, quickConfig(1.0));
    EXPECT_GT(a.run().accepted, b.run().accepted - 0.05);
}

TEST(Simulator, UnroutablePacketsCountedUnderFaults)
{
    Rng rng(9);
    auto built = buildRfc(8, 3, rfcMaxLeaves(8, 3), rng);
    auto fc = built.topology;
    // Cut half the links: many pairs lose their common ancestors.
    removeRandomLinks(fc, fc.links().size() / 2, rng);
    UpDownOracle oracle(fc);
    ASSERT_FALSE(oracle.routable());
    UniformTraffic traffic;
    Simulator sim(fc, oracle, traffic, quickConfig(0.5));
    auto r = sim.run();
    EXPECT_GT(r.unroutable_packets, 0);
    EXPECT_GT(r.delivered_packets, 0);  // routable pairs still flow
}

TEST(Simulator, SuppressionOnlyNearSaturation)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic t1, t2;
    Simulator lo(fc, oracle, t1, quickConfig(0.2));
    auto r_lo = lo.run();
    EXPECT_EQ(r_lo.suppressed_packets, 0);
    Simulator hi(fc, oracle, t2, quickConfig(1.0));
    auto r_hi = hi.run();
    EXPECT_GT(r_hi.suppressed_packets, 0);
}

TEST(Simulator, RejectsBadConfig)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.vcs = 0;
    EXPECT_THROW(Simulator(fc, oracle, traffic, cfg),
                 std::invalid_argument);
}

TEST(Simulator, SingleVcStillWorks)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    auto cfg = quickConfig(0.3);
    cfg.vcs = 1;
    Simulator sim(fc, oracle, traffic, cfg);
    auto r = sim.run();
    EXPECT_NEAR(r.accepted, 0.3, 0.05);
}

TEST(Simulator, LongerPacketsSameThroughputHigherLatency)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    UniformTraffic t1, t2;
    auto cfg_short = quickConfig(0.3);
    cfg_short.pkt_phits = 4;
    auto cfg_long = quickConfig(0.3);
    cfg_long.pkt_phits = 32;
    Simulator a(fc, oracle, t1, cfg_short);
    Simulator b(fc, oracle, t2, cfg_long);
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_NEAR(ra.accepted, rb.accepted, 0.05);
    EXPECT_LT(ra.avg_latency, rb.avg_latency);
}

TEST(LatencyHistogram, QuantilesOrderedAndBounded)
{
    LatencyHistogram h;
    for (long long v = 1; v <= 1000; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), 1000);
    double p50 = h.quantile(0.5);
    double p99 = h.quantile(0.99);
    EXPECT_LE(p50, p99);
    // Log buckets: the median of 1..1000 (500) lands in [256, 1024).
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1024.0);
    EXPECT_LE(p99, 1024.0);
}

TEST(LatencyHistogram, EmptyAndConstant)
{
    LatencyHistogram h;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    for (int i = 0; i < 10; ++i)
        h.add(33);
    // All samples in bucket [32, 64).
    EXPECT_GE(h.quantile(0.5), 32.0);
    EXPECT_LE(h.quantile(0.99), 64.0);
}

TEST(Simulator, TailLatencyReported)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    Simulator sim(fc, oracle, traffic, quickConfig(0.6));
    auto r = sim.run();
    EXPECT_GT(r.p50_latency, 0.0);
    EXPECT_GE(r.p99_latency, r.p50_latency);
    // The mean sits between the median and the 99th percentile for
    // these right-skewed queueing distributions.
    EXPECT_LT(r.avg_latency, r.p99_latency * 1.5);
}

TEST(Simulator, UpDownRandomModeBeatsMinimalOnLeafFlood)
{
    // The adversarial claim of Section 3: spreading over all feasible
    // parents sustains higher point-to-point throughput.
    auto fc = buildCft(12, 3);
    Rng rng(31);
    auto built = buildRfc(12, 3, fc.numLeaves(), rng);
    ASSERT_TRUE(built.routable);
    UpDownOracle oracle(built.topology);

    auto run_mode = [&](RouteMode mode) {
        ShiftTraffic traffic(built.topology.terminalsPerLeaf());
        auto cfg = quickConfig(1.0);
        cfg.route_mode = mode;
        Simulator sim(built.topology, oracle, traffic, cfg);
        return sim.run().accepted;
    };
    double minimal = run_mode(RouteMode::kMinimal);
    double spread = run_mode(RouteMode::kUpDownRandom);
    EXPECT_GT(spread, minimal);
    EXPECT_GT(spread, 0.5);
}

TEST(Simulator, ValiantDeliversAndDoublesPathLength)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic t1, t2;
    auto direct_cfg = quickConfig(0.2);
    Simulator direct(fc, oracle, t1, direct_cfg);
    auto rd = direct.run();

    auto valiant_cfg = quickConfig(0.2);
    valiant_cfg.route_mode = RouteMode::kValiant;
    Simulator valiant(fc, oracle, t2, valiant_cfg);
    auto rv = valiant.run();

    EXPECT_NEAR(rv.accepted, 0.2, 0.03);
    // Two concatenated up/down walks: noticeably more hops.
    EXPECT_GT(rv.avg_hops, rd.avg_hops * 1.5);
    EXPECT_GT(rv.avg_latency, rd.avg_latency);
}

TEST(Simulator, ValiantHalvesUniformSaturation)
{
    // The dragonfly trade the paper cites: Valiant costs ~half the
    // peak uniform throughput.
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic t1, t2;
    Simulator direct(fc, oracle, t1, quickConfig(1.0));
    auto rd = direct.run();
    auto cfg = quickConfig(1.0);
    cfg.route_mode = RouteMode::kValiant;
    Simulator valiant(fc, oracle, t2, cfg);
    auto rv = valiant.run();
    EXPECT_LT(rv.accepted, rd.accepted * 0.75);
    EXPECT_GT(rv.accepted, rd.accepted * 0.3);
}

TEST(Simulator, ValiantRequiresTwoVcs)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    auto cfg = quickConfig(0.2);
    cfg.route_mode = RouteMode::kValiant;
    cfg.vcs = 1;
    EXPECT_THROW(Simulator(fc, oracle, traffic, cfg),
                 std::invalid_argument);
}

TEST(UpDownOracleStats, AverageLeafDistanceMatchesCftStructure)
{
    // CFT(8,3): 32 leaves; from any leaf, 3 others at distance 2 (same
    // subtree of 4 leaves), 28 at distance 4.
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    double expect = (3.0 * 2 + 28.0 * 4) / 31.0;
    EXPECT_NEAR(oracle.averageLeafDistance(), expect, 1e-9);
}

TEST(Sweep, LoadRangeSpacing)
{
    auto loads = loadRange(0.1, 1.0, 10);
    ASSERT_EQ(loads.size(), 10u);
    EXPECT_DOUBLE_EQ(loads.front(), 0.1);
    EXPECT_DOUBLE_EQ(loads.back(), 1.0);
    EXPECT_NEAR(loads[1] - loads[0], 0.1, 1e-12);
}

TEST(Sweep, LoadRangeEndsExactlyAtHi)
{
    // The bench default (0.2, 1.0, 7) interpolates its last point to
    // 1.0000000000000002, a load SimConfig rejects.
    auto loads = loadRange(0.2, 1.0, 7);
    EXPECT_EQ(loads.back(), 1.0);
    SimConfig cfg;
    for (double l : loads) {
        cfg.load = l;
        EXPECT_NO_THROW(cfg.validate()) << l;
    }
}

TEST(Sweep, LoadRangeRejectsZeroAndBadBounds)
{
    // A range touching 0 would hand SimConfig a load it rejects.
    EXPECT_THROW(loadRange(0.0, 0.9, 5), std::invalid_argument);
    EXPECT_THROW(loadRange(-0.1, 0.9, 5), std::invalid_argument);
    EXPECT_THROW(loadRange(0.1, 1.1, 5), std::invalid_argument);
    EXPECT_THROW(loadRange(0.5, 0.2, 5), std::invalid_argument);
}

TEST(Sweep, RunLoadSweepProducesMonotoneOffered)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    auto cfg = quickConfig(0.0);
    auto results = runLoadSweep(fc, oracle, traffic, cfg,
                                {0.2, 0.4, 0.6}, 2);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_NEAR(results[0].accepted, 0.2, 0.03);
    EXPECT_NEAR(results[1].accepted, 0.4, 0.04);
    EXPECT_LE(results[0].avg_latency, results[2].avg_latency);
}

TEST(Sweep, SaturationThroughputReasonable)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    auto cfg = quickConfig(0.0);
    auto r = saturationThroughput(fc, oracle, traffic, cfg, 2);
    EXPECT_GT(r.accepted, 0.5);
    EXPECT_LE(r.accepted, 1.0);
}

} // namespace
} // namespace rfc
