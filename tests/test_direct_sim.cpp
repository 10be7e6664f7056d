/**
 * @file
 * Tests for the Simulator's direct-network (Jellyfish/RRN) constructor:
 * argument checks, flow-control sanity under KSP routing, and a
 * closed-loop workload attached to a direct network.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "sim/simulator.hpp"
#include "workload/closed_loop.hpp"

namespace rfc {
namespace {

struct Rrn
{
    Graph g;
    KspRoutes routes;
    int hosts;

    Rrn(int n, int degree, int k, int hosts_per_switch,
        std::uint64_t seed)
        : g([&] {
              Rng rng(seed);
              return randomRegularGraph(n, degree, rng);
          }()),
          routes(g, k), hosts(hosts_per_switch)
    {}
};

SimConfig
quickConfig(double load, std::uint64_t seed = 3)
{
    SimConfig cfg;
    cfg.warmup = 500;
    cfg.measure = 2000;
    cfg.load = load;
    cfg.seed = seed;
    cfg.vcs = 6;  // >= max ksp hops on these small graphs
    return cfg;
}

TEST(DirectNetworkSim, RejectsTooFewVcs)
{
    Rrn net(16, 4, 4, 2, 1);
    UniformTraffic traffic;
    SimConfig cfg = quickConfig(0.3);
    cfg.vcs = 1;
    if (net.routes.maxHops() > 1) {
        EXPECT_THROW(
            Simulator(net.g, net.routes, 2, traffic, cfg),
            std::invalid_argument);
    }
}

TEST(DirectNetworkSim, ZeroLoadLatencyNearAnalytic)
{
    Rrn net(16, 4, 4, 2, 2);
    UniformTraffic traffic;
    Simulator sim(net.g, net.routes, 2, traffic, quickConfig(0.01));
    auto r = sim.run();
    // ~2-3 switch hops + injection/ejection links + 16-cycle tail.
    EXPECT_GT(r.avg_latency, 17.0);
    EXPECT_LT(r.avg_latency, 35.0);
    EXPECT_GT(r.avg_hops, 1.0);
    EXPECT_LT(r.avg_hops, 4.0);
}

TEST(DirectNetworkSim, AcceptedTracksOfferedAtLowLoad)
{
    Rrn net(24, 5, 4, 3, 3);
    for (double load : {0.1, 0.3}) {
        UniformTraffic traffic;
        Simulator sim(net.g, net.routes, 3, traffic, quickConfig(load));
        auto r = sim.run();
        EXPECT_NEAR(r.accepted, load, 0.04) << "load " << load;
    }
}

TEST(DirectNetworkSim, SaturationIsHighOnWellProvisionedRrn)
{
    // Degree 6, 2 hosts/switch: plenty of network bandwidth; the
    // Jellyfish promise is near-full uniform throughput.
    Rrn net(32, 6, 4, 2, 4);
    UniformTraffic traffic;
    Simulator sim(net.g, net.routes, 2, traffic, quickConfig(1.0));
    auto r = sim.run();
    EXPECT_GT(r.accepted, 0.6);
}

TEST(DirectNetworkSim, DeterministicBySeed)
{
    Rrn net(16, 4, 3, 2, 5);
    UniformTraffic t1, t2;
    Simulator a(net.g, net.routes, 2, t1, quickConfig(0.5, 42));
    Simulator b(net.g, net.routes, 2, t2, quickConfig(0.5, 42));
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_EQ(ra.delivered_packets, rb.delivered_packets);
    EXPECT_DOUBLE_EQ(ra.avg_latency, rb.avg_latency);
}

TEST(DirectNetworkSim, IntraSwitchTrafficBypassesNetwork)
{
    // All traffic between co-located terminals: zero network hops.
    class LocalTraffic : public Traffic
    {
      public:
        void init(long long, Rng &) override {}
        long long
        dest(long long src, Rng &) override
        {
            return src % 2 == 0 ? src + 1 : src - 1;
        }
    };
    Rrn net(8, 3, 3, 2, 6);
    LocalTraffic traffic;
    Simulator sim(net.g, net.routes, 2, traffic, quickConfig(0.5));
    auto r = sim.run();
    EXPECT_NEAR(r.accepted, 0.5, 0.05);
    EXPECT_DOUBLE_EQ(r.avg_hops, 0.0);
}

TEST(DirectNetworkSim, LatencyGrowsWithLoad)
{
    Rrn net(24, 4, 4, 2, 7);
    UniformTraffic t1, t2;
    Simulator lo(net.g, net.routes, 2, t1, quickConfig(0.1));
    Simulator hi(net.g, net.routes, 2, t2, quickConfig(0.9));
    EXPECT_LT(lo.run().avg_latency, hi.run().avg_latency);
}

TEST(DirectNetworkSim, NoDeadlockAtSaturation)
{
    // Hop-escalating VCs must keep packets flowing even at overload
    // with deep congestion; deliveries must continue through the
    // measurement window.
    Rrn net(20, 4, 4, 4, 8);  // oversubscribed: 4 hosts vs degree 4
    UniformTraffic traffic;
    auto cfg = quickConfig(1.0);
    cfg.measure = 4000;
    Simulator sim(net.g, net.routes, 4, traffic, cfg);
    auto r = sim.run();
    EXPECT_GT(r.delivered_packets, 0);
    EXPECT_GT(r.accepted, 0.1);
}

TEST(DirectNetworkSim, PairingWorksOnDirectNetwork)
{
    Rrn net(16, 4, 4, 2, 9);
    RandomPairingTraffic traffic;
    Simulator sim(net.g, net.routes, 2, traffic, quickConfig(0.4));
    auto r = sim.run();
    EXPECT_NEAR(r.accepted, 0.4, 0.06);
}

TEST(DirectNetworkSim, RejectsHostsPerSwitchBelowOne)
{
    Rrn net(16, 4, 4, 2, 1);
    UniformTraffic traffic;
    for (int hosts : {0, -1})
        EXPECT_THROW(Simulator(net.g, net.routes, hosts, traffic,
                               quickConfig(0.3)),
                     std::invalid_argument)
            << "hosts_per_switch " << hosts;
}

TEST(DirectNetworkSim, ClosedLoopRpcCompletesAndConserves)
{
    Rrn net(16, 4, 4, 2, 12);
    auto wl = makeWorkload(WorkloadSpec{}, 0.5);  // rpc defaults
    UniformTraffic traffic;  // replaced by the workload
    Simulator sim(net.g, net.routes, net.hosts, traffic,
                  quickConfig(0.5, 11));
    sim.attachWorkload(*wl);
    const SimResult r = sim.run();
    const WorkloadMetrics &w = r.workload;
    EXPECT_TRUE(w.active);
    EXPECT_EQ(w.name, "rpc");
    EXPECT_GT(w.rpcs_completed, 0);
    EXPECT_GT(w.flows_completed, 0);
    EXPECT_EQ(w.conservation_residual, 0);
    EXPECT_EQ(w.eject_mismatch, 0);
}

} // namespace
} // namespace rfc
