/**
 * @file
 * Unit/integration tests for the closed-loop workload subsystem: the
 * three concrete workloads complete work on a small folded Clos, every
 * run satisfies message conservation exactly, and the study runner's
 * closed-loop points (kVct points whose case names a workload)
 * aggregate and index like any other.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "clos/fat_tree.hpp"
#include "exp/experiment.hpp"
#include "routing/updown.hpp"
#include "sim/core/histogram.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "workload/closed_loop.hpp"

namespace rfc {
namespace {

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.warmup = 500;
    cfg.measure = 3000;
    cfg.load = 0.5;  // ignored once a workload is attached
    cfg.seed = 7;
    return cfg;
}

SimResult
runOn(const FoldedClos &fc, const UpDownOracle &oracle,
      const WorkloadSpec &spec, double load, SimConfig cfg)
{
    auto wl = makeWorkload(spec, load);
    auto traffic = makeTraffic("uniform");
    Simulator sim(fc, oracle, *traffic, cfg);
    sim.attachWorkload(*wl);
    return sim.run();
}

void
expectConserving(const SimResult &r)
{
    EXPECT_TRUE(r.workload.active);
    EXPECT_EQ(r.workload.conservation_residual, 0)
        << "created " << r.workload.pkts_created << " pending "
        << r.workload.pkts_pending << " queued " << r.queued_packets_end
        << " in-flight " << r.in_flight_packets << " received "
        << r.workload.pkts_received;
    EXPECT_EQ(r.workload.eject_mismatch, 0);
}

TEST(Workload, RpcCompletesAndConserves)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    WorkloadSpec spec;  // rpc defaults: fanout 2, 1:4, think 256
    SimResult r = runOn(fc, oracle, spec, 0.5, smallConfig());
    EXPECT_EQ(r.workload.name, "rpc");
    EXPECT_GT(r.workload.rpcs_completed, 0);
    EXPECT_GT(r.workload.flows_completed, 0);
    EXPECT_GT(r.workload.rpc_p50, 0.0);
    EXPECT_LE(r.workload.rpc_p50, r.workload.rpc_max);
    EXPECT_GT(r.workload.fct_mean, 0.0);
    EXPECT_GT(r.workload.goodput, 0.0);
    // Every request eventually answered: responses trail requests only
    // by the in-flight tail.
    EXPECT_GT(r.workload.responses_sent, 0);
    EXPECT_LE(r.workload.responses_sent, r.workload.requests_sent);
    expectConserving(r);
}

TEST(Workload, IncastCompletesAndConserves)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    WorkloadSpec spec;
    spec.kind = "incast";
    spec.fanin = 7;
    SimResult r = runOn(fc, oracle, spec, 0.5, smallConfig());
    EXPECT_EQ(r.workload.name, "incast");
    EXPECT_GT(r.workload.rpcs_completed, 0);  // completed waves
    EXPECT_GT(r.workload.goodput, 0.0);
    EXPECT_GT(r.workload.rpc_p99, 0.0);
    expectConserving(r);
}

TEST(Workload, CoflowPhasesAdvanceAndConserve)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    WorkloadSpec spec;
    spec.kind = "coflow";
    spec.group = 4;
    spec.flow_packets = 2;
    SimResult r = runOn(fc, oracle, spec, 1.0, smallConfig());
    EXPECT_EQ(r.workload.name, "coflow");
    EXPECT_GT(r.workload.coflow_phases, 1);
    EXPECT_FALSE(r.workload.ccts.empty());
    EXPECT_GT(r.workload.cct_mean, 0.0);
    EXPECT_GE(r.workload.cct_max, r.workload.cct_mean);
    expectConserving(r);
}

/**
 * Signals a global step from onWake in chosen cycles (twice in each,
 * from two terminals) and records the cycles onGlobalStep runs in.  It
 * overrides nothing beyond the callbacks it needs.
 */
class SignalProbe final : public Workload
{
  public:
    explicit SignalProbe(std::vector<long long> signal_cycles)
        : signal_(std::move(signal_cycles))
    {
    }

    std::string name() const override { return "signal-probe"; }
    void init(long long, long long, long long, std::uint64_t) override {}

    void
    onWake(long long term, long long now, WorkloadPort &port,
           WorkloadStats &) override
    {
        if (term > 1)
            return;
        if (std::find(signal_.begin(), signal_.end(), now) != signal_.end())
            port.signalGlobal();
        if (now < signal_.back())
            port.wakeAt(term, now + 1);
    }

    void onDeliver(long long, long long, std::uint32_t, long long,
                   long long, long long, WorkloadPort &,
                   WorkloadStats &) override
    {
    }

    void
    onGlobalStep(long long now, WorkloadPort &, WorkloadStats &) override
    {
        steps.push_back(now);
    }

    WorkloadAccount account() const override { return {}; }

    std::vector<long long> steps;

  private:
    std::vector<long long> signal_;
};

TEST(Workload, GlobalStepRunsExactlyInSignallingCycles)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    const std::vector<long long> cycles = {0, 3, 4, 17, 100};
    SignalProbe probe(cycles);
    auto traffic = makeTraffic("uniform");
    SimConfig cfg = smallConfig();
    cfg.warmup = 50;
    cfg.measure = 200;
    Simulator sim(fc, oracle, *traffic, cfg);
    sim.attachWorkload(probe);
    sim.run();
    EXPECT_EQ(probe.steps, cycles);
}

TEST(Workload, MakeWorkloadValidates)
{
    WorkloadSpec spec;
    EXPECT_THROW(makeWorkload(spec, 0.0), std::invalid_argument);
    EXPECT_THROW(makeWorkload(spec, 1.5), std::invalid_argument);
    spec.kind = "nope";
    EXPECT_THROW(makeWorkload(spec, 0.5), std::invalid_argument);
    spec.kind = "coflow";
    spec.group = 1;
    EXPECT_THROW(makeWorkload(spec, 0.5), std::invalid_argument);
}

TEST(Workload, SpecLabels)
{
    WorkloadSpec spec;
    EXPECT_EQ(spec.label(), "rpc(f2,1:4,t256)");
    spec.kind = "incast";
    EXPECT_EQ(spec.label(), "incast(f8,1:4,t256)");
    spec.kind = "coflow";
    EXPECT_EQ(spec.label(), "coflow(g8,p4)");
}

TEST(Workload, StudyRunsAndIndexes)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    WorkloadSpec rpc;
    WorkloadSpec coflow;
    coflow.kind = "coflow";
    coflow.group = 4;
    std::vector<Case> cases;
    for (const WorkloadSpec &spec : {rpc, coflow}) {
        Case c;
        c.label = spec.label();
        c.workload = spec;
        cases.push_back(c);
    }
    SimConfig base = smallConfig();
    base.warmup = 200;
    base.measure = 1500;

    const StudyResult res = ExperimentEngine(2, 99).run(
        {"closed-loop", Tier::kVct,
         crossPoints({{"cft8", &fc, &oracle}}, cases, {0.25, 0.75}, base),
         2});
    ASSERT_EQ(res.points.size(), 4u);
    const PointResult &p = res.points[gridIndex({1, 2, 2}, {0, 1, 1})];
    EXPECT_EQ(p.scenario, coflow.label());
    EXPECT_DOUBLE_EQ(p.load, 0.75);
    EXPECT_EQ(p.reps, 2);
    EXPECT_GT(p.mean("coflow_phases"), 0.0);
    for (const auto &pt : res.points) {
        EXPECT_GT(pt.mean("goodput"), 0.0);
        EXPECT_EQ(pt.mean("conservation_violations"), 0.0);
    }
}

TEST(Workload, HistogramMinMaxSum)
{
    LatencyHistogram h;
    EXPECT_EQ(h.minSample(), 0);
    EXPECT_EQ(h.maxSample(), 0);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    h.add(17);
    h.add(3);
    h.add(200);
    EXPECT_EQ(h.minSample(), 3);
    EXPECT_EQ(h.maxSample(), 200);
    EXPECT_DOUBLE_EQ(h.sum(), 220.0);
}

} // namespace
} // namespace rfc
