/**
 * @file
 * Unit/integration tests for the closed-loop workload subsystem: the
 * three concrete workloads complete work on a small folded Clos, every
 * run satisfies message conservation exactly, results are bit-
 * identical across SimConfig::jobs values at a fixed shard count
 * (including the coflow global-step path), and the WorkloadGrid driver
 * follows the deriveSeed contract.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "clos/fat_tree.hpp"
#include "exp/workload_experiment.hpp"
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

TEST(Workload, CoflowPhasesAdvanceSharded)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    WorkloadSpec spec;
    spec.kind = "coflow";
    spec.group = 4;
    SimConfig cfg = smallConfig();
    cfg.shards = 4;
    cfg.jobs = 4;
    SimResult r = runOn(fc, oracle, spec, 1.0, cfg);
    EXPECT_GT(r.workload.coflow_phases, 1);
    expectConserving(r);
}

/** Fields that must match bit-for-bit across jobs values. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload.messages_sent, b.workload.messages_sent);
    EXPECT_EQ(a.workload.flows_completed, b.workload.flows_completed);
    EXPECT_EQ(a.workload.rpcs_completed, b.workload.rpcs_completed);
    EXPECT_EQ(a.workload.coflow_phases, b.workload.coflow_phases);
    EXPECT_EQ(a.workload.pkts_created, b.workload.pkts_created);
    EXPECT_EQ(a.workload.pkts_received, b.workload.pkts_received);
    EXPECT_EQ(a.delivered_packets, b.delivered_packets);
    EXPECT_DOUBLE_EQ(a.workload.goodput, b.workload.goodput);
    EXPECT_DOUBLE_EQ(a.workload.fct_mean, b.workload.fct_mean);
    EXPECT_DOUBLE_EQ(a.workload.rpc_mean, b.workload.rpc_mean);
    EXPECT_DOUBLE_EQ(a.workload.rpc_p99, b.workload.rpc_p99);
    EXPECT_DOUBLE_EQ(a.workload.cct_mean, b.workload.cct_mean);
    ASSERT_EQ(a.workload.ccts.size(), b.workload.ccts.size());
    for (std::size_t i = 0; i < a.workload.ccts.size(); ++i)
        EXPECT_DOUBLE_EQ(a.workload.ccts[i], b.workload.ccts[i]);
}

TEST(Workload, ShardedResultsIndependentOfJobs)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    for (const char *kind : {"rpc", "incast", "coflow"}) {
        WorkloadSpec spec;
        spec.kind = kind;
        spec.fanin = 3;
        spec.group = 4;
        SimConfig cfg = smallConfig();
        cfg.shards = 4;
        cfg.jobs = 1;
        SimResult serial = runOn(fc, oracle, spec, 0.75, cfg);
        cfg.jobs = 4;
        SimResult parallel = runOn(fc, oracle, spec, 0.75, cfg);
        SCOPED_TRACE(kind);
        expectSameResult(serial, parallel);
        expectConserving(serial);
        expectConserving(parallel);
    }
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

TEST(WorkloadGrid, RunsAndIndexes)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    WorkloadGrid grid;
    grid.addNetwork("cft8", fc, oracle);
    WorkloadSpec rpc;
    WorkloadSpec coflow;
    coflow.kind = "coflow";
    coflow.group = 4;
    grid.workloads = {rpc, coflow};
    grid.loads = {0.25, 0.75};
    grid.base = smallConfig();
    grid.base.warmup = 200;
    grid.base.measure = 1500;
    grid.repetitions = 2;

    ExperimentEngine engine(2, 99);
    WorkloadGridResult res = runWorkloadGrid(grid, engine);
    ASSERT_EQ(res.points.size(), 4u);
    const WorkloadPointResult &p =
        res.points[res.index(0, 1, 1, 2, 2)];
    EXPECT_EQ(p.kind, "coflow");
    EXPECT_DOUBLE_EQ(p.load, 0.75);
    EXPECT_EQ(p.reps, 2);
    EXPECT_EQ(p.conservation_violations, 0);
    for (const auto &pt : res.points) {
        EXPECT_GT(pt.goodput.mean, 0.0);
        EXPECT_EQ(pt.conservation_violations, 0);
    }
}

TEST(WorkloadGrid, JobsInvariantJson)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    WorkloadGrid grid;
    grid.addNetwork("cft8", fc, oracle);
    WorkloadSpec spec;
    grid.workloads = {spec};
    grid.loads = {0.5};
    grid.base = smallConfig();
    grid.base.warmup = 200;
    grid.base.measure = 1000;
    grid.repetitions = 3;

    auto stable = [&](int jobs) {
        ExperimentEngine engine(jobs, 42);
        WorkloadGridResult res = runWorkloadGrid(grid, engine);
        std::ostringstream os;
        writeWorkloadGridJson(os, grid, res, 42);
        // Drop run-dependent lines (timing, rss, jobs echo).
        std::istringstream in(os.str());
        std::ostringstream out;
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("jobs") != std::string::npos ||
                line.find("seconds") != std::string::npos ||
                line.find("peak_rss_bytes") != std::string::npos)
                continue;
            out << line << '\n';
        }
        return out.str();
    };
    EXPECT_EQ(stable(1), stable(4));
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
