/**
 * @file
 * Property-based checks for the closed-loop workload subsystem over
 * randomized RFC topologies (tier 2).
 *
 * For every generated routable topology:
 *
 *  - message conservation is exact for all three workload kinds, on
 *    one shard and on two shards advanced by two threads, and
 *    ejection accounting matches the engine's own delivered-packet
 *    counter;
 *  - the workload grid JSON is bit-identical at any --jobs value and
 *    at any SimConfig::jobs value for a fixed shard count, once the
 *    timing fields are stripped (the same filter the CI determinism
 *    job applies to ext_closed_loop output);
 *  - coflow completion time is monotone in the load knob: makeWorkload
 *    maps load onto the per-flow packet count, so a 4x packet range
 *    must produce strictly larger CCTs.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/prop.hpp"
#include "exp/workload_experiment.hpp"
#include "routing/updown.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "workload/closed_loop.hpp"

namespace rfc {
namespace {

/** Drop the lines the CI determinism diff also ignores. */
std::string
stripTimingFields(const std::string &json)
{
    static const char *kVolatile[] = {
        "\"jobs\"", "\"wall_seconds\"", "\"trial_seconds_total\"",
        "\"trial_seconds_max\"", "\"peak_rss_bytes\""};
    std::ostringstream out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        bool drop = false;
        for (const char *key : kVolatile)
            if (line.find(key) != std::string::npos)
                drop = true;
        if (!drop)
            out << line << "\n";
    }
    return out.str();
}

/** The specs the conservation sweep exercises, sized to @p terminals. */
std::vector<WorkloadSpec>
specsFor(long long terminals)
{
    WorkloadSpec rpc;
    WorkloadSpec incast;
    incast.kind = "incast";
    incast.fanin = terminals >= 4 ? 3 : 1;
    WorkloadSpec coflow;
    coflow.kind = "coflow";
    coflow.group = terminals >= 4 ? 4 : 2;
    coflow.flow_packets = 2;
    return {rpc, incast, coflow};
}

SimResult
runWorkload(const FoldedClos &fc, const UpDownOracle &oracle,
            const WorkloadSpec &spec, double load, SimConfig cfg)
{
    auto wl = makeWorkload(spec, load);
    auto traffic = makeTraffic("uniform");
    Simulator sim(fc, oracle, *traffic, cfg);
    sim.attachWorkload(*wl);
    return sim.run();
}

CheckResult
conservationContract(const TopoParams &params)
{
    FoldedClos fc = materializeTopo(params);
    UpDownOracle oracle(fc);
    if (!oracle.routable())
        return CheckResult::pass();  // vacuous: nothing to inject into

    std::ostringstream err;
    for (const WorkloadSpec &spec : specsFor(fc.numTerminals())) {
        for (int shards : {1, 2}) {
            SimConfig cfg;
            cfg.warmup = 200;
            cfg.measure = 1200;
            cfg.seed = params.wiring_seed + 17;
            cfg.shards = shards;
            cfg.jobs = shards;
            SimResult r = runWorkload(fc, oracle, spec, 0.75, cfg);
            const WorkloadMetrics &w = r.workload;
            if (!w.active || w.name != spec.kind) {
                err << spec.kind << " shards=" << shards
                    << ": workload metrics missing";
                return CheckResult::fail(err.str());
            }
            if (w.conservation_residual != 0) {
                err << spec.kind << " shards=" << shards
                    << ": conservation residual "
                    << w.conservation_residual << " (created "
                    << w.pkts_created << " pending " << w.pkts_pending
                    << " received " << w.pkts_received << ")";
                return CheckResult::fail(err.str());
            }
            if (w.eject_mismatch != 0) {
                err << spec.kind << " shards=" << shards
                    << ": eject mismatch " << w.eject_mismatch;
                return CheckResult::fail(err.str());
            }
            if (spec.kind == "rpc" && w.rpcs_completed <= 0) {
                err << "rpc shards=" << shards
                    << ": no RPC completed in the window";
                return CheckResult::fail(err.str());
            }
        }
    }
    return CheckResult::pass();
}

TEST(PropWorkload, ConservationOnRandomTopologies)
{
    PropConfig cfg;
    cfg.cases = 18;
    cfg.seed = 0x31c0a;
    cfg.min_size = 2;
    cfg.max_size = 14;
    auto res = forAll<TopoParams>(
        cfg, genTopoParams, conservationContract, shrinkTopoParams,
        describeTopoParams);
    EXPECT_TRUE(res.passed) << res.report();
}

CheckResult
jsonJobsInvariance(const TopoParams &params)
{
    FoldedClos fc = materializeTopo(params);
    UpDownOracle oracle(fc);
    if (!oracle.routable())
        return CheckResult::pass();

    WorkloadGrid grid;
    grid.addNetwork("net", fc, oracle);
    WorkloadSpec rpc;
    WorkloadSpec coflow;
    coflow.kind = "coflow";
    coflow.group = fc.numTerminals() >= 4 ? 4 : 2;
    grid.workloads = {rpc, coflow};
    grid.loads = {0.5};
    grid.base.warmup = 200;
    grid.base.measure = 800;
    grid.base.shards = 2;
    grid.repetitions = 2;

    // Pool-jobs invariance: the same grid at 1 and 3 engine jobs.
    std::string json[2];
    int jobs[2] = {1, 3};
    for (int i = 0; i < 2; ++i) {
        ExperimentEngine engine(jobs[i], params.wiring_seed);
        auto result = runWorkloadGrid(grid, engine);
        std::ostringstream os;
        writeWorkloadGridJson(os, grid, result, engine.baseSeed());
        json[i] = stripTimingFields(os.str());
    }
    if (json[0] != json[1])
        return CheckResult::fail(
            "grid JSON differs between 1 and 3 jobs");

    // Sim-jobs invariance: same shard count, different worker threads.
    grid.base.jobs = 2;
    ExperimentEngine engine(2, params.wiring_seed);
    auto result = runWorkloadGrid(grid, engine);
    std::ostringstream os;
    writeWorkloadGridJson(os, grid, result, engine.baseSeed());
    if (stripTimingFields(os.str()) != json[0])
        return CheckResult::fail(
            "grid JSON differs between 1 and 2 sim jobs");
    return CheckResult::pass();
}

TEST(PropWorkload, GridJsonIdenticalAtAnyJobsValue)
{
    PropConfig cfg;
    cfg.cases = 8;
    cfg.seed = 0x31c0b;
    cfg.min_size = 2;
    cfg.max_size = 10;
    auto res = forAll<TopoParams>(
        cfg, genTopoParams, jsonJobsInvariance, shrinkTopoParams,
        describeTopoParams);
    EXPECT_TRUE(res.passed) << res.report();
}

CheckResult
monotoneCct(const TopoParams &params)
{
    FoldedClos fc = materializeTopo(params);
    UpDownOracle oracle(fc);
    if (!oracle.routable())
        return CheckResult::pass();

    WorkloadSpec spec;
    spec.kind = "coflow";
    spec.group = fc.numTerminals() >= 4 ? 4 : 2;
    spec.flow_packets = 4;  // loads 0.25 / 0.5 / 1.0 -> 1 / 2 / 4 pkts

    const double loads[3] = {0.25, 0.5, 1.0};
    double cct[3];
    std::ostringstream err;
    for (int i = 0; i < 3; ++i) {
        SimConfig cfg;
        cfg.warmup = 300;
        cfg.measure = 3000;
        cfg.seed = params.wiring_seed + 23;
        SimResult r = runWorkload(fc, oracle, spec, loads[i], cfg);
        if (r.workload.ccts.empty()) {
            err << "no coflow phase completed at load " << loads[i];
            return CheckResult::fail(err.str());
        }
        cct[i] = r.workload.cct_mean;
    }
    if (cct[1] < cct[0] || cct[2] < cct[1]) {
        err << "CCT not monotone in load: " << cct[0] << " -> " << cct[1]
            << " -> " << cct[2];
        return CheckResult::fail(err.str());
    }
    if (!(cct[2] > cct[0])) {
        err << "CCT flat across a 4x packet range: " << cct[0] << " -> "
            << cct[2];
        return CheckResult::fail(err.str());
    }
    return CheckResult::pass();
}

TEST(PropWorkload, CoflowCctMonotoneInLoad)
{
    PropConfig cfg;
    cfg.cases = 12;
    cfg.seed = 0x31c0c;
    cfg.min_size = 2;
    cfg.max_size = 12;
    auto res = forAll<TopoParams>(
        cfg, genTopoParams, monotoneCct, shrinkTopoParams,
        describeTopoParams);
    EXPECT_TRUE(res.passed) << res.report();
}

} // namespace
} // namespace rfc
