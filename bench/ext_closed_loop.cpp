/**
 * @file
 * Extension: closed-loop workloads (src/workload) on CFT vs RFC -
 * tail RPC latency, incast goodput and coflow completion time.
 *
 * The paper evaluates open-loop Bernoulli traffic; datacenter services
 * are closed loops, and the metrics operators tune against are flow
 * and coflow completion times, not accepted load.  This bench drives
 * the VCT engine through the workload subsystem at three shapes:
 *
 *  - `fig8`: the equal-resources shape (3-level CFT vs RFC) with the
 *    RPC request/response and coflow workloads over a load ladder -
 *    does the RFC's shortcut diversity show up in the p99/p999 RPC
 *    tail and in CCT?
 *  - `incast`: a fan-in sweep (many-to-one response bursts) at fixed
 *    pressure on the fig8 networks - wave latency and goodput as the
 *    burst degree grows;
 *  - `fig10`: the tall shape (4-level CFT vs the largest routable
 *    3-level RFC) at reduced cycle counts - RPC tail and CCT when the
 *    CFT pays an extra level.
 *
 * Every trial carries the workload's own conservation audit (packets
 * created = pending + queued + in-flight + received, and ejections =
 * receipts); any violation fails the bench (exit 1), which the CI
 * bench-smoke job runs continuously via --smoke.
 *
 * Knobs: --section=fig8,incast,fig10, --loads (comma list), --trials,
 * --smoke, --seed, --jobs, --shards, --sim-jobs, --json, --csv.
 * Output is bit-identical at any --jobs / --sim-jobs value; timing
 * goes to stderr or the JSON timing blocks (filtered by the CI
 * determinism diff).
 */
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "exp/workload_experiment.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::vector<double>
parseLoads(const std::string &s)
{
    std::vector<double> out;
    for (const auto &tok : splitList(s))
        out.push_back(std::stod(tok));
    return out;
}

/** Run one section grid, print it, and count conservation failures. */
long long
runSection(const Options &opts, const std::string &heading,
           const WorkloadGrid &grid, const ExperimentEngine &engine)
{
    WorkloadGridResult result = runWorkloadGrid(grid, engine);
    double cpu = 0.0;
    long long violations = 0;
    for (const auto &p : result.points) {
        cpu += p.trial_seconds_total;
        violations += p.conservation_violations;
    }
    std::cerr << "[workload] " << result.points.size() << " point(s) x "
              << grid.repetitions << " rep(s) on " << result.jobs
              << " job(s): " << result.wall_seconds << " s wall, " << cpu
              << " s trial cpu\n";

    std::cout << "## " << heading << "\n";
    if (opts.getBool("json", false)) {
        writeWorkloadGridJson(std::cout, grid, result,
                              engine.baseSeed());
        return violations;
    }
    const std::size_t n_wls = grid.workloads.size();
    const std::size_t n_loads = grid.loads.size();
    TablePrinter t({"network", "workload", "load", "goodput", "rpc_p50",
                    "rpc_p99", "rpc_p999", "fct_p99", "cct_mean"});
    for (std::size_t ni = 0; ni < grid.networks.size(); ++ni)
        for (std::size_t wi = 0; wi < n_wls; ++wi)
            for (std::size_t li = 0; li < n_loads; ++li) {
                const auto &p = result.points[result.index(
                    ni, wi, li, n_wls, n_loads)];
                const bool coflow = p.kind == "coflow";
                t.addRow({p.network, p.workload,
                          TablePrinter::fmt(p.load, 2),
                          TablePrinter::fmt(p.goodput.mean, 3),
                          coflow ? "-"
                                 : TablePrinter::fmt(p.rpc_p50.mean, 1),
                          coflow ? "-"
                                 : TablePrinter::fmt(p.rpc_p99.mean, 1),
                          coflow
                              ? "-"
                              : TablePrinter::fmt(p.rpc_p999.mean, 1),
                          TablePrinter::fmt(p.fct_p99.mean, 1),
                          coflow
                              ? TablePrinter::fmt(p.cct_mean.mean, 1)
                              : "-"});
            }
    emit(opts, "closed-loop metrics (cycles; per-rep means)", t);
    return violations;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const bool smoke = opts.getBool("smoke", false);
    std::cout << "== Closed-loop workloads on the VCT engine "
                 "(CFT vs RFC) ==\n"
              << (smoke
                      ? "mode: SMOKE (CI-sized, conservation-audited)\n"
                      : "mode: FULL (paper shapes; --smoke for CI "
                        "scale)\n");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(opts.getInt("seed", 29));
    auto sections = splitList(opts.get("section", "fig8,incast,fig10"));
    auto want = [&](const std::string &s) {
        for (const auto &x : sections)
            if (x == s || x == "all")
                return true;
        return false;
    };

    WorkloadGrid proto;
    proto.loads = parseLoads(opts.get("loads", "0.25,0.5,0.9"));
    proto.base.seed = seed;
    proto.base.warmup =
        opts.getInt("warmup", smoke ? 500 : 2000);
    proto.base.measure =
        opts.getInt("measure", smoke ? 3000 : 8000);
    proto.base.shards =
        static_cast<int>(opts.getInt("shards", proto.base.shards));
    proto.base.jobs = static_cast<int>(opts.getInt("sim-jobs", 1));
    proto.repetitions =
        static_cast<int>(opts.getInt("trials", smoke ? 1 : 3));

    ExperimentEngine engine(opts.jobs(), seed);
    // Per-section rng streams (fig_perf_1M convention): running one
    // section alone builds the same wirings as the full run.
    Rng fig8_rng(seed);
    Rng incast_rng(deriveSeed(seed, 1, 0));
    Rng fig10_rng(deriveSeed(seed, 2, 0));
    long long violations = 0;

    if (want("fig8")) {
        // Figure 8 shape: 3-level CFT vs the equal-resources RFC.
        const int radix = smoke ? 8 : 36;
        auto cft = buildCft(radix, 3);
        auto built = buildRfc(radix, 3, cft.numLeaves(), fig8_rng, 50);
        if (!built.routable)
            std::cout << "warning: RFC not routable\n";
        UpDownOracle o_cft(cft), o_rfc(built.topology);

        WorkloadGrid grid = proto;
        WorkloadSpec rpc;  // fanout 2, 1:4 packets, think 256
        WorkloadSpec coflow;
        coflow.kind = "coflow";
        grid.workloads = {rpc, coflow};
        grid.addNetwork("CFT", cft, o_cft)
            .addNetwork("RFC", built.topology, o_rfc);
        violations += runSection(
            opts,
            "Fig 8 shape (" + std::to_string(cft.numTerminals()) +
                " terminals, equal resources): RPC tail and CCT",
            grid, engine);
    }

    if (want("incast")) {
        // Fan-in sweep on the fig8 networks at fixed pressure: the
        // many-to-one response burst is the worst case for the
        // single ejection port.
        const int radix = smoke ? 8 : 36;
        auto cft = buildCft(radix, 3);
        auto built = buildRfc(radix, 3, cft.numLeaves(), incast_rng, 50);
        if (!built.routable)
            std::cout << "warning: RFC not routable\n";
        UpDownOracle o_cft(cft), o_rfc(built.topology);

        WorkloadGrid grid = proto;
        grid.loads = {opts.getDouble("incast-load", 0.75)};
        for (int fanin : smoke ? std::vector<int>{2, 4, 8}
                               : std::vector<int>{4, 8, 16, 32}) {
            WorkloadSpec spec;
            spec.kind = "incast";
            spec.fanin = fanin;
            grid.workloads.push_back(spec);
        }
        grid.addNetwork("CFT", cft, o_cft)
            .addNetwork("RFC", built.topology, o_rfc);
        violations += runSection(
            opts, "Incast stress (fan-in sweep, wave latency + goodput)",
            grid, engine);
    }

    if (want("fig10")) {
        // Figure 10 shape: 4-level CFT vs the largest routable 3-level
        // RFC, at reduced cycle counts (every terminal is a closed
        // loop, so cost scales with terminals x cycles).
        const int radix = smoke ? 8 : 36;
        auto cft = buildCft(radix, 4);
        int n1 = rfcMaxLeaves(radix, 3);
        auto built = buildRfc(radix, 3, n1, fig10_rng, 50);
        if (!built.routable)
            std::cout << "warning: RFC not routable\n";
        UpDownOracle o_cft(cft), o_rfc(built.topology);

        WorkloadGrid grid = proto;
        grid.base.warmup = opts.getInt("warmup", smoke ? 300 : 1000);
        grid.base.measure = opts.getInt("measure", smoke ? 1500 : 4000);
        grid.loads = parseLoads(opts.get("loads", "0.5,0.9"));
        WorkloadSpec rpc;
        WorkloadSpec coflow;
        coflow.kind = "coflow";
        grid.workloads = {rpc, coflow};
        grid.addNetwork("CFT4", cft, o_cft)
            .addNetwork("RFC3", built.topology, o_rfc);
        violations += runSection(
            opts,
            "Fig 10 shape (" + std::to_string(cft.numTerminals()) +
                "-terminal CFT4 vs max RFC3): RPC tail and CCT",
            grid, engine);
    }

    if (violations > 0) {
        std::cerr << "[self-check] FAILED: " << violations
                  << " trial(s) violated message conservation\n";
        return 1;
    }
    std::cerr << "[self-check] conservation audit clean\n";
    return 0;
}
