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
 * Every point is a packet-tier (kVct) point whose case names its
 * workload, so every trial passes the packet audit (exp/experiment.hpp
 * failsAudit): packet conservation, the workload's own message
 * conservation (packets created = pending + queued + in-flight +
 * received, and ejections = receipts) and, in guard builds, the
 * runtime guards.  Any failure fails the bench (exit 1), which the CI
 * bench-smoke job runs continuously via --smoke.
 *
 * Knobs: --section=fig8,incast,fig10, --loads (comma list), --trials,
 * --smoke, --seed, --jobs, --json, --csv.  Output is bit-identical at
 * any --jobs value; timing goes to stderr or the JSON timing blocks
 * (filtered by the CI determinism diff).
 */
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

/** Run one section study and print it. */
void
runSection(Bench &b, const std::string &section, const std::string &heading,
           const std::vector<Network> &nets,
           const std::vector<WorkloadSpec> &workloads,
           const std::vector<double> &loads, const SimConfig &base,
           int reps)
{
    std::vector<Case> cases;
    for (const WorkloadSpec &spec : workloads) {
        Case c;
        c.label = spec.label();
        c.workload = spec;
        cases.push_back(c);
    }
    const StudyResult result = b.run({section, Tier::kVct,
                                      crossPoints(nets, cases, loads, base),
                                      reps});

    b.text() << "## " << heading << "\n";
    TablePrinter t({"network", "workload", "load", "goodput", "rpc_p50",
                    "rpc_p99", "rpc_p999", "fct_p99", "cct_mean"});
    for (std::size_t ni = 0; ni < nets.size(); ++ni)
        for (std::size_t wi = 0; wi < workloads.size(); ++wi)
            for (std::size_t li = 0; li < loads.size(); ++li) {
                const auto &p = result.points[gridIndex(
                    {nets.size(), workloads.size(), loads.size()},
                    {ni, wi, li})];
                const bool coflow = workloads[wi].kind == "coflow";
                auto cell = [&](const char *name, bool shown) {
                    return shown ? TablePrinter::fmt(p.mean(name), 1)
                                 : std::string("-");
                };
                t.addRow({p.network, p.scenario,
                          TablePrinter::fmt(p.load, 2),
                          TablePrinter::fmt(p.mean("goodput"), 3),
                          cell("rpc_p50", !coflow), cell("rpc_p99", !coflow),
                          cell("rpc_p999", !coflow), cell("fct_p99", true),
                          cell("cct_mean", coflow)});
            }
    b.emit("closed-loop metrics (cycles; per-rep means)", t);
}

} // namespace

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "ext_closed_loop", 29,
            {"smoke", "section", "loads", "warmup", "measure", "trials",
             "incast-load"});
    const bool smoke = b.scale == Scale::kSmoke;
    b.banner("Closed-loop workloads on the VCT engine (CFT vs RFC)");
    const std::uint64_t seed = b.seed;
    const auto sections = b.opts.getList("section", "fig8,incast,fig10",
                                         {"fig8", "incast", "fig10", "all"});

    const auto loads = b.opts.getDoubleList("loads", "0.25,0.5,0.9");
    SimConfig base;
    base.warmup = b.opts.getInt("warmup", smoke ? 500 : 2000);
    base.measure = b.opts.getInt("measure", smoke ? 3000 : 8000);
    const int reps = b.opts.getIntAtLeast("trials", smoke ? 1 : 3, 1);

    WorkloadSpec rpc;  // fanout 2, 1:4 packets, think 256
    WorkloadSpec coflow;
    coflow.kind = "coflow";

    // Per-section rng streams (fig_perf_1M convention): running one
    // section alone builds the same wirings as the full run.
    Rng fig8_rng(seed);
    Rng incast_rng(deriveSeed(seed, 1, 0));
    Rng fig10_rng(deriveSeed(seed, 2, 0));

    if (selected(sections, "fig8")) {
        // Figure 8 shape: 3-level CFT vs the equal-resources RFC.
        const Scenario sc = equalResources(smoke ? 8 : 36, fig8_rng);
        runSection(b, "fig8",
                   "Fig 8 shape (" +
                       std::to_string(sc.topology(0).numTerminals()) +
                       " terminals, equal resources): RPC tail and CCT",
                   sc.networks(), {rpc, coflow}, loads, base, reps);
    }

    if (selected(sections, "incast")) {
        // Fan-in sweep on the fig8 networks at fixed pressure: the
        // many-to-one response burst is the worst case for the
        // single ejection port.
        const Scenario sc = equalResources(smoke ? 8 : 36, incast_rng);

        std::vector<WorkloadSpec> incasts;
        for (int fanin : smoke ? std::vector<int>{2, 4, 8}
                               : std::vector<int>{4, 8, 16, 32}) {
            WorkloadSpec spec;
            spec.kind = "incast";
            spec.fanin = fanin;
            incasts.push_back(spec);
        }
        runSection(b, "incast",
                   "Incast stress (fan-in sweep, wave latency + goodput)",
                   sc.networks(), incasts,
                   {b.opts.getDouble("incast-load", 0.75)}, base, reps);
    }

    if (selected(sections, "fig10")) {
        // Figure 10 shape: 4-level CFT vs the largest routable 3-level
        // RFC, at reduced cycle counts (every terminal is a closed
        // loop, so cost scales with terminals x cycles).
        const Scenario sc = fig10Pair(smoke ? 8 : 36, fig10_rng);

        SimConfig tall = base;
        tall.warmup = b.opts.getInt("warmup", smoke ? 300 : 1000);
        tall.measure = b.opts.getInt("measure", smoke ? 1500 : 4000);
        runSection(b, "fig10",
                   "Fig 10 shape (" +
                       std::to_string(sc.topology(0).numTerminals()) +
                       "-terminal CFT4 vs max RFC3): RPC tail and CCT",
                   sc.networks(), {rpc, coflow},
                   b.opts.getDoubleList("loads", "0.5,0.9"), tall, reps);
    }

    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
