/**
 * @file
 * Extension: dynamic fault injection and online recovery, CFT vs
 * equal-resources RFC.
 *
 * Where fig12 compares steady states (links removed before the run,
 * routing rebuilt from scratch), this bench kills links *while traffic
 * is flowing* and watches the network live through it: a batch of
 * random links fails mid-run, the up/down oracle is rebuilt once
 * against the link overlay, head packets that lost their route retry
 * against the new tables under a bounded TTL, and - unless
 * --repair-at -1 - the same links come back later in the run.
 *
 * Reported per fault level and topology: accepted throughput over the
 * measurement window, TTL drops, successful re-routes, route-less
 * head-packet cycles, the throughput dip relative to the pre-failure
 * baseline, and the time to re-converge (sustained return to >= 90% of
 * baseline, in cycles after the first failure).  Fault draws and trial
 * seeds derive from {seed, level, rep}; output is bit-identical at any
 * --jobs value.  Any packet-conservation violation (in guard builds,
 * any runtime guard report) makes the bench exit 1.
 *
 * Scale flags: --smoke (CI seconds), default (sandbox), --full
 * (paper-scale R = 36).  --json emits the point aggregates plus the
 * per-bin recovery curve.
 */
#include <cmath>

#include "bench_common.hpp"
#include "clos/topology_events.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "ext_fault_recovery", 12,
            {"smoke", "full", "radix", "steps", "step-links", "warmup",
             "measure", "load", "route-ttl", "telemetry-bin", "trials",
             "fail-at", "repair-at", "traffic"});
    b.banner("Extension: dynamic faults + online up/down recovery");
    const bool full = b.scale == Scale::kFull;
    const bool smoke = b.scale == Scale::kSmoke;
    const int radix =
        b.opts.getIntAtLeast("radix", full ? 36 : (smoke ? 8 : 12), 2);
    const std::uint64_t seed = b.seed;
    Rng rng(seed);

    const Scenario sc = equalResources(radix, rng);
    const FoldedClos &cft = sc.topology(0), &rfc_fc = sc.topology(1);
    const std::vector<Network> &nets = sc.networks();

    const long long wires = cft.numWires();
    // Fault levels: level s kills s * step links (~1.29% of the wires
    // per step, the Figure 12 progression); level 0 is the fault-free
    // baseline running the ordinary static-oracle path.
    const int steps =
        b.opts.getIntAtLeast("steps", full ? 8 : (smoke ? 2 : 4), 0);
    const long long step_links = b.opts.getInt(
        "step-links", std::max<long long>(wires * 129 / 10000, 1), 1);

    SimConfig base;
    base.warmup =
        b.opts.getInt("warmup", full ? 3000 : (smoke ? 200 : 600));
    base.measure =
        b.opts.getInt("measure", full ? 10000 : (smoke ? 1000 : 3000));
    base.load = b.opts.getDouble("load", 0.7);
    // Bounded graceful degradation: a head packet that cannot route
    // retries against the (rebuilt) tables for up to
    // route-ttl cycles of age, then is dropped and counted.
    base.route_ttl =
        b.opts.getIntAtLeast("route-ttl", smoke ? 128 : 256, 0);
    const long long total = base.warmup + base.measure;
    base.telemetry_bin = b.opts.getInt(
        "telemetry-bin", std::max<long long>(total / 40, 1), 1);
    int reps = b.opts.getIntAtLeast("trials", full ? 5 : 2, 1);

    // Failure schedule: links die one third into the run; by default
    // they are all repaired at two thirds, so the tail of the curve
    // shows the post-repair re-convergence.  Both cycles lie inside
    // the run; --repair-at -1 never repairs.
    const long long fail_at =
        b.opts.getInt("fail-at", total / 3, 0, total - 1);
    const long long repair_at =
        b.opts.getInt("repair-at", 2 * total / 3, -1, total - 1);

    b.text() << "terminals: " << cft.numTerminals() << ", wires: "
             << wires << ", fault step: " << step_links
             << " links, fail@" << fail_at << ", repair@" << repair_at
             << ", route_ttl: " << base.route_ttl << "\n\n";

    // Timelines are shared read-only by the trials; materialize them
    // all before taking addresses.
    std::vector<TopologyTimeline> timelines;
    timelines.reserve(2 * static_cast<std::size_t>(steps));
    for (int s = 1; s <= steps; ++s) {
        auto k = static_cast<std::size_t>(s) *
                 static_cast<std::size_t>(step_links);
        timelines.push_back(TopologyTimeline::randomFailRepair(
            cft, k, fail_at, repair_at,
            deriveSeed(seed, 0xFA17ULL, static_cast<std::uint64_t>(s))));
        timelines.push_back(TopologyTimeline::randomFailRepair(
            rfc_fc, k, fail_at, repair_at,
            deriveSeed(seed, 0xFA18ULL, static_cast<std::uint64_t>(s))));
    }

    const std::string traffic = b.opts.get("traffic", "uniform");
    Study study{"faults", Tier::kVct, {}, reps};
    study.config = {{"traffic", traffic},
                    {"step_links", step_links},
                    {"wires", wires},
                    {"fail_at", fail_at},
                    {"repair_at", repair_at},
                    {"route_ttl", base.route_ttl},
                    {"telemetry_bin", base.telemetry_bin}};
    for (int s = 0; s <= steps; ++s) {
        for (int net = 0; net < 2; ++net) {
            Case c{"level " + std::to_string(s), namedTraffic(traffic)};
            if (s > 0)
                c.changes = &timelines[2 * static_cast<std::size_t>(s - 1) +
                                       static_cast<std::size_t>(net)];
            study.points.push_back(
                {nets[net], std::move(c), base.load, base,
                 nets[net].label + "@" + std::to_string(s)});
        }
    }
    const StudyResult result = b.run(study);
    const std::vector<PointResult> &points = result.points;

    TablePrinter t({"net", "faulty links", "% of wires", "accepted",
                    "dropped", "rerouted", "retry cycles", "dip",
                    "reconverge"});
    for (int s = 0; s <= steps; ++s) {
        for (int net = 0; net < 2; ++net) {
            const auto &p =
                points[2 * static_cast<std::size_t>(s) +
                       static_cast<std::size_t>(net)];
            long long f = s * step_links;
            auto count = [&](const char *name) {
                return TablePrinter::fmtInt(std::llround(p.mean(name)));
            };
            long long ttr =
                s == 0 ? 0 : std::llround(p.mean("time_to_reconverge"));
            t.addRow({nets[net].label, TablePrinter::fmtInt(f),
                      TablePrinter::fmtPct(
                          static_cast<double>(f) / wires, 1),
                      TablePrinter::fmt(p.mean("accepted"), 3),
                      count("dropped_packets"), count("rerouted_packets"),
                      count("route_retries"),
                      s == 0 ? "-"
                             : TablePrinter::fmt(p.mean("dip_fraction"), 3),
                      s == 0 ? "-"
                             : (ttr < 0 ? "never"
                                        : TablePrinter::fmtInt(ttr))});
        }
    }
    b.emit("traffic: " + traffic + " @ load " +
               TablePrinter::fmt(base.load, 2),
           t);

    b.text() << "reading the table: links fail at cycle " << fail_at
             << (repair_at >= 0 ? " and are repaired at cycle " +
                                      std::to_string(repair_at)
                                : " and stay dead")
             << ".\n'dip' is the lowest binned delivery rate after the "
                "failure relative to the\npre-failure baseline; "
                "'reconverge' is the cycle count from first failure "
                "to a\nsustained return to >= 90% of baseline "
                "('never' = still degraded at run end).\n";
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
