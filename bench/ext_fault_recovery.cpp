/**
 * @file
 * Extension: dynamic fault injection and online recovery, CFT vs
 * equal-resources RFC.
 *
 * Where fig12 compares steady states (links removed before the run,
 * routing rebuilt from scratch), this bench kills links *while traffic
 * is flowing* and watches the network live through it: a batch of
 * random links fails mid-run, the up/down oracle repairs itself
 * incrementally, head packets that lost their route retry against the
 * repaired tables under a bounded TTL, and - unless --no-repair - the
 * same links come back later in the run.
 *
 * Reported per fault level and topology: accepted throughput over the
 * measurement window, TTL drops, successful re-routes, route-less
 * head-packet cycles, the throughput dip relative to the pre-failure
 * baseline, and the time to re-converge (sustained return to >= 90% of
 * baseline, in cycles after the first failure).  Fault draws and trial
 * seeds derive from {seed, level, rep}; output is bit-identical at any
 * --jobs / --sim-jobs value.
 *
 * Scale flags: --smoke (CI seconds), default (sandbox), --full
 * (paper-scale R = 36).  --json emits the point aggregates plus the
 * per-bin recovery curve.
 */
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "clos/topology_events.hpp"
#include "util/rng.hpp"

using namespace rfc;

int
main(int argc, char **argv)
{
    Bench b(argc, argv, "ext_fault_recovery", 12);
    b.banner("Extension: dynamic faults + online up/down recovery");
    const bool full = b.opts.fullScale();
    const bool smoke = b.opts.getBool("smoke", false);
    const int radix = static_cast<int>(
        b.opts.getInt("radix", full ? 36 : (smoke ? 8 : 12)));
    const std::uint64_t seed = b.seed;
    Rng rng(seed);

    auto cft = buildCft(radix, 3);
    auto built = buildRfc(radix, 3, cft.numLeaves(), rng);
    auto &rfc_fc = built.topology;
    UpDownOracle o_cft(cft), o_rfc(rfc_fc);
    const Network nets[] = {{"CFT", &cft, &o_cft},
                            {"RFC", &rfc_fc, &o_rfc}};

    const long long wires = cft.numWires();
    // Fault levels: level s kills s * step links (~1.29% of the wires
    // per step, the Figure 12 progression); level 0 is the fault-free
    // baseline running the ordinary static-oracle path.
    const int steps = static_cast<int>(
        b.opts.getInt("steps", full ? 8 : (smoke ? 2 : 4)));
    const long long step_links = b.opts.getInt(
        "step-links", std::max<long long>(wires * 129 / 10000, 1));

    SimConfig base;
    base.warmup =
        b.opts.getInt("warmup", full ? 3000 : (smoke ? 200 : 600));
    base.measure =
        b.opts.getInt("measure", full ? 10000 : (smoke ? 1000 : 3000));
    base.seed = seed;
    base.load = b.opts.getDouble("load", 0.7);
    base.shards = static_cast<int>(b.opts.getInt("shards", base.shards));
    base.jobs = static_cast<int>(b.opts.getInt("sim-jobs", 1));
    // Bounded graceful degradation: a head packet that cannot route
    // retries against the (incrementally repaired) tables for up to
    // route-ttl cycles of age, then is dropped and counted.
    base.route_ttl =
        static_cast<int>(b.opts.getInt("route-ttl", smoke ? 128 : 256));
    const long long total = base.warmup + base.measure;
    base.telemetry_bin = b.opts.getInt(
        "telemetry-bin", std::max<long long>(total / 40, 1));
    int reps = static_cast<int>(b.opts.getInt("trials", full ? 5 : 2));

    // Failure schedule: links die one third into the run; by default
    // they are all repaired at two thirds, so the tail of the curve
    // shows the post-repair re-convergence.
    const long long fail_at = b.opts.getInt("fail-at", total / 3);
    const long long repair_at = b.opts.getInt(
        "repair-at",
        b.opts.getBool("no-repair", false) ? -1 : 2 * total / 3);

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
    const auto points = b.run(study).points;

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
