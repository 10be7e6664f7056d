/**
 * @file
 * Figure 12: simulated saturation throughput under link faults,
 * 3-level CFT vs equal-resources RFC.
 *
 * Paper configuration: R = 36, 11,664 terminals, faults injected in
 * steps of 300 links out of 23,328 wires (up to ~13%), three traffic
 * patterns; the small CFT/RFC throughput gap closes and reverses
 * around 12% faults.  Unroutable source-destination pairs (lost
 * common ancestors) are dropped at injection and reported.
 *
 * Default (sandbox) scale: R = 12 (432 terminals) with proportional
 * fault steps.  --full runs the paper configuration.
 *
 * Grid declaration: the nested fault sets (one removal order per
 * topology, as in the paper's progression) are materialized up front
 * via nestedFaultLevels() as 2*(steps+1) networks; the engine then
 * runs the full cross product networks x traffics at offered load 1.0
 * in parallel.
 */
#include <cmath>
#include <iostream>

#include "analysis/fault_sweep.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "fig12_perf_faults", 12,
            {"full", "radix", "steps", "step-links", "warmup", "measure",
             "trials"});
    b.banner("Figure 12: throughput under faults (equal resources)");
    const bool full = b.scale == Scale::kFull;
    const int radix = b.opts.getIntAtLeast("radix", full ? 36 : 12, 2);
    Rng rng(b.seed);

    const Scenario sc = equalResources(radix, rng);
    const FoldedClos &cft = sc.topology(0), &rfc_fc = sc.topology(1);

    const long long wires = cft.numWires();
    // Paper: steps of 300 of 23,328 wires -> ~1.29% per step, 10 steps.
    const int steps = b.opts.getIntAtLeast("steps", 10, 0);
    const long long step_links =
        b.opts.getInt("step-links",
                      std::max<long long>(wires * 129 / 10000, 1), 1);

    SimConfig base;
    base.warmup = b.opts.getInt("warmup", full ? 3000 : 500);
    base.measure = b.opts.getInt("measure", full ? 10000 : 1500);
    int reps = b.opts.getIntAtLeast("trials", full ? 5 : 1, 1);

    b.text() << "terminals: " << cft.numTerminals()
             << ", wires: " << wires
             << ", fault step: " << step_links << " links\n\n";

    // Nested fault sets: one removal order per topology, prefixes of
    // which define every fault level (the CFT order is drawn before
    // the RFC order from the same stream, as the hand-rolled loop
    // always did).
    Rng order_rng(b.seed + 1);
    auto n_levels = static_cast<std::size_t>(steps + 1);
    auto cft_levels = nestedFaultLevels(
        cft, n_levels, static_cast<std::size_t>(step_links), order_rng);
    auto rfc_levels = nestedFaultLevels(
        rfc_fc, n_levels, static_cast<std::size_t>(step_links), order_rng);

    const std::vector<std::string> traffics{"uniform", "random-pairing",
                                            "fixed-random"};
    std::vector<Network> nets;
    for (std::size_t s = 0; s < n_levels; ++s) {
        nets.push_back({"CFT@" + std::to_string(s), &cft_levels.cuts[s],
                        cft_levels.oracles[s].get()});
        nets.push_back({"RFC@" + std::to_string(s), &rfc_levels.cuts[s],
                        rfc_levels.oracles[s].get()});
    }
    std::vector<Case> cases;
    for (const auto &tname : traffics)
        cases.push_back({tname, namedTraffic(tname)});
    // Saturation throughput at every fault level.
    const StudyResult result = b.run(
        {"faults", Tier::kVct, crossPoints(nets, cases, {1.0}, base), reps});

    // Networks are interleaved CFT@s, RFC@s; one table per traffic.
    auto point = [&](std::size_t net, std::size_t ti) -> const
        PointResult & {
        return result.points[gridIndex({nets.size(), traffics.size()},
                                       {net, ti})];
    };
    for (std::size_t ti = 0; ti < traffics.size(); ++ti) {
        TablePrinter t({"faulty links", "% of wires", "thr(CFT)",
                        "thr(RFC)", "unroutable(CFT)",
                        "unroutable(RFC)"});
        for (int s = 0; s <= steps; ++s) {
            long long f = s * step_links;
            const auto &r_cft = point(2 * static_cast<std::size_t>(s),
                                      ti);
            const auto &r_rfc = point(2 * static_cast<std::size_t>(s) +
                                          1,
                                      ti);
            t.addRow({TablePrinter::fmtInt(f),
                      TablePrinter::fmtPct(
                          static_cast<double>(f) / wires, 1),
                      TablePrinter::fmt(r_cft.mean("accepted"), 3),
                      TablePrinter::fmt(r_rfc.mean("accepted"), 3),
                      TablePrinter::fmtInt(std::llround(
                          r_cft.mean("unroutable_packets"))),
                      TablePrinter::fmtInt(std::llround(
                          r_rfc.mean("unroutable_packets")))});
        }
        b.emit("traffic: " + traffics[ti], t);
    }
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
