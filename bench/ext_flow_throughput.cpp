/**
 * @file
 * Extension: flow-level reproduction of the Figures 8-10 scenario
 * table and a Figure 12-style fault sweep, at paper scale.
 *
 * The packet simulator needs hours at 200K terminals; the src/flow
 * engine answers the same saturation questions analytically: for each
 * scenario (11K equal-resources, 100K, 200K max-expansion) and demand
 * pattern it reports the certified maximum concurrent flow lambda
 * (optimal multipath split, with its LP dual upper bound) and the ECMP
 * fluid saturation with the per-demand worst/average throughput
 * distribution.  Validation against the packet simulator lives in
 * tests/test_flow_validation.cpp; the methodology (sampled uniform
 * demands, path caps, tolerance) is documented in EXPERIMENTS.md.
 *
 * Scenarios: --scenario=11k,100k,200k,faults (default: all at sandbox
 * scale; 200k under --full, sized to finish the paper-scale
 * RFC-vs-CFT comparison in minutes).  Other knobs: --patterns
 * (comma-separated makeDemandMatrix names), --samples (uniform
 * demands per terminal; 0 = exact all-pairs), --max-paths, --epsilon,
 * --phases, --fault-steps.  Output is bit-identical at any --jobs
 * value; timing telemetry goes to stderr (or the JSON timing block).
 */
#include <iostream>

#include "analysis/fault_sweep.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

/** Run one scenario study: networks x patterns on the flow tier. */
StudyResult
runFlow(Bench &b, Study study, const std::string &heading,
        const std::vector<Network> &nets,
        const std::vector<std::string> &patterns)
{
    study.points = crossPoints(nets, patternCases(patterns), {1.0});
    StudyResult result = b.run(study);
    b.text() << "## " << heading << "\n";
    return result;
}

/** Run one scenario study and print its table per demand pattern. */
void
runScenario(Bench &b, Study study, const std::string &heading,
            const std::vector<Network> &nets,
            const std::vector<std::string> &patterns)
{
    const StudyResult result =
        runFlow(b, std::move(study), heading, nets, patterns);
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
        TablePrinter t({"network", "terminals", "demands", "unrouted",
                        "maxflow", "dual", "conv", "ecmp_sat",
                        "ecmp_worst", "ecmp_avg"});
        for (std::size_t ni = 0; ni < nets.size(); ++ni) {
            const auto &p = result.points[gridIndex(
                {nets.size(), patterns.size()}, {ni, pi})];
            auto whole = [&](const char *name) {
                return std::to_string(std::llround(p.mean(name)));
            };
            t.addRow({p.network, std::to_string(p.terminals),
                      whole("demands"), whole("unrouted"),
                      TablePrinter::fmt(p.mean("throughput"), 4),
                      TablePrinter::fmt(p.mean("dual_bound"), 4),
                      p.mean("converged") != 0.0 ? "yes" : "no",
                      TablePrinter::fmt(p.mean("ecmp_saturation"), 4),
                      TablePrinter::fmt(p.mean("ecmp_worst"), 4),
                      TablePrinter::fmt(p.mean("ecmp_average"), 4)});
        }
        b.emit("pattern: " + patterns[pi], t);
    }
}

} // namespace

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "ext_flow_throughput", 13,
            {"full", "scenario", "patterns", "max-paths", "samples", "epsilon",
             "phases", "fault-steps", "step-links"});
    b.banner("Extension: flow-level throughput (Figs 8-10 + fault "
             "sweep)");
    const bool full = b.scale == Scale::kFull;
    const std::uint64_t seed = b.seed;

    // At paper scale default to the headline 200K comparison; the
    // sandbox default covers every scenario.
    const auto scenarios =
        b.opts.getList("scenario", full ? "200k" : "all",
                       {"11k", "100k", "200k", "faults", "all"});
    const auto patterns = b.opts.getList(
        "patterns", "uniform,fixed-random,random-pairing");
    Study proto{.tier = Tier::kFlow};
    proto.max_paths = b.opts.getIntAtLeast("max-paths", full ? 8 : 16, 1);
    proto.uniform_samples = b.opts.getIntAtLeast("samples", full ? 2 : 4, 0);
    proto.solve.epsilon = b.opts.getDouble("epsilon", 0.05);
    proto.solve.max_phases =
        b.opts.getIntAtLeast("phases", full ? 200 : 400, 1);
    auto section = [&](const char *name) {
        Study s = proto;
        s.section = name;
        return s;
    };

    Rng rng(seed);

    if (selected(scenarios, "11k")) {
        // Figure 8 shape: 3-level CFT vs equal-resources RFC vs the
        // radix-reduced RFC at ~the same terminal count.
        Scenario sc = equalResources(full ? 36 : 16, rng);
        addReducedRadixRfc(sc, full ? 20 : 12, rng);
        runScenario(b, section("11k"),
                    "11K scenario (equal resources, 3 levels)",
                    sc.networks(), patterns);
    }

    if (selected(scenarios, "100k")) {
        // Figure 9 shape: 4-level CFT (full and half-pruned) vs the
        // 3-level RFC at the same terminal count.
        const Scenario sc = full ? fig9Triple(36, 36, 5556, rng)
                                 : fig9Triple(8, 16, 64, rng);
        runScenario(b, section("100k"),
                    "100K scenario (4-level CFT vs 3-level RFC)",
                    sc.networks(), patterns);
    }

    if (selected(scenarios, "200k")) {
        // Figure 10 shape: the largest routable 3-level RFC vs the
        // 4-level CFT.
        const Scenario sc = fig10Pair(full ? 36 : 12, rng);
        runScenario(b, section("200k"),
                    "200K scenario (max 3-level RFC vs 4-level CFT)",
                    sc.networks(), patterns);
    }

    if (selected(scenarios, "faults")) {
        // Figure 12 shape: equal-resources CFT/RFC under progressive
        // link faults; unrouted demands are reported, not re-spread.
        const Scenario sc = equalResources(full ? 36 : 12, rng);
        const FoldedClos &cft = sc.topology(0);
        const long long wires = cft.numWires();
        const int steps =
            b.opts.getIntAtLeast("fault-steps", full ? 10 : 6, 0);
        const long long step_links = b.opts.getInt(
            "step-links", std::max<long long>(wires * 129 / 10000, 1), 1);

        // The CFT order is drawn before the RFC order, from one stream.
        Rng order_rng(static_cast<std::uint64_t>(seed + 1));
        const auto n_levels = static_cast<std::size_t>(steps + 1);
        const auto step = static_cast<std::size_t>(step_links);
        const auto cft_levels =
            nestedFaultLevels(cft, n_levels, step, order_rng);
        const auto rfc_levels =
            nestedFaultLevels(sc.topology(1), n_levels, step, order_rng);
        std::vector<Network> nets;
        for (std::size_t s = 0; s < n_levels; ++s) {
            nets.push_back({"CFT@" + std::to_string(s), &cft_levels.cuts[s],
                            cft_levels.oracles[s].get()});
            nets.push_back({"RFC@" + std::to_string(s), &rfc_levels.cuts[s],
                            rfc_levels.oracles[s].get()});
        }

        const StudyResult result = runFlow(
            b, section("faults"),
            "Fault sweep (equal resources, step " +
                std::to_string(step_links) + " of " +
                std::to_string(wires) + " wires)",
            nets, patterns);
        for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
            TablePrinter t({"faults%", "maxflow(CFT)", "unrouted(CFT)",
                            "maxflow(RFC)", "unrouted(RFC)"});
            for (int s = 0; s <= steps; ++s) {
                auto at = [&](std::size_t net) -> const PointResult & {
                    return result.points[gridIndex(
                        {nets.size(), patterns.size()}, {net, pi})];
                };
                const auto &pc = at(2 * static_cast<std::size_t>(s));
                const auto &pr = at(2 * static_cast<std::size_t>(s) + 1);
                double pct = 100.0 *
                             static_cast<double>(s) *
                             static_cast<double>(step_links) /
                             static_cast<double>(wires);
                t.addRow({TablePrinter::fmt(pct, 2),
                          TablePrinter::fmt(pc.mean("throughput"), 4),
                          std::to_string(std::llround(pc.mean("unrouted"))),
                          TablePrinter::fmt(pr.mean("throughput"), 4),
                          std::to_string(
                              std::llround(pr.mean("unrouted")))});
            }
            b.emit("pattern: " + patterns[pi], t);
        }
    }
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
