/**
 * @file
 * Topology explorer: compare every indirect topology this library can
 * build for a given switch radix - capacity, cost, diameter and
 * bisection - the Sections 4-6 comparison for *your* parameters.
 *
 * Structural stats are followed by the flow model: certified maximum
 * concurrent flow and the ECMP worst/average per-demand throughput
 * under sampled uniform demand (see src/flow), which ranks the
 * topologies by saturation behavior without running the simulator.
 * Packet runs of one topology are examples/simulate's job.
 *
 * Usage: topology_explorer [--radix R] [--levels L] [--seed S]
 *                          [--samples N] [--max-paths K] [--jobs N]
 */
#include <iostream>

#include "rfc/rfc.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Options opts(argc, argv,
                 {"radix", "levels", "seed", "max-paths", "samples", "jobs"});
    const int radix = opts.getIntAtLeast("radix", 12, 2);
    const int levels = opts.getIntAtLeast("levels", 3, 1);
    Rng rng(opts.getInt("seed", 2));

    std::cout << "== topology explorer: R = " << radix << ", l = "
              << levels << " ==\n\n";

    // Build everything buildable at these parameters.
    std::vector<FoldedClos> nets;
    nets.push_back(buildCft(radix, levels));
    nets.push_back(buildKaryTree(radix / 2, levels));
    int q = radix / 2 - 1;
    if (isPrimePower(q) && levels <= 3)
        nets.push_back(buildOft(q, levels));
    int n1 = rfcMaxLeaves(radix, levels);
    auto built = buildRfc(radix, levels, n1, rng, 100);
    if (built.routable)
        nets.push_back(built.topology);
    else
        std::cout << "(RFC at threshold not routable after 100 tries; "
                     "skipping)\n";

    // One oracle per network, shared by both tables.
    std::vector<UpDownOracle> oracles;
    oracles.reserve(nets.size());
    for (const auto &net : nets)
        oracles.emplace_back(net);

    TablePrinter t({"topology", "terminals", "switches", "wires",
                    "diameter", "norm-bisection", "T/switch"});
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const FoldedClos &net = nets[i];
        int maxd = 0;
        for (int a = 0; a < net.numLeaves();
             a += std::max(1, net.numLeaves() / 64))
            for (int b = 0; b < net.numLeaves(); ++b)
                maxd = std::max(maxd, oracles[i].leafDistance(a, b));
        std::string bisect =
            net.name().rfind("RFC", 0) == 0
                ? TablePrinter::fmt(
                      normalizedBisectionRfc(radix, levels), 2)
                : (net.name().rfind("CFT", 0) == 0 ? "1.00" : "-");
        t.addRow({net.name(), TablePrinter::fmtInt(net.numTerminals()),
                  TablePrinter::fmtInt(net.numSwitches()),
                  TablePrinter::fmtInt(net.numWires()),
                  std::to_string(maxd), bisect,
                  TablePrinter::fmt(
                      static_cast<double>(net.numTerminals()) /
                          net.numSwitches(), 2)});
    }
    t.print(std::cout);

    // Flow-level throughput under sampled uniform demand: the
    // saturation answer of Figures 8-10 without packet simulation.
    const ExperimentEngine engine(
        opts.jobs(), static_cast<std::uint64_t>(opts.getInt("seed", 2)));
    std::vector<Network> studied;
    for (std::size_t i = 0; i < nets.size(); ++i)
        studied.push_back({nets[i].name(), &nets[i], &oracles[i]});
    Case uniform;
    uniform.label = uniform.pattern = "uniform";
    Study analytic{"flow", Tier::kFlow};
    analytic.max_paths = opts.getIntAtLeast("max-paths", 16, 1);
    analytic.uniform_samples = opts.getIntAtLeast("samples", 4, 0);
    analytic.points = crossPoints(studied, {uniform}, {1.0});
    const StudyResult flows = engine.run(analytic);

    std::cout << "\nflow model, sampled uniform demand ("
              << analytic.uniform_samples << " permutations, <= "
              << analytic.max_paths << " paths/pair):\n";
    TablePrinter f({"topology", "maxflow", "dual-bound", "ecmp-sat",
                    "worst-demand", "avg-demand"});
    for (const auto &p : flows.points)
        f.addRow({p.network, TablePrinter::fmt(p.mean("throughput"), 3),
                  TablePrinter::fmt(p.mean("dual_bound"), 3),
                  TablePrinter::fmt(p.mean("ecmp_saturation"), 3),
                  TablePrinter::fmt(p.mean("ecmp_worst"), 3),
                  TablePrinter::fmt(p.mean("ecmp_average"), 3)});
    f.print(std::cout);
    return 0;
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
