/**
 * @file
 * Quickstart: build a random folded Clos network, inspect it, route on
 * it, and simulate datacenter traffic - the full public API in ~100
 * lines.
 *
 * Usage: quickstart [--radix R] [--levels L] [--leaves N1]
 *                   [--load X] [--seed S]
 *
 * Exits 1 when the simulation fails the packet audit
 * (exp/experiment.hpp failsAudit).
 */
#include <iostream>

#include "rfc/rfc.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Options opts(argc, argv, {"radix", "levels", "leaves", "load", "seed"});
    const int radix = opts.getIntAtLeast("radix", 16, 2);
    const int levels = opts.getIntAtLeast("levels", 3, 1);
    int n1 = opts.getIntAtLeast("leaves", 0, 0);
    const double load = opts.getDouble("load", 0.6);
    Rng rng(opts.getInt("seed", 1));

    // 1. Pick a size.  Theorem 4.2 bounds how many leaf switches an
    //    RFC of this radix and depth can have while keeping up/down
    //    routing; stay at 80% of the threshold for headroom.
    int n1_max = rfcMaxLeaves(radix, levels);
    if (n1 == 0)
        n1 = std::max(radix, n1_max * 4 / 5 / 2 * 2);
    std::cout << "Theorem 4.2 threshold for R=" << radix << ", l="
              << levels << ": N1 <= " << n1_max << "\n"
              << "building RFC with N1 = " << n1 << " leaves...\n";

    // 2. Build.  The builder regenerates until the instance admits
    //    deadlock-free up/down routing (~e attempts at the threshold).
    auto built = buildRfc(radix, levels, n1, rng);
    const FoldedClos &net = built.topology;
    std::cout << "  attempts: " << built.attempts
              << ", routable: " << (built.routable ? "yes" : "no")
              << "\n  switches: " << net.numSwitches()
              << ", terminals: " << net.numTerminals()
              << ", wires: " << net.numWires() << "\n";

    // 3. Routing oracle: common ancestors, ECMP choices, distances.
    UpDownOracle oracle(net);
    std::cout << "  leaf 0 -> leaf " << net.numLeaves() - 1
              << " minimal up/down distance: "
              << oracle.leafDistance(0, net.numLeaves() - 1) << "\n";

    // 4. Compare cost against the fat-tree that serves the same
    //    terminal count.
    auto cft = cftCostFor(net.numTerminals(), radix);
    std::cout << "  equivalent CFT would need " << cft.switches
              << " switches / " << cft.wires << " wires ("
              << net.numSwitches() << " / " << net.numWires()
              << " here)\n";

    // 5. Simulate uniform traffic at the requested load (Table 2
    //    parameters: 4 VCs, 16-phit packets, virtual cut-through).
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.load = load;
    cfg.warmup = 1000;
    cfg.measure = 4000;
    cfg.seed = opts.getInt("seed", 1);
    Simulator sim(net, oracle, traffic, cfg);
    auto r = sim.run();
    std::cout << "simulation @ offered " << load << ":\n"
              << "  accepted load: " << r.accepted
              << " phits/node/cycle\n"
              << "  average latency: " << r.avg_latency << " cycles\n"
              << "  average hops: " << r.avg_hops << "\n";

    // 6. Audit the run: every packet generated is accounted for.
    return failsAudit(sim, r, "quickstart") ? 1 : 0;
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
