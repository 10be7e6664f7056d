/**
 * @file
 * Expansion planner: the Section 5 workflow as a tool.
 *
 * Given a switch radix and a target terminal count, report the RFC
 * configuration that serves it, compare its cost against the CFT and
 * OFT alternatives, and print an incremental growth schedule (R new
 * terminals per step) up to the Theorem 4.2 limit, including when a
 * weak expansion (new level) becomes unavoidable.
 *
 * Usage: expansion_planner [--radix R] [--terminals T] [--verify]
 */
#include <iostream>

#include "rfc/rfc.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Options opts(argc, argv, {"radix", "terminals", "verify", "seed"});
    // The cost models reject a radix below 4 or an odd one.
    const int radix = opts.getIntAtLeast("radix", 36, 4);
    const long long target = opts.getInt("terminals", 100008, 1);
    const int m = radix / 2;

    std::cout << "== expansion plan: R = " << radix << ", target T = "
              << target << " ==\n\n";

    // Configuration today.
    auto rfc_c = rfcCostFor(target, radix);
    auto cft_c = cftCostFor(target, radix);
    auto oft_c = oftCostFor(target, radix);
    TablePrinter t({"topology", "levels", "switches", "wires", "ports",
                    "capacity"});
    t.addRow({"RFC", std::to_string(rfc_c.levels),
              TablePrinter::fmtInt(rfc_c.switches),
              TablePrinter::fmtInt(rfc_c.wires),
              TablePrinter::fmtInt(rfc_c.ports),
              TablePrinter::fmtInt(rfc_c.terminals)});
    t.addRow({"CFT", std::to_string(cft_c.levels),
              TablePrinter::fmtInt(cft_c.switches),
              TablePrinter::fmtInt(cft_c.wires),
              TablePrinter::fmtInt(cft_c.ports),
              TablePrinter::fmtInt(cft_c.terminals)});
    t.addRow({"OFT", std::to_string(oft_c.levels),
              TablePrinter::fmtInt(oft_c.switches),
              TablePrinter::fmtInt(oft_c.wires),
              TablePrinter::fmtInt(oft_c.ports),
              TablePrinter::fmtInt(oft_c.terminals)});
    t.print(std::cout);

    double save_sw = 1.0 - static_cast<double>(rfc_c.switches) /
                               cft_c.switches;
    // A one-level CFT (target <= R) is a single switch with no wires.
    const std::string save_w =
        cft_c.wires == 0
            ? std::string("n/a")
            : TablePrinter::fmtPct(
                  1.0 - static_cast<double>(rfc_c.wires) / cft_c.wires, 1);
    std::cout << "\nRFC vs CFT savings: "
              << TablePrinter::fmtPct(save_sw, 1) << " switches, "
              << save_w << " wires\n\n";

    // Growth headroom.
    const int levels = rfc_c.levels;
    const int n1_now = static_cast<int>(rfc_c.terminals / m);
    const int n1_max = rfcMaxLeaves(radix, levels);
    std::cout << "strong expansion headroom at " << levels
              << " levels:\n"
              << "  leaves now: " << n1_now << ", threshold: " << n1_max
              << "\n"
              << "  terminals addable without a new level: "
              << TablePrinter::fmtInt(
                     static_cast<long long>(n1_max - n1_now) * m)
              << " (in steps of " << radix << ")\n"
              << "  each step: +2 switches/level (+1 top), rewires "
              << 2 * m * (levels - 1) << " links\n";
    long long next_cap = rfcMaxTerminals(radix, levels + 1);
    std::cout << "  beyond that: weak expansion to " << levels + 1
              << " levels (capacity "
              << TablePrinter::fmtInt(next_cap) << ")\n";

    // Optionally verify the plan on a real (scaled) instance.
    if (opts.getBool("verify", false)) {
        std::cout << "\nverifying on a scaled instance...\n";
        Rng rng(opts.getInt("seed", 7));
        int n1 = std::min(n1_now, 200);
        if (n1 % 2)
            ++n1;
        int r = std::min(radix, 16);
        n1 = std::max(n1, r);
        auto built = buildRfc(r, 3, n1, rng);
        ExpansionPlan plan(built.topology, 3, rng);
        UpDownOracle oracle(plan.finalTopology());
        std::cout << "  built RFC(" << r << ",3," << n1
                  << "), expanded 3 steps: +"
                  << plan.addedTerminals() << " terminals, rewired "
                  << plan.rewired() << " links, routable: "
                  << (oracle.routable() ? "yes" : "NO") << "\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
