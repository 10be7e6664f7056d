/**
 * @file
 * Figure 5: diameter evolution vs number of compute nodes at R = 36.
 *
 * Reprints the paper's curves: RRN and RFC grow smoothly (RFC only at
 * even diameters), CFT and OFT jump at their fixed capacities.  All
 * values come from the closed-form models of Sections 3-4; the bench
 * additionally verifies a few small points on real constructed
 * topologies.
 */
#include <iostream>

#include "analysis/scalability.hpp"
#include "bench_common.hpp"
#include "clos/fat_tree.hpp"
#include "clos/oft.hpp"
#include "clos/rfc.hpp"
#include "graph/algorithms.hpp"
#include "graph/random_regular.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "fig05_diameter", 1, {"radix"});
    // R >= 4: with one port per side (R < 4) the sweep never grows; an
    // odd radix makes the models throw.
    const int radix = b.opts.getIntAtLeast("radix", 36, 4);
    b.banner("Figure 5: diameter vs compute nodes (R = " +
             std::to_string(radix) + ")");

    TablePrinter t({"terminals", "D(RRN)", "D(RFC)", "D(CFT)", "D(OFT)"});
    for (long long T = 64; T <= 100000000LL; T *= 2) {
        t.addRow({TablePrinter::fmtInt(T),
                  std::to_string(rrnDiameterFor(T, radix)),
                  std::to_string(rfcDiameterFor(T, radix)),
                  std::to_string(cftDiameterFor(T, radix)),
                  std::to_string(oftDiameterFor(T, radix))});
    }
    b.emit("diameter by topology (analytic)", t);

    // Capacity landmarks at diameter 4 (paper Section 4.2 example).
    TablePrinter lm({"topology", "max terminals at D=4", "note"});
    lm.addRow({"CFT", TablePrinter::fmtInt(cftTerminals(radix, 3)),
               "2 (R/2)^3"});
    lm.addRow({"RFC", TablePrinter::fmtInt(rfcMaxTerminals(radix, 3)),
               "N1 ln N1 = (R/2)^4"});
    lm.addRow({"RRN", TablePrinter::fmtInt(rrnMaxTerminals(radix, 4)),
               "Delta^4 = 2 N ln N"});
    int q = oftOrderFromRadix(radix);
    lm.addRow({"OFT", TablePrinter::fmtInt(oftTerminals(q, 3)),
               "q = R/2 - 1"});
    b.emit("diameter-4 capacity landmarks", lm);

    // Verify the model against real instances (small sizes).
    Rng rng(b.seed);
    TablePrinter v({"instance", "terminals", "model D", "measured D"});
    {
        auto fc = buildCft(8, 3);
        v.addRow({"CFT(8,3)", TablePrinter::fmtInt(fc.numTerminals()),
                  "4", std::to_string(diameterExact(fc.toGraph()))});
    }
    {
        auto built = buildRfc(8, 3, rfcMaxLeaves(8, 3), rng);
        Graph g = built.topology.toGraph();
        int maxd = 0;
        for (int a = 0; a < built.topology.numLeaves(); ++a) {
            auto dist = bfsDistances(g, a);
            for (int b = 0; b < built.topology.numLeaves(); ++b)
                maxd = std::max(maxd, dist[b]);
        }
        v.addRow({"RFC(8,3) leaf-to-leaf",
                  TablePrinter::fmtInt(built.topology.numTerminals()),
                  "4", std::to_string(maxd)});
    }
    {
        int n = 64, d = 6;
        Graph g = randomRegularGraph(n, d, rng);
        v.addRow({"RRN(64 sw, deg 6)",
                  TablePrinter::fmtInt(n * 2), "<= 4 whp",
                  std::to_string(diameterExact(g))});
    }
    b.emit("model vs constructed instances", v);
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
