/**
 * @file
 * Figure 7: expandability - network cost (total ports) vs terminals.
 *
 * CFT and OFT trace step functions (each step is a weak expansion
 * adding a level); RFC and RRN are nearly linear.  Also reprints the
 * Section 5 rewiring example: expanding a ~10K-terminal random network
 * by 180 terminals rewires ~1.8% of the links - verified here on a
 * real RFC instance via ExpansionPlan.
 */
#include <iostream>

#include "analysis/cost.hpp"
#include "bench_common.hpp"
#include "clos/expansion.hpp"
#include "clos/rfc.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "fig07_expandability", 3, {"full", "radix"});
    // R >= 4: with one port per side (R < 4) the sweep never grows; an
    // odd radix makes the models throw.
    const int radix = b.opts.getIntAtLeast("radix", 36, 4);
    b.banner("Figure 7: expandability (ports vs terminals, R = " +
             std::to_string(radix) + ")");

    TablePrinter t({"terminals", "ports(CFT)", "ports(OFT)", "ports(RFC)",
                    "ports(RRN)", "l(CFT)", "l(RFC)"});
    for (long long T = 1000; T <= 300000; T = T * 5 / 4) {
        auto cft = cftCostFor(T, radix);
        auto oft = oftCostFor(T, radix);
        auto rfc_c = rfcCostFor(T, radix);
        auto rrn = rrnCostFor(T, radix);
        t.addRow({TablePrinter::fmtInt(T),
                  TablePrinter::fmtInt(cft.ports),
                  TablePrinter::fmtInt(oft.ports),
                  TablePrinter::fmtInt(rfc_c.ports),
                  TablePrinter::fmtInt(rrn.ports),
                  std::to_string(cft.levels),
                  std::to_string(rfc_c.levels)});
    }
    b.emit("cost curves", t);

    // Incremental rewiring cost on a real instance.  Default scale
    // R=12, T~1000; full scale R=36, T~10000 (the paper's example).
    const bool full = b.scale == Scale::kFull;
    const int r = full ? 36 : 12;
    const int m = r / 2;
    long long target = full ? 10000 : 1000;
    int n1 = static_cast<int>(target / m);
    if (n1 % 2)
        ++n1;
    Rng rng(b.seed);
    auto built = buildRfc(r, 3, n1, rng);
    auto &fc = built.topology;
    long long wires = fc.numWires();

    // Add R terminals per step until ~1.8% of target is added.
    int steps = static_cast<int>(target * 18 / 1000 / r) + 1;
    ExpansionPlan plan(fc, steps, rng);
    TablePrinter rw({"metric", "value"});
    rw.addRow({"radix", std::to_string(r)});
    rw.addRow({"terminals before", TablePrinter::fmtInt(fc.numTerminals())});
    rw.addRow({"terminals added",
               TablePrinter::fmtInt(plan.addedTerminals())});
    rw.addRow({"links rewired", TablePrinter::fmtInt(plan.rewired())});
    rw.addRow({"rewired fraction of links",
               TablePrinter::fmtPct(
                   static_cast<double>(plan.rewired()) /
                       static_cast<double>(wires), 2)});
    rw.addRow({"radix-regular after",
               plan.finalTopology().isRadixRegular() ? "yes" : "NO"});
    b.emit("incremental expansion rewiring (Sec 5 example)", rw);
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
