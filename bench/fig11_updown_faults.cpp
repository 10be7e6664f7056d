/**
 * @file
 * Figure 11: fault tolerance preserving up/down routing at R = 12.
 *
 * For RFCs of 2, 3 and 4 levels, sweep the leaf count toward the
 * Theorem 4.2 threshold and measure the fraction of randomly removed
 * links tolerated before some leaf pair loses its last common
 * ancestor.  CFT and OFT appear as isolated points; the 2-level OFT
 * sits exactly at zero (unique up/down paths).
 *
 * The per-instance tolerance trials (independent random removal
 * orders) run on the experiment engine with derived per-trial seeds:
 * deterministic at any --jobs value.
 */
#include <iostream>

#include "analysis/resiliency.hpp"
#include "bench_common.hpp"
#include "clos/fat_tree.hpp"
#include "clos/oft.hpp"
#include "clos/rfc.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "fig11_updown_faults", 11, {"full", "radix", "trials"});
    b.banner("Figure 11: up/down-preserving fault tolerance (R=12)");
    const bool full = b.scale == Scale::kFull;
    const int radix = b.opts.getIntAtLeast("radix", 12, 2);
    const int trials =
        b.opts.getIntAtLeast("trials", full ? 20 : 5, 1);
    Rng rng(b.seed);

    std::uint64_t stream = 0;  // one stream id per studied instance
    auto tolerance = [&](const FoldedClos &fc) {
        RunningStat s;
        for (double f : b.engine.map<double>(
                 stream++, trials, [&fc](std::size_t, std::uint64_t seed) {
                     Rng trial_rng(seed);
                     return updownToleranceFraction(fc, trial_rng);
                 }))
            s.add(f);
        return s;
    };

    for (int levels : {2, 3, 4}) {
        int n1_max = rfcMaxLeaves(radix, levels);
        // Default mode caps the 4-level sweep (oracle rebuilds on large
        // instances dominate the run time).
        int cap = full ? n1_max
                       : std::min(n1_max, levels >= 4 ? 600 : n1_max);
        TablePrinter t({"N1", "terminals", "x-position vs threshold",
                        "tolerated links", "ci95"});
        for (int frac = 1; frac <= 4; ++frac) {
            int n1 = cap * frac / 4;
            if (n1 % 2)
                --n1;
            if (n1 < std::max(radix, 4))
                continue;
            auto built = buildRfc(radix, levels, n1, rng, 100);
            if (!built.routable)
                continue;
            auto stat = tolerance(built.topology);
            t.addRow({TablePrinter::fmtInt(n1),
                      TablePrinter::fmtInt(
                          built.topology.numTerminals()),
                      TablePrinter::fmt(
                          static_cast<double>(n1) / n1_max, 2),
                      TablePrinter::fmtPct(stat.mean(), 1),
                      TablePrinter::fmtPct(stat.ci95(), 1)});
        }
        b.emit("RFC levels = " + std::to_string(levels) +
                   " (threshold N1 = " + std::to_string(n1_max) + ")",
               t);
    }

    // CFT points: the fixed-capacity networks at this radix.
    TablePrinter c({"topology", "terminals", "tolerated links", "ci95"});
    for (int levels : {2, 3, 4}) {
        auto cft = buildCft(radix, levels);
        if (!full && cft.numTerminals() > 3000)
            break;
        auto stat = tolerance(cft);
        c.addRow({"CFT l=" + std::to_string(levels),
                  TablePrinter::fmtInt(cft.numTerminals()),
                  TablePrinter::fmtPct(stat.mean(), 1),
                  TablePrinter::fmtPct(stat.ci95(), 1)});
    }
    int q = radix / 2 - 1;
    for (int levels : {2, 3}) {
        auto oft = buildOft(q, levels);
        if (!full && oft.numTerminals() > 3000)
            break;
        auto stat = tolerance(oft);
        c.addRow({"OFT l=" + std::to_string(levels),
                  TablePrinter::fmtInt(oft.numTerminals()),
                  TablePrinter::fmtPct(stat.mean(), 1),
                  TablePrinter::fmtPct(stat.ci95(), 1)});
    }
    b.emit("CFT / OFT isolated points", c);
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
