/**
 * @file
 * Figure 8: latency & throughput of 3-level CFT vs RFC, equal resources.
 *
 * Paper configuration: R = 36, N1 = 648, 11,664 terminals, plus the
 * radix-20 RFC variant with 11,660 terminals, under uniform,
 * random-pairing and fixed-random traffic.
 *
 * Default (sandbox) scale keeps the same structure with R = 16
 * (1,024 terminals); the radix-reduced RFC variant uses R = 12
 * (1,020 terminals).  --full runs the paper configuration.
 *
 * The 3 networks x 3 traffics x 7 loads x --trials grid runs on the
 * experiment engine; --jobs N parallelizes it with bit-identical
 * output (CSV included), --json adds stddev/ci95 and trial timing.
 */
#include <iostream>

#include "bench_common.hpp"
#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "util/rng.hpp"

using namespace rfc;

int
main(int argc, char **argv)
{
    Bench b(argc, argv, "fig08_perf_11k", 8);
    b.banner("Figure 8: equal-resources CFT vs RFC (11K scenario)");
    const bool full = b.opts.fullScale();
    // --smoke: CI-sized run (seconds, not minutes) that still exercises
    // the full grid machinery; used by the determinism smoke check.
    const bool smoke = b.opts.getBool("smoke", false);

    const int radix = static_cast<int>(
        b.opts.getInt("radix", full ? 36 : (smoke ? 8 : 16)));
    const int levels = 3;
    Rng rng(b.seed);

    auto cft = buildCft(radix, levels);
    auto rfc_eq = buildRfc(radix, levels, cft.numLeaves(), rng);
    if (!rfc_eq.routable)
        b.text() << "warning: equal-resources RFC not routable\n";

    // Radix-reduced RFC variant connecting ~the same terminal count.
    const int small_radix = static_cast<int>(
        b.opts.getInt("small-radix", full ? 20 : (smoke ? 6 : 12)));
    int n1_small = static_cast<int>(cft.numTerminals() / (small_radix / 2));
    if (n1_small % 2)
        ++n1_small;
    auto rfc_small = buildRfc(small_radix, levels, n1_small, rng);
    if (!rfc_small.routable)
        b.text() << "warning: reduced-radix RFC not routable\n";

    UpDownOracle o_cft(cft);
    UpDownOracle o_eq(rfc_eq.topology);
    UpDownOracle o_small(rfc_small.topology);

    b.text() << "CFT terminals:        " << cft.numTerminals() << "\n"
             << "RFC equal terminals:  "
             << rfc_eq.topology.numTerminals() << "\n"
             << "RFC R=" << small_radix << " terminals: "
             << rfc_small.topology.numTerminals() << "\n\n";

    SimConfig base;
    base.warmup = b.opts.getInt("warmup", full ? 3000 : (smoke ? 150 : 600));
    base.measure =
        b.opts.getInt("measure", full ? 10000 : (smoke ? 400 : 2000));
    base.seed = b.seed;
    auto loads = loadRange(
        b.opts.getDouble("min-load", 0.2), b.opts.getDouble("max-load", 1.0),
        static_cast<int>(b.opts.getInt("points", smoke ? 3 : 7)));
    int reps = static_cast<int>(b.opts.getInt("trials", full ? 5 : 1));

    std::vector<Network> nets{
        {"CFT", &cft, &o_cft},
        {"RFC", &rfc_eq.topology, &o_eq},
        {"RFC-r" + std::to_string(small_radix), &rfc_small.topology,
         &o_small},
    };
    runPerfScenario(b, "perf", nets,
                    {"uniform", "random-pairing", "fixed-random"}, loads,
                    base, reps);
    return b.finish();
}
