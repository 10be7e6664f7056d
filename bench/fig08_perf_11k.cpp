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
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "fig08_perf_11k", 8,
            {"smoke", "full", "radix", "small-radix", "warmup", "measure",
             "min-load", "max-load", "points", "trials"});
    b.banner("Figure 8: equal-resources CFT vs RFC (11K scenario)");
    const bool full = b.scale == Scale::kFull;
    // --smoke: CI-sized run (seconds, not minutes) that still exercises
    // the full grid machinery; used by the determinism smoke check.
    const bool smoke = b.scale == Scale::kSmoke;

    // Smoke runs R = 12 / R' = 10 (432 / 430 terminals): at R = 8 no
    // smaller radix gives a routable RFC with the CFT's 128 terminals.
    const int radix =
        b.opts.getIntAtLeast("radix", full ? 36 : (smoke ? 12 : 16), 2);
    Rng rng(b.seed);

    Scenario sc = equalResources(radix, rng);
    // Radix-reduced RFC variant connecting ~the same terminal count.
    const int small_radix = b.opts.getIntAtLeast(
        "small-radix", full ? 20 : (smoke ? 10 : 12), 2);
    addReducedRadixRfc(sc, small_radix, rng);

    b.text() << "CFT terminals:        " << sc.topology(0).numTerminals()
             << "\n"
             << "RFC equal terminals:  " << sc.topology(1).numTerminals()
             << "\n"
             << "RFC R=" << small_radix << " terminals: "
             << sc.topology(2).numTerminals() << "\n\n";

    SimConfig base;
    base.warmup = b.opts.getInt("warmup", full ? 3000 : (smoke ? 150 : 600));
    base.measure =
        b.opts.getInt("measure", full ? 10000 : (smoke ? 400 : 2000));
    auto loads = loadRange(
        b.opts.getDouble("min-load", 0.2), b.opts.getDouble("max-load", 1.0),
        b.opts.getIntAtLeast("points", smoke ? 3 : 7, 1));
    int reps = b.opts.getIntAtLeast("trials", full ? 5 : 1, 1);

    runPerfScenario(b, "perf", sc.networks(),
                    {"uniform", "random-pairing", "fixed-random"}, loads,
                    base, reps);
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
