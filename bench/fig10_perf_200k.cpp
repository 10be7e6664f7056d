/**
 * @file
 * Figure 10: the maximum-expansion scenario - the largest 3-level RFC
 * vs the 4-level CFT.
 *
 * Paper configuration: R = 36; RFC at its Theorem 4.2 limit (N1 =
 * 11,254, 202,572 terminals) vs CFT with 209,952 terminals.  Expected
 * shapes: equal uniform/fixed-random throughput, ~15% lower RFC
 * latency, larger (~22%) random-pairing deficit than at 100K.
 *
 * Default (sandbox) scale: R = 12; RFC at its own threshold (N1 = 232,
 * 1,392 terminals) vs CFT(12,4) (2,592 terminals) - like the paper,
 * the RFC sits at its routability limit while the CFT is full.
 * --full runs the paper configuration (very slow: ~2*10^5 terminals;
 * --jobs N parallelizes the trial grid deterministically).
 */
#include <iostream>

#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "fig10_perf_200k", 10,
            {"full", "warmup", "measure", "min-load", "max-load", "points",
             "trials"});
    b.banner("Figure 10: 200K scenario (max 3-level RFC vs 4-level "
             "CFT)");
    const bool full = b.scale == Scale::kFull;
    Rng rng(b.seed);

    const int radix = full ? 36 : 12;
    const Scenario sc = fig10Pair(radix, rng);
    const int n1 = sc.topology(1).numLeaves();
    b.text() << "CFT(l=4) terminals: " << sc.topology(0).numTerminals()
             << "\n"
             << "RFC(l=3) terminals: " << sc.topology(1).numTerminals()
             << " (threshold N1 = " << n1 << ", attempts = "
             << sc.rfcAttempts() << ")\n\n";
    b.field("rfc_threshold_n1", n1);
    b.field("rfc_attempts", sc.rfcAttempts());

    SimConfig base;
    base.warmup = b.opts.getInt("warmup", full ? 3000 : 600);
    base.measure = b.opts.getInt("measure", full ? 10000 : 2000);
    auto loads = loadRange(b.opts.getDouble("min-load", 0.2),
                           b.opts.getDouble("max-load", 1.0),
                           b.opts.getIntAtLeast("points", 7, 1));
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
