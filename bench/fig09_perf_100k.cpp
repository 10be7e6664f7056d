/**
 * @file
 * Figure 9: the intermediate-expansion scenario - 3-level RFC vs
 * 4-level CFT at the same terminal count.
 *
 * Paper configuration: R = 36, 100,008 terminals (RFC N1 = 5,556; the
 * CFT needs 4 levels and keeps free ports).  The headline effects are
 * the ~15-20% RFC latency advantage from one fewer level and a modest
 * random-pairing throughput deficit.
 *
 * Default (sandbox) scale: CFT(8,4) with 512 terminals vs RFC(16,3)
 * with 512 terminals - the level count difference is preserved.
 * --full runs the paper configuration (slow: ~10^5 terminals;
 * --jobs N parallelizes the trial grid deterministically).
 */
#include <iostream>

#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "fig09_perf_100k", 9,
            {"full", "warmup", "measure", "min-load", "max-load", "points",
             "trials"});
    b.banner("Figure 9: 100K scenario (3-level RFC vs 4-level CFT)");
    const bool full = b.scale == Scale::kFull;
    Rng rng(b.seed);

    const Scenario sc = full ? fig9Triple(36, 36, 5556, rng)
                             : fig9Triple(8, 16, 64, rng);
    const FoldedClos &cft = sc.topology(0), &pruned = sc.topology(1);
    b.text() << "CFT(l=4) terminals: " << cft.numTerminals() << "\n"
             << "pruned CFT roots:   " << pruned.switchesAtLevel(4)
             << " of " << cft.switchesAtLevel(4) << "\n"
             << "RFC(l=3) terminals: " << sc.topology(2).numTerminals()
             << "\n\n";
    b.field("pruned_cft_roots", pruned.switchesAtLevel(4));

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
