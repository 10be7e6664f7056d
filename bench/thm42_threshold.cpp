/**
 * @file
 * Theorem 4.2 validation: the sharp up/down-routability threshold.
 *
 * Fix radix and levels, sweep the leaf count N1 through the threshold
 * and, for each size, generate many RFC wirings and measure the
 * fraction that admit up/down routing.  The theorem predicts
 * e^{-e^{-x}} where x is the offset implied by (R, l, N1); at the
 * threshold (x = 0) this is 1/e, matching the paper's "one success
 * every three generations" remark.
 *
 * Generations are independent wirings, so they run as a deterministic
 * engine map (--jobs threads, per-generation derived seeds).
 */
#include <iostream>

#include "bench_common.hpp"
#include "clos/rfc.hpp"
#include "routing/updown.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "thm42_threshold", 42,
            {"full", "radix", "levels", "generations"});
    b.banner("Theorem 4.2: sharp threshold for up/down routing");
    const bool full = b.scale == Scale::kFull;
    // Defaults chosen so the asymptotic theorem is visible: 2-level
    // RFCs at tiny N1 are trivially routable (finite-size effect), so
    // the default sweep uses 3 levels where N1* ~ 230.
    const int radix = b.opts.getIntAtLeast("radix", 12, 2);
    const int levels = b.opts.getIntAtLeast("levels", 3, 1);
    const int gens =
        b.opts.getIntAtLeast("generations", full ? 400 : 80, 1);

    std::uint64_t stream = 0;  // one stream per table row

    const int n1_star = rfcMaxLeaves(radix, levels);
    TablePrinter t({"N1", "implied x", "P(routable) predicted",
                    "P(routable) empirical", "mean pair coverage"});

    for (double rel : {0.6, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5}) {
        int n1 = static_cast<int>(n1_star * rel);
        if (n1 % 2)
            ++n1;
        if (n1 < radix)
            continue;
        const auto [x, predicted] =
            rfcThresholdPrediction(radix, levels, n1);

        struct Gen
        {
            int routable = 0;
            double coverage = 0.0;
        };
        auto results = b.engine.map<Gen>(
            stream++, gens,
            [&](std::size_t, std::uint64_t seed) {
                Rng gen_rng(seed);
                auto fc = buildRfcUnchecked(radix, levels, n1, gen_rng);
                UpDownOracle oracle(fc);
                return Gen{oracle.routable() ? 1 : 0,
                           oracle.routablePairFraction()};
            });
        int ok = 0;
        double coverage = 0.0;
        for (const auto &g : results) {
            ok += g.routable;
            coverage += g.coverage;
        }
        t.addRow({TablePrinter::fmtInt(n1), TablePrinter::fmt(x, 2),
                  TablePrinter::fmt(predicted, 3),
                  TablePrinter::fmt(static_cast<double>(ok) / gens, 3),
                  TablePrinter::fmt(coverage / gens, 4)});
    }
    b.emit("R=" + std::to_string(radix) + ", l=" + std::to_string(levels) +
               ", threshold N1* = " + std::to_string(n1_star) + ", " +
               std::to_string(gens) + " generations per row",
           t);

    // The paper's practical corollary: the acceptance loop needs ~e
    // attempts at the threshold.
    TablePrinter a({"metric", "value"});
    const int builds = full ? 60 : 20;
    auto attempts = b.engine.map<long long>(
        stream++, builds,
        [&](std::size_t, std::uint64_t seed) {
            Rng build_rng(seed);
            auto built = buildRfc(radix, levels, n1_star, build_rng,
                                  1000);
            return built.attempts;
        });
    long long total_attempts = 0;
    for (long long n : attempts)
        total_attempts += n;
    a.addRow({"mean attempts at threshold (expect ~e = 2.72)",
              TablePrinter::fmt(
                  static_cast<double>(total_attempts) / builds, 2)});
    b.emit("acceptance-loop cost", a);
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
