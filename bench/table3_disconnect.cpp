/**
 * @file
 * Table 3: percentage of links whose random removal disconnects a
 * diameter-4 network, for CFT / RRN / RFC / OFT at T ~ 512..8192.
 *
 * Radix selection per topology follows the paper: the smallest radix
 * whose diameter-4 (3-level / D=4) configuration reaches the target
 * terminal count.  This reproduces the paper's choices (e.g. CFT R=16
 * and RFC R=12 at T~1024, CFT R=20 and RFC R=14 at T~2048).
 * Each cell averages --trials random removal orders (paper: 100;
 * default here: 10; --full: 100).  The removal-order trials of each
 * cell run on the experiment engine (--jobs threads) with derived
 * per-trial seeds, so cells are deterministic at any job count.
 */
#include <cmath>
#include <iostream>

#include "analysis/resiliency.hpp"
#include "analysis/scalability.hpp"
#include "bench_common.hpp"
#include "clos/fat_tree.hpp"
#include "clos/galois.hpp"
#include "clos/oft.hpp"
#include "clos/rfc.hpp"
#include "graph/random_regular.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

/** Smallest even radix whose 3-level CFT reaches T terminals. */
int
cftRadixFor(long long t)
{
    int r = 4;
    while (cftTerminals(r, 3) < t)
        r += 2;
    return r;
}

/** Smallest even radix whose 3-level RFC reaches T terminals w.h.p. */
int
rfcRadixFor(long long t)
{
    int r = 4;
    for (;; r += 2) {
        long long n1 = (t + r / 2 - 1) / (r / 2);
        if (n1 % 2)
            ++n1;
        if (n1 <= rfcMaxLeaves(r, 3) && n1 >= r)
            return r;
    }
}

/** Smallest radix whose diameter-4 RRN reaches T terminals. */
int
rrnRadixFor(long long t)
{
    int r = 4;
    while (rrnMaxTerminals(r, 4) < t)
        ++r;
    return r;
}

/** Prime power q whose 3-level OFT is closest to T terminals. */
int
oftOrderFor(long long t)
{
    int best = 2;
    double best_err = 1e300;
    for (int q = 2; q <= 16; ++q) {
        if (!isPrimePower(q))
            continue;
        double err = std::abs(std::log(
            static_cast<double>(oftTerminals(q, 3)) /
            static_cast<double>(t)));
        if (err < best_err) {
            best_err = err;
            best = q;
        }
    }
    return best;
}

} // namespace

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "table3_disconnect", 33, {"full", "trials"});
    b.banner("Table 3: faults to disconnect a diameter-4 network");
    const bool full = b.scale == Scale::kFull;
    const int trials =
        b.opts.getIntAtLeast("trials", full ? 100 : 10, 1);
    Rng rng(b.seed);

    std::uint64_t stream = 0;  // one stream id per table cell
    auto disconnect = [&](const Graph &g) {
        RunningStat s;
        for (double f : b.engine.map<double>(
                 stream++, trials, [&g](std::size_t, std::uint64_t seed) {
                     Rng trial_rng(seed);
                     return disconnectionFraction(g, trial_rng);
                 }))
            s.add(f);
        return s;
    };

    TablePrinter t({"~T", "CFT", "R", "RRN", "R", "RFC", "R", "OFT", "R",
                    "(paper CFT/RRN/RFC)"});
    const char *paper[] = {"45.6/45.6/35.5", "51.3/49.0/38.2",
                           "56.3/48.9/40.7", "61.7/55.5/43.5",
                           "65.3/56.6/44.0"};
    int row = 0;
    for (long long target : {512LL, 1024LL, 2048LL, 4096LL, 8192LL}) {
        // CFT.
        int r_cft = cftRadixFor(target);
        auto cft = buildCft(r_cft, 3);
        auto s_cft = disconnect(cft.toGraph());

        // RRN.
        int r_rrn = rrnRadixFor(target);
        int delta = static_cast<int>(std::floor(r_rrn * 4.0 / 5.0));
        int hosts = r_rrn - delta;
        int n = static_cast<int>((target + hosts - 1) / hosts);
        if ((static_cast<long long>(n) * delta) % 2)
            ++n;
        Graph rrn = randomRegularGraph(n, delta, rng);
        auto s_rrn = disconnect(rrn);

        // RFC.
        int r_rfc = rfcRadixFor(target);
        int n1 = static_cast<int>(
            (target + r_rfc / 2 - 1) / (r_rfc / 2));
        if (n1 % 2)
            ++n1;
        auto built = buildRfc(r_rfc, 3, n1, rng);
        auto s_rfc = disconnect(built.topology.toGraph());

        // OFT (paper reports it only at some sizes; we fill all rows
        // with the closest 3-level instance).
        int q = oftOrderFor(target);
        auto oft = buildOft(q, 3);
        auto s_oft = disconnect(oft.toGraph());

        t.addRow({TablePrinter::fmtInt(target),
                  TablePrinter::fmtPct(s_cft.mean(), 1),
                  std::to_string(r_cft),
                  TablePrinter::fmtPct(s_rrn.mean(), 1),
                  std::to_string(r_rrn),
                  TablePrinter::fmtPct(s_rfc.mean(), 1),
                  std::to_string(r_rfc),
                  TablePrinter::fmtPct(s_oft.mean(), 1),
                  std::to_string(2 * (q + 1)), paper[row++]});
    }
    b.emit("percentage of removed links at first disconnection", t);
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
