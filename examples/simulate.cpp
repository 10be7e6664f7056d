/**
 * @file
 * simulate - the one-stop simulation driver (a miniature INSEE).
 *
 * Builds any topology the library supports, sweeps offered load under
 * a chosen traffic pattern and prints the latency/throughput series.
 * All Table 2 parameters are overridable.
 *
 * Examples:
 *   simulate --topo rfc --radix 16 --levels 3 --leaves 128 \
 *            --traffic random-pairing --points 8
 *   simulate --topo cft --radix 12 --levels 3 --traffic uniform \
 *            --route-mode updown-random --vcs 8 --csv
 *   simulate --topo oft --radix 8 --levels 2 --load 0.7
 *
 * Options (defaults in brackets):
 *   --topo cft|rfc|oft|kary [rfc]     --radix R [16]
 *   --levels L [3]                    --leaves N1 [auto from Thm 4.2]
 *   --traffic NAME [uniform]          --shift-stride S [tpl]
 *   --hot-fraction F [0.2]            --hotspots H [1]
 *   --load X (single point) | --min-load/--max-load/--points [0.1..1.0 x7]
 *                     (--load with any sweep flag is rejected)
 *   --route-mode minimal|updown-random|valiant|ugal [minimal]
 *   --vcs [4] --buffers [4] --pkt-phits [16] --warmup [1000]
 *   --measure [4000] --seed [1] --trials [1]
 *   --jobs N [auto]  parallel trials (bit-identical at any N)
 *   --csv | --json   machine-readable output (JSON includes
 *                    stddev/ci95 when --trials > 1, plus timing);
 *                    giving both is rejected
 *
 * Integer flags are range-checked (--radix >= 2, --trials >= 1, ...):
 * a value outside its range or past an int throws instead of wrapping.
 * Any flag not listed here is rejected.
 *
 * The load sweep is declared as a study (1 network x 1 traffic x
 * points x trials) and runs on the shared engine; per-trial seeds are
 * derived from --seed, so results do not depend on --jobs.  With
 * --json the text lines go to stderr and stdout is one document.
 * Every trial passes the packet audit (exp/experiment.hpp failsAudit);
 * the results print either way, and the exit status is 1 after any
 * failure.
 */
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "rfc/rfc.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Options opts(argc, argv,
                 {"topo", "radix", "levels", "leaves", "traffic",
                  "shift-stride", "hot-fraction", "hotspots", "load",
                  "min-load", "max-load", "points", "route-mode", "vcs",
                  "buffers", "pkt-phits", "warmup", "measure", "seed",
                  "trials", "jobs", "csv", "json"});
    const bool json = opts.getBool("json", false);
    if (json && opts.getBool("csv", false))
        throw std::invalid_argument(
            "--csv and --json are different output formats: give at most "
            "one of them");
    // One point (--load) or a sweep (--min-load/--max-load/--points),
    // never both.
    std::vector<double> loads;
    if (opts.has("load")) {
        for (const char *sweep : {"min-load", "max-load", "points"})
            if (opts.has(sweep))
                throw std::invalid_argument(
                    std::string("--load runs one point and --") + sweep +
                    " shapes a sweep: give one or the other");
        loads.push_back(opts.getDouble("load", 0.5));
    } else {
        loads = loadRange(opts.getDouble("min-load", 0.1),
                          opts.getDouble("max-load", 1.0),
                          opts.getIntAtLeast("points", 7, 1));
    }
    // Built first, so the report's wall clock covers the topology and
    // oracle builds as well as the sweep, as a bench's does.
    ExperimentEngine engine(opts.jobs(), opts.getInt("seed", 1));
    Report report("simulate", opts.getInt("seed", 1), engine.jobs());

    const std::string topo = opts.get("topo", "rfc");
    const int radix = opts.getIntAtLeast("radix", 16, 2);
    const int levels = opts.getIntAtLeast("levels", 3, 1);
    Rng rng(opts.getInt("seed", 1));

    FoldedClos fc;
    if (topo == "cft") {
        fc = buildCft(radix, levels);
    } else if (topo == "kary") {
        fc = buildKaryTree(radix / 2, levels);
    } else if (topo == "oft") {
        fc = buildOft(radix / 2 - 1, levels);
    } else if (topo == "rfc") {
        int n1 = opts.getIntAtLeast("leaves", 0, 0);
        if (n1 == 0) {
            n1 = rfcMaxLeaves(radix, levels) * 4 / 5;
            if (n1 % 2)
                --n1;
            n1 = std::max(n1, radix);
        }
        auto built = buildRfc(radix, levels, n1, rng);
        if (!built.routable) {
            std::cerr << "error: no routable RFC found for these "
                         "parameters (Theorem 4.2 limit is N1 <= "
                      << rfcMaxLeaves(radix, levels) << ")\n";
            return 1;
        }
        fc = std::move(built.topology);
    } else {
        std::cerr << "unknown --topo " << topo << "\n";
        return 1;
    }

    std::ostream &text = json ? std::cerr : std::cout;
    UpDownOracle oracle(fc);
    text << "topology: " << fc.name() << "  terminals "
              << fc.numTerminals() << ", switches " << fc.numSwitches()
         << ", wires " << fc.numWires() << ", avg up/down distance "
         << TablePrinter::fmt(oracle.averageLeafDistance(), 2) << "\n";
    if (!oracle.routable()) {
        std::cerr << "error: topology is not up/down routable\n";
        return 1;
    }

    SimConfig cfg;
    cfg.vcs = opts.getIntAtLeast("vcs", cfg.vcs, 1);
    cfg.buf_packets = opts.getIntAtLeast("buffers", cfg.buf_packets, 1);
    cfg.pkt_phits = opts.getIntAtLeast("pkt-phits", cfg.pkt_phits, 1);
    cfg.warmup = opts.getInt("warmup", 1000);
    cfg.measure = opts.getInt("measure", 4000);
    cfg.seed = opts.getInt("seed", 1);
    const std::string mode = opts.get("route-mode", "minimal");
    if (mode == "minimal") {
        cfg.route_mode = RouteMode::kMinimal;
    } else if (mode == "updown-random") {
        cfg.route_mode = RouteMode::kUpDownRandom;
    } else if (mode == "valiant") {
        cfg.route_mode = RouteMode::kValiant;
    } else if (mode == "ugal") {
        cfg.route_mode = RouteMode::kUgal;
    } else {
        std::cerr << "unknown --route-mode " << mode << "\n";
        return 1;
    }

    const std::string tname = opts.get("traffic", "uniform");
    const long long stride =
        opts.getInt("shift-stride", fc.terminalsPerLeaf());
    const double hot_fraction = opts.getDouble("hot-fraction", 0.2);
    const int hotspots = opts.getIntAtLeast("hotspots", 1, 1);
    TrafficFactory make_traffic =
        [tname, stride, hot_fraction,
         hotspots]() -> std::unique_ptr<Traffic> {
        if (tname == "shift")
            return std::make_unique<ShiftTraffic>(stride);
        if (tname == "hotspot")
            return std::make_unique<HotspotTraffic>(hot_fraction,
                                                    hotspots);
        return makeTraffic(tname);
    };

    const int trials = opts.getIntAtLeast("trials", 1, 1);

    const StudyResult result = engine.run(
        {"sweep", Tier::kVct,
         crossPoints({{fc.name(), &fc, &oracle}}, {{tname, make_traffic}},
                     loads, cfg),
         trials});
    const int status = conservationViolations(result) == 0 ? 0 : 1;

    text << "traffic: " << tname << ", route mode: " << mode << ", "
         << trials << " trial(s)/point, " << engine.jobs() << " job(s), "
         << TablePrinter::fmt(result.wall_seconds, 2) << " s\n";

    if (json) {
        report.add(result);
        report.write(std::cout);
        return status;
    }

    TablePrinter t({"offered", "accepted", "avg-lat", "p50-lat",
                    "p99-lat", "avg-hops", "suppressed", "unroutable"});
    for (const auto &p : result.points)
        t.addRow({TablePrinter::fmt(p.load, 3),
                  TablePrinter::fmt(p.mean("accepted"), 3),
                  TablePrinter::fmt(p.mean("avg_latency"), 1),
                  TablePrinter::fmt(p.mean("p50_latency"), 1),
                  TablePrinter::fmt(p.mean("p99_latency"), 1),
                  TablePrinter::fmt(p.mean("avg_hops"), 2),
                  TablePrinter::fmtInt(
                      std::llround(p.mean("suppressed_packets"))),
                  TablePrinter::fmtInt(
                      std::llround(p.mean("unroutable_packets")))});
    if (opts.getBool("csv", false))
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    return status;
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
