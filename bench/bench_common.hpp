/**
 * @file
 * Shared harness of the per-figure/per-table benchmark binaries.
 *
 * Every bench binary prints the series of one paper artifact.  By
 * default the experiments run at a sandbox-friendly scale; pass
 * --full (or set RFC_FULL=1) to run the paper-scale configuration.
 * All binaries accept --seed, --trials, and simulation-size overrides
 * where meaningful.
 *
 * Output and execution flags (handled here / by util/options):
 *   --csv      print tables as CSV instead of aligned columns
 *   --json     print exactly one JSON document on stdout instead
 *              (exp/experiment.hpp Report): every study section with
 *              per-point metrics and spread, every table, headline
 *              fields, and the run-dependent values (wall clock, jobs,
 *              peak RSS) only inside "timing" objects; banners,
 *              headings and prose go to stderr
 *   --jobs N   worker threads for the experiment engine (default:
 *              hardware concurrency, env RFC_JOBS).  Results are
 *              bit-identical for any N: seeds derive from
 *              {base seed, study point, rep}, never from thread order.
 *              Each simulation runs on one thread; --jobs is the only
 *              parallelism lever, and the removed --shards/--sim-jobs
 *              flags are rejected.
 *
 * Benches declare their studies (points x reps at one fidelity tier)
 * and hand them to Bench::run rather than looping; see runPerfScenario
 * below for the Figures 8-10 shape.
 */
#ifndef RFC_BENCH_COMMON_HPP
#define RFC_BENCH_COMMON_HPP

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clos/folded_clos.hpp"
#include "exp/experiment.hpp"
#include "routing/updown.hpp"
#include "sim/traffic.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace rfc {

/**
 * One bench process: its options, its experiment engine and its one
 * output.  In text mode (the default, or --csv) everything prints on
 * stdout as it comes.  With --json, studies, tables and headline fields
 * are collected and finish() prints them as one document.
 */
class Bench
{
  public:
    Bench(int argc, char **argv, std::string name,
          std::uint64_t default_seed)
        : opts(argc, argv), json(opts.getBool("json", false)),
          seed(static_cast<std::uint64_t>(opts.getInt(
              "seed", static_cast<std::int64_t>(default_seed)))),
          engine(opts.jobs(), seed),
          report_(std::move(name), seed, engine.jobs())
    {
        // Options accepts any flag, so a removed one would otherwise
        // run a different experiment than the user asked for.
        for (const char *removed : {"shards", "sim-jobs"})
            if (opts.has(removed))
                throw std::invalid_argument(
                    std::string("--") + removed +
                    " was removed: one simulation now runs on one "
                    "thread; --jobs N runs N trials in parallel");
    }

    const Options opts;
    const bool json;
    const std::uint64_t seed;  //!< --seed, else the bench's default
    const ExperimentEngine engine;

    /** Prose and headings: stdout, or stderr under --json. */
    std::ostream &text() const { return json ? std::cerr : std::cout; }

    /** Banner naming the artifact; @p mode replaces the scale line. */
    void
    banner(const std::string &what, const std::string &mode = "") const
    {
        text() << "== " << what << " ==\n"
               << (!mode.empty() ? mode
                   : opts.fullScale()
                       ? "mode: FULL (paper-scale; may take a long time)"
                       : "mode: default (reduced scale; --full or "
                         "RFC_FULL=1 for paper scale)")
               << "\n";
    }

    /** A table under a heading: printed, or kept for the document. */
    void
    emit(const std::string &heading, const TablePrinter &table)
    {
        if (json) {
            report_.addTable(heading, table);
            return;
        }
        std::cout << "### " << heading << "\n";
        if (opts.getBool("csv", false))
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        std::cout << "\n";
    }

    /** A headline value; only the document records it. */
    void
    field(const std::string &key, JsonScalar value)
    {
        if (json)
            report_.field(key, std::move(value));
    }

    /** Run @p study on the engine; timing telemetry goes to stderr. */
    StudyResult
    run(const Study &study)
    {
        StudyResult r = engine.run(study);
        double trials = 0.0;
        for (const auto &p : r.points)
            trials += p.timing.front().second;
        std::cerr << "[" << tierName(r.tier) << "] " << r.section << ": "
                  << r.points.size() << " point(s) x " << r.reps
                  << " rep(s) on " << engine.jobs()
                  << " job(s): " << r.wall_seconds << " s wall, "
                  << trials << " s in trials\n";
        if (json)
            report_.add(r);
        return r;
    }

    /** Print the document (--json) and pass @p code through. */
    int
    finish(int code = 0) const
    {
        if (json)
            report_.write(std::cout);
        return code;
    }

  private:
    Report report_;
};

/** True when the --section style @p list names @p name or "all". */
inline bool
selected(const std::vector<std::string> &list, const std::string &name)
{
    return std::find(list.begin(), list.end(), name) != list.end() ||
           std::find(list.begin(), list.end(), "all") != list.end();
}

/**
 * Report every point of a packet-tier study whose trials broke
 * conservation on stderr; returns the number of violating trials.
 */
inline long long
conservationViolations(const StudyResult &r)
{
    long long total = 0;
    for (const auto &p : r.points) {
        const long long v = std::llround(p.mean("conservation_violations"));
        if (v != 0)
            std::cerr << "[conservation] VIOLATION at " << p.label << " ("
                      << v << " trial(s))\n";
        total += v;
    }
    return total;
}

/**
 * Run the Figures 8-10 experiment shape: the packet-tier study
 * networks x traffic patterns x offered loads (--jobs threads), printed
 * as accepted load and average latency side by side per traffic
 * pattern.
 */
inline void
runPerfScenario(Bench &b, const std::string &section,
                const std::vector<Network> &nets,
                const std::vector<std::string> &traffics,
                const std::vector<double> &loads, const SimConfig &base,
                int repetitions)
{
    std::vector<Case> cases;
    for (const auto &tname : traffics)
        cases.push_back({tname, namedTraffic(tname)});
    const StudyResult result =
        b.run({section, Tier::kVct, crossPoints(nets, cases, loads, base),
               repetitions});

    for (std::size_t ti = 0; ti < traffics.size(); ++ti) {
        std::vector<std::string> headers{"offered"};
        for (const auto &n : nets) {
            headers.push_back("acc(" + n.label + ")");
            headers.push_back("lat(" + n.label + ")");
        }
        TablePrinter t(headers);
        for (std::size_t li = 0; li < loads.size(); ++li) {
            std::vector<std::string> row{TablePrinter::fmt(loads[li], 2)};
            for (std::size_t ni = 0; ni < nets.size(); ++ni) {
                const auto &p = result.points[gridIndex(
                    {nets.size(), traffics.size(), loads.size()},
                    {ni, ti, li})];
                row.push_back(TablePrinter::fmt(p.mean("accepted"), 3));
                row.push_back(TablePrinter::fmt(p.mean("avg_latency"), 1));
            }
            t.addRow(row);
        }
        b.emit("traffic: " + traffics[ti], t);
    }
}

} // namespace rfc

#endif // RFC_BENCH_COMMON_HPP
