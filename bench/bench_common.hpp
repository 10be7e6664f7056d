/**
 * @file
 * Shared harness of the per-figure/per-table benchmark binaries.
 *
 * Every bench binary prints the series of one paper artifact.  Each
 * bench names its own flags when it constructs its Bench; any other
 * flag stops it, before it builds anything, with a message listing
 * the valid ones (util/options.hpp).
 *
 * Run scale: a bench that lists "smoke" and/or "full" among its flags
 * has a Scale, read once here.  --smoke is the CI-sized run, --full
 * the paper-scale configuration and neither the default; a bench
 * without --full runs the paper shapes by default.  --smoke with
 * --full stops the run.  Every other bench has no scale and accepts
 * neither flag.
 *
 * Output and execution flags (added by Bench, read here / by
 * util/options):
 *   --csv      print tables as CSV instead of aligned columns
 *   --json     print exactly one JSON document on stdout instead
 *              (exp/experiment.hpp Report): every study section with
 *              per-point metrics and spread, every table, headline
 *              fields, and the run-dependent values (wall clock, jobs,
 *              peak RSS) only inside "timing" objects; banners,
 *              headings and prose go to stderr
 *   --jobs N   worker threads for the experiment engine (default:
 *              hardware concurrency).  Results are
 *              bit-identical for any N: seeds derive from
 *              {base seed, study point, rep}, never from thread order.
 *              Each simulation runs on one thread; --jobs is the only
 *              parallelism lever.
 *
 * Benches declare their studies (points x reps at one fidelity tier)
 * and hand them to Bench::run rather than looping; see runPerfScenario
 * below for the Figures 8-10 shape.  Bench::run totals the audit
 * failures of every packet (kVct) study, open- or closed-loop, and
 * Bench::finish exits 1 after any, so no bench repeats that check.
 *
 * The paper's fixed comparisons are defined once, below: every bench
 * that runs the equal-resources (Fig 8), 100K (Fig 9), 200K (Fig 10)
 * or 1M shape builds it through the Scenario builders, and every RFC
 * they build goes through routableRfc, which throws rather than run a
 * comparison on an RFC without up/down routes.
 */
#ifndef RFC_BENCH_COMMON_HPP
#define RFC_BENCH_COMMON_HPP

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "clos/fat_tree.hpp"
#include "clos/folded_clos.hpp"
#include "clos/rfc.hpp"
#include "exp/experiment.hpp"
#include "routing/updown.hpp"
#include "sim/traffic.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace rfc {

/** A bench's run scale: --smoke, neither flag, or --full. */
enum class Scale { kSmoke, kDefault, kFull };

/** "smoke", "default" or "full". */
inline const char *
scaleName(Scale s)
{
    switch (s) {
    case Scale::kSmoke:
        return "smoke";
    case Scale::kDefault:
        return "default";
    case Scale::kFull:
        return "full";
    }
    return "?";
}

/**
 * One bench process: its options, its experiment engine and its one
 * output.  In text mode (the default, or --csv) everything prints on
 * stdout as it comes.  With --json, studies, tables and headline fields
 * are collected and finish() prints them as one document.
 */
class Bench
{
  public:
    /**
     * @p flags are the bench's own flags, "smoke" and "full" among
     * them when it has those scales; --seed --jobs --json --csv are
     * added to them.  Throws std::invalid_argument, naming both flags,
     * on --smoke with --full or --csv with --json.
     */
    Bench(int argc, const char *const *argv, std::string name,
          std::uint64_t default_seed, std::vector<std::string> flags)
        : opts(argc, argv, withSharedFlags(std::move(flags))),
          scale(readScale(opts)),
          json(readJson(opts)),
          seed(static_cast<std::uint64_t>(opts.getInt(
              "seed", static_cast<std::int64_t>(default_seed)))),
          engine(opts.jobs(), seed),
          report_(std::move(name), seed, engine.jobs())
    {
        if (scale)
            report_.meta("scale", scaleName(*scale));
    }

    const Options opts;
    /** The run scale; empty when the bench declares neither flag. */
    const std::optional<Scale> scale;
    const bool json;
    const std::uint64_t seed;  //!< --seed, else the bench's default
    const ExperimentEngine engine;

    /** Prose and headings: stdout, or stderr under --json. */
    std::ostream &text() const { return json ? std::cerr : std::cout; }

    /**
     * Banner naming the artifact, then, on a bench with a scale, a
     * mode line naming it and the scale flags the bench accepts.
     */
    void
    banner(const std::string &what) const
    {
        text() << "== " << what << " ==\n";
        if (!scale)
            return;
        if (*scale == Scale::kFull) {
            text() << "mode: FULL (paper-scale; may take a long time)\n";
            return;
        }
        const bool full = opts.declares("full");
        std::string line = *scale == Scale::kSmoke ? "mode: smoke (CI scale"
                           : full ? "mode: default (reduced scale"
                                  : "mode: default (paper shapes";
        std::string sep = "; ";
        if (*scale == Scale::kDefault && opts.declares("smoke")) {
            line += sep + "--smoke for CI scale";
            sep = ", ";
        }
        if (full)
            line += sep + "--full for paper scale";
        text() << line << ")\n";
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

    /**
     * Run @p study on the engine; timing telemetry goes to stderr.  A
     * packet study's audit failures are named there and counted for
     * finish().
     */
    StudyResult
    run(const Study &study)
    {
        StudyResult r = engine.run(study);
        if (r.tier == Tier::kVct)
            violations_ += conservationViolations(r);
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

    /**
     * Print the document (--json) and return @p code, or 1 when it is 0
     * and a study run() ran failed the packet audit.
     */
    int
    finish(int code = 0) const
    {
        if (json)
            report_.write(std::cout);
        if (violations_ == 0)
            return code;
        std::cerr << "[conservation] " << violations_
                  << " trial(s) failed the packet audit; failing the run\n";
        return code != 0 ? code : 1;
    }

  private:
    static std::vector<std::string>
    withSharedFlags(std::vector<std::string> flags)
    {
        flags.insert(flags.end(), {"seed", "jobs", "json", "csv"});
        return flags;
    }

    static std::optional<Scale>
    readScale(const Options &opts)
    {
        if (!opts.declares("smoke") && !opts.declares("full"))
            return std::nullopt;
        auto given = [&](const char *flag) {
            return opts.declares(flag) && opts.getBool(flag, false);
        };
        const bool smoke = given("smoke"), full = given("full");
        if (smoke && full)
            throw std::invalid_argument(
                "--smoke and --full are different scales: give at most "
                "one of them");
        return smoke ? Scale::kSmoke : full ? Scale::kFull : Scale::kDefault;
    }

    static bool
    readJson(const Options &opts)
    {
        const bool json = opts.getBool("json", false);
        if (json && opts.getBool("csv", false))
            throw std::invalid_argument(
                "--csv and --json are different output formats: give at "
                "most one of them");
        return json;
    }

    Report report_;
    long long violations_ = 0;
};

/** True when the --section style @p list names @p name or "all". */
inline bool
selected(const std::vector<std::string> &list, const std::string &name)
{
    return std::find(list.begin(), list.end(), name) != list.end() ||
           std::find(list.begin(), list.end(), "all") != list.end();
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

/** One flow- or queue-tier Case per makeDemandMatrix pattern name. */
inline std::vector<Case>
patternCases(const std::vector<std::string> &patterns)
{
    std::vector<Case> cases;
    for (const auto &pat : patterns) {
        Case c;
        c.label = c.pattern = pat;
        cases.push_back(c);
    }
    return cases;
}

/**
 * buildRfc with its default attempt cap, for benches that compare an
 * RFC against something: an RFC without up/down routes would count
 * its unroutable pairs' packets as lost and bias every column.
 * @throws std::runtime_error naming R, l, N1 and the attempts when no
 *         generated wiring admits up/down routing.
 */
inline RfcBuildResult
routableRfc(int radix, int levels, int n1, Rng &rng)
{
    RfcBuildResult built = buildRfc(radix, levels, n1, rng);
    if (!built.routable)
        throw std::runtime_error(
            "RFC(R=" + std::to_string(radix) + ", l=" +
            std::to_string(levels) + ", N1=" + std::to_string(n1) +
            ") has no up/down routable wiring in " +
            std::to_string(built.attempts) + " attempts");
    return built;
}

/**
 * One paper comparison: the topologies and oracles it owns and the
 * labelled networks pointing into them.  Each topology and oracle has
 * its own heap slot, so the Network pointers survive add() and moves;
 * unique_ptr also makes the Scenario move-only, as a copy would point
 * into the original.
 */
class Scenario
{
  public:
    /** The networks, in the order and under the labels benches print. */
    const std::vector<Network> &networks() const { return nets_; }
    const FoldedClos &topology(std::size_t i) const
    {
        return *nets_[i].topology;
    }
    /** Generations the last addRfc needed (>= 1). */
    int rfcAttempts() const { return rfc_attempts_; }

    /** Own @p fc, build its oracle and list it as @p label. */
    void
    add(std::string label, FoldedClos fc)
    {
        const auto &t = topologies_.emplace_back(
            std::make_unique<const FoldedClos>(std::move(fc)));
        const auto &o =
            oracles_.emplace_back(std::make_unique<const UpDownOracle>(*t));
        nets_.push_back({std::move(label), t.get(), o.get()});
    }

    /** add() a routableRfc(R, l, N1). */
    void
    addRfc(std::string label, int radix, int levels, int n1, Rng &rng)
    {
        RfcBuildResult built = routableRfc(radix, levels, n1, rng);
        rfc_attempts_ = built.attempts;
        add(std::move(label), std::move(built.topology));
    }

  private:
    std::vector<std::unique_ptr<const FoldedClos>> topologies_;
    std::vector<std::unique_ptr<const UpDownOracle>> oracles_;
    std::vector<Network> nets_;
    int rfc_attempts_ = 0;
};

/** Leaves of an R-radix RFC carrying @p terminals, raised to even. */
inline int
rfcLeavesFor(long long terminals, int radix)
{
    const auto n1 = static_cast<int>(terminals / (radix / 2));
    return n1 % 2 ? n1 + 1 : n1;
}

/**
 * Figure 8 at equal resources: "CFT" is CFT(R, 3) and "RFC" the
 * RFC(R, 3) at the CFT's leaf count.
 */
inline Scenario
equalResources(int radix, Rng &rng)
{
    Scenario s;
    s.add("CFT", buildCft(radix, 3));
    s.addRfc("RFC", radix, 3, s.topology(0).numLeaves(), rng);
    return s;
}

/**
 * Figure 8's radix-reduced variant: "RFC-r<R'>", a 3-level RFC of
 * radix R' carrying about the first network's terminal count.
 */
inline void
addReducedRadixRfc(Scenario &s, int small_radix, Rng &rng)
{
    s.addRfc("RFC-r" + std::to_string(small_radix), small_radix, 3,
             rfcLeavesFor(s.topology(0).numTerminals(), small_radix), rng);
}

/**
 * Figure 9 (100K): "CFT4" is CFT(R_cft, 4), "CFT4-half" the same CFT
 * with half its roots pruned (Section 5's partially equipped CFT), and
 * "RFC3" the RFC(R_rfc, 3) with @p n1 leaves.
 */
inline Scenario
fig9Triple(int cft_radix, int rfc_radix, int n1, Rng &rng)
{
    Scenario s;
    s.add("CFT4", buildCft(cft_radix, 4));
    s.add("CFT4-half",
          buildPrunedCft(cft_radix, 4, s.topology(0).switchesAtLevel(4) / 2));
    s.addRfc("RFC3", rfc_radix, 3, n1, rng);
    return s;
}

/**
 * Figure 10 (200K): "CFT4" is CFT(R, 4) and "RFC3" the largest RFC(R, 3)
 * Theorem 4.2 admits, N1 = rfcMaxLeaves(R, 3).
 */
inline Scenario
fig10Pair(int radix, Rng &rng)
{
    Scenario s;
    s.add("CFT4", buildCft(radix, 4));
    s.addRfc("RFC3", radix, 3, rfcMaxLeaves(radix, 3), rng);
    return s;
}

/**
 * The 1M point: "CFT<l>" is CFT(R, l) and "RFC3" the RFC(R, 3)
 * carrying the same terminal count, one level shorter when l = 4.
 */
inline Scenario
sameTerminals(int radix, int cft_levels, Rng &rng)
{
    Scenario s;
    s.add("CFT" + std::to_string(cft_levels), buildCft(radix, cft_levels));
    s.addRfc("RFC3", radix, 3,
             rfcLeavesFor(s.topology(0).numTerminals(), radix), rng);
    return s;
}

} // namespace rfc

#endif // RFC_BENCH_COMMON_HPP
