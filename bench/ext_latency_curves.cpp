/**
 * @file
 * Extension: CFT-vs-RFC latency-vs-load curves from the queue-model
 * engine (src/queue), the third engine tier.
 *
 * The paper's Figures 8-12 report saturation points; an operator tunes
 * against the latency *curve* below saturation, which so far only the
 * cycle-accurate VCT engine could produce - at a cost that rules out
 * the million-terminal tier.  This bench runs the analytic per-port
 * queueing sweep (M/D/1 contention by default, see DESIGN.md 4.12) at
 * three scales:
 *
 *  - `fig8`: the 11K equal-resources shape (3-level CFT vs RFC) - the
 *    configuration the model is cross-validated against VCT on in
 *    tests/test_queue_validation;
 *  - `fig10`: the 200K shape (4-level CFT vs the largest routable
 *    3-level RFC);
 *  - `1m`: the fig_perf_1M flow point (R=54, 4-level CFT vs 3-level
 *    RFC at 1,062,882 terminals) - latency curves at a scale where a
 *    VCT sweep is simply not runnable.
 *
 * `--smoke` shrinks every section to seconds and appends a self-check:
 * it runs the VCT engine over the same loads on the fig8 smoke
 * networks and fails (exit 1) unless the queue sweep was at least 10x
 * faster - the acceptance criterion of the queue tier, continuously
 * enforced in the CI bench-smoke job.  Measured speedups are recorded
 * in EXPERIMENTS.md.
 *
 * Other knobs: --section=fig8,fig10,1m, --loads (comma list),
 * --patterns, --samples, --max-paths, --model (mm1|md1|mg1), --cv2
 * (service cv^2 of mg1; any other value with mm1 or md1 is an error),
 * --pkt-phits, --link-latency, --seed, --jobs, --json.  Output is
 * bit-identical at any --jobs value; timing goes to stderr (or the
 * JSON timing blocks, filtered by the CI determinism diff).
 */
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

/**
 * Run one section on the queue tier (networks x patterns x loads) and
 * print a curve table per demand pattern; returns the study's wall
 * clock.
 */
double
runSection(Bench &b, Study study, const std::string &heading,
           const std::vector<Network> &nets,
           const std::vector<std::string> &patterns,
           const std::vector<double> &loads, const SimConfig &base)
{
    study.points = crossPoints(nets, patternCases(patterns), loads, base);
    const StudyResult result = b.run(study);

    b.text() << "## " << heading << "\n";
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
        TablePrinter t({"network", "load", "mean", "p50", "p99",
                        "max_util", "sat"});
        auto at = [&](std::size_t ni, std::size_t li) -> const auto & {
            return result.points[gridIndex(
                {nets.size(), patterns.size(), loads.size()},
                {ni, pi, li})];
        };
        for (std::size_t ni = 0; ni < nets.size(); ++ni)
            for (std::size_t li = 0; li < loads.size(); ++li) {
                const PointResult &p = at(ni, li);
                const bool sat = p.mean("saturated") != 0.0;
                auto latency = [&](const char *name) {
                    return sat ? "-" : TablePrinter::fmt(p.mean(name), 1);
                };
                t.addRow({p.network, TablePrinter::fmt(p.load, 2),
                          latency("mean_latency"), latency("p50_latency"),
                          latency("p99_latency"),
                          TablePrinter::fmt(p.mean("max_utilization"), 2),
                          sat ? "yes" : "no"});
            }
        b.emit("pattern: " + patterns[pi] + " (fluid saturation " +
                   TablePrinter::fmt(at(0, 0).mean("saturation"), 3) +
                   " for " + nets[0].label + ")",
               t);
    }
    return result.wall_seconds;
}

/**
 * Smoke self-check: the queue sweep must beat a VCT sweep over the
 * same networks and loads by >= 10x (the tier's reason to exist), and
 * that VCT sweep must pass the packet audit like every packet run.
 */
bool
selfCheck(const Bench &b, double queue_seconds,
          const std::vector<Network> &nets, const std::vector<double> &loads)
{
    // Validation-grade cycle counts (test_queue_validation uses the
    // same): an "equivalent" VCT sweep is one whose latency estimates
    // are actually converged, not a token run.
    SimConfig base;
    base.warmup = 1000;
    base.measure = 5000;
    const StudyResult vct = b.engine.run(
        {"self-check", Tier::kVct,
         crossPoints(nets, {{"uniform", namedTraffic("uniform")}}, loads,
                     base)});
    const double vct_seconds = vct.wall_seconds;
    bool ok = conservationViolations(vct) == 0;

    double ratio = queue_seconds > 0.0 ? vct_seconds / queue_seconds
                                       : 1e9;
    std::cerr << "[self-check] VCT sweep " << vct_seconds
              << " s vs queue sweep " << queue_seconds << " s: "
              << ratio << "x\n";
    if (vct_seconds < 10.0 * queue_seconds) {
        std::cerr << "[self-check] FAILED: queue sweep less than 10x "
                     "faster than VCT\n";
        ok = false;
    }
    return ok;
}

} // namespace

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "ext_latency_curves", 21,
            {"smoke", "section", "patterns", "loads", "max-paths", "samples",
             "model", "cv2", "pkt-phits", "link-latency"});
    const bool smoke = b.scale == Scale::kSmoke;
    b.banner("Latency-vs-load curves from the queue-model engine (CFT vs "
             "RFC)");
    const std::uint64_t seed = b.seed;
    const auto sections = b.opts.getList("section", "fig8,fig10,1m",
                                         {"fig8", "fig10", "1m", "all"});

    const auto patterns = b.opts.getList("patterns", "uniform");
    const auto loads = b.opts.getDoubleList(
        "loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9");
    Study proto{.tier = Tier::kQueue};
    proto.max_paths = b.opts.getIntAtLeast("max-paths", smoke ? 8 : 16, 1);
    proto.uniform_samples = b.opts.getIntAtLeast("samples", smoke ? 2 : 4, 0);
    proto.model = b.opts.get("model", "md1");
    proto.mg1_cv2 = b.opts.getDouble("cv2", 0.0);
    // The queue model's service time and hop latency.
    SimConfig base;
    base.pkt_phits = b.opts.getIntAtLeast("pkt-phits", 16, 1);
    base.link_latency =
        b.opts.getIntAtLeast("link-latency", 1, 1);
    auto section = [&](const char *name) {
        Study s = proto;
        s.section = name;
        return s;
    };

    // Per-section rng streams (fig_perf_1M convention): running one
    // section alone builds the same wirings as the full run.
    Rng fig8_rng(seed);
    Rng fig10_rng(deriveSeed(seed, 1, 0));
    Rng m1_rng(deriveSeed(seed, 2, 0));
    bool ok = true;

    if (selected(sections, "fig8")) {
        // Figure 8 shape: 3-level CFT vs the equal-resources RFC.
        // This is the configuration test_queue_validation pins the
        // model against VCT on (radix 8 there and under --smoke).
        const Scenario sc = equalResources(smoke ? 8 : 36, fig8_rng);
        double queue_seconds = runSection(
            b, section("fig8"),
            "Fig 8 shape (" +
                std::to_string(sc.topology(0).numTerminals()) +
                " terminals, equal resources, 3 levels)",
            sc.networks(), patterns, loads, base);

        if (smoke)
            ok = selfCheck(b, queue_seconds, sc.networks(), loads) && ok;
    }

    if (selected(sections, "fig10")) {
        // Figure 10 shape: 4-level CFT vs the largest routable
        // 3-level RFC.
        const Scenario sc = fig10Pair(smoke ? 8 : 36, fig10_rng);
        runSection(b, section("fig10"),
                   "Fig 10 shape (" +
                       std::to_string(sc.topology(0).numTerminals()) +
                       "-terminal CFT4 vs max RFC3)",
                   sc.networks(), patterns, loads, base);
    }

    if (selected(sections, "1m")) {
        // The fig_perf_1M flow point: same terminal count, RFC one
        // level shorter.  Smoke keeps both at 3 levels (radix 8);
        // full is R=54 - 1,062,882 terminals each.
        const Scenario sc =
            sameTerminals(smoke ? 8 : 54, smoke ? 3 : 4, m1_rng);
        std::cerr << "[build] topologies + oracles ready, peak RSS "
                  << static_cast<double>(peakRssBytes()) /
                         (1024.0 * 1024.0)
                  << " MiB\n";

        Study study = section("1m");
        study.max_paths = b.opts.getIntAtLeast("max-paths", smoke ? 8 : 4, 1);
        study.uniform_samples =
            b.opts.getIntAtLeast("samples", smoke ? 2 : 1, 0);
        runSection(b, study,
                   std::to_string(sc.topology(0).numTerminals()) +
                       "-terminal latency curves (CFT vs RFC)",
                   sc.networks(), patterns, loads, base);
    }

    return b.finish(ok ? 0 : 1);
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
