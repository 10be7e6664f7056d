/**
 * @file
 * Extension: oblivious vs adaptive routing on the paper's scenarios.
 *
 * The paper's evaluation is entirely oblivious (minimal / up-down
 * random / Valiant).  With adaptive policies now first-class VctEngine
 * citizens (sim/core/policy_adaptive.hpp, policy_flowlet.hpp), this
 * bench reruns the two headline comparisons under both families:
 *
 *  1. Adversarial leaf-shift on CFT and RFC (the ext_adversarial
 *     scenario) with minimal, Valiant and UGAL routing side by side -
 *     the ExperimentGrid policy axis sweeps routing policies exactly
 *     like topologies.
 *  2. RFC vs Jellyfish-style RRN (the ext_jellyfish scenario) with the
 *     RRN under per-packet ECMP vs flowlet switching and the RFC under
 *     oblivious vs UGAL.
 *
 * Every trial is audited against the packet conservation identity
 * (exp/experiment.hpp conservationGap); any violation makes the run
 * exit nonzero.  Output on stdout is bit-identical at any --jobs /
 * --sim-jobs value for a fixed --shards, so the CI determinism job
 * can diff it directly.
 *
 * Flags: --smoke (tiny scale for CI), --json, --csv, --jobs, --shards,
 * --sim-jobs, --seed, --trials, plus the usual size overrides.
 */
#include <cstdlib>
#include <iostream>

#include "bench_common.hpp"
#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "sim/direct.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

/** Count of trials violating packet conservation (whole process). */
long long g_violations = 0;

void
auditPoints(const std::vector<PointResult> &points)
{
    for (const auto &p : points)
        if (p.conservation_violations != 0) {
            std::cerr << "[conservation] VIOLATION at " << p.label
                      << " (" << p.conservation_violations
                      << " trial(s))\n";
            g_violations += p.conservation_violations;
        }
}

void
auditDirect(const char *label, const SimResult &r)
{
    const long long gap = conservationGap(r);
    if (gap != 0) {
        std::cerr << "[conservation] VIOLATION at " << label
                  << " (gap " << gap << ")\n";
        ++g_violations;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const bool smoke = opts.getBool("smoke", false);
    const bool full = opts.fullScale();
    std::cout << "== Extension: oblivious vs adaptive routing ==\n"
              << (smoke ? "mode: SMOKE (CI-sized, conservation-audited)\n"
                  : full
                      ? "mode: FULL (paper-scale; may take a long time)\n"
                      : "mode: default (reduced scale; --full or "
                        "RFC_FULL=1 for paper scale)\n");
    Rng rng(opts.getInt("seed", 91));

    SimConfig base;
    base.warmup = opts.getInt("warmup", smoke ? 200 : full ? 2000 : 600);
    base.measure =
        opts.getInt("measure", smoke ? 500 : full ? 8000 : 2000);
    base.seed = opts.getInt("seed", 91);
    base.ugal_threshold = opts.getDouble("ugal-threshold", 1.0);
    base.flowlet_gap = opts.getInt("flowlet-gap", 64);
    // Intra-trial engine options: the shard count is part of the
    // experiment definition; the thread counts never change results.
    base.shards = static_cast<int>(opts.getInt("shards", base.shards));
    base.jobs = static_cast<int>(opts.getInt("sim-jobs", 1));

    // ---- scenario 1: adversarial shift, policy axis ----------------
    const int radix =
        static_cast<int>(opts.getInt("radix", smoke ? 8 : 12));
    auto cft = buildCft(radix, 3);
    auto built = buildRfc(radix, 3, cft.numLeaves(), rng);
    UpDownOracle o_cft(cft), o_rfc(built.topology);

    const int tpl = cft.terminalsPerLeaf();
    const long long stride = tpl;  // neighbor-leaf flood

    ExperimentGrid grid;
    grid.addNetwork("CFT", cft, o_cft);
    grid.addNetwork("RFC", built.topology, o_rfc);
    grid.addPolicy("minimal", ClosPolicy::kOblivious,
                   RouteMode::kMinimal);
    grid.addPolicy("valiant", ClosPolicy::kOblivious,
                   RouteMode::kValiant);
    grid.addPolicy("ugal", ClosPolicy::kAdaptiveUgal);
    grid.addTraffic("neighbor-shift", [stride]() {
        return std::make_unique<ShiftTraffic>(stride);
    });
    grid.addTraffic("uniform");
    grid.loads = {1.0};
    grid.base = base;
    grid.repetitions = static_cast<int>(opts.getInt("trials", 1));

    ExperimentEngine engine(opts.jobs(), base.seed);
    GridResult result = engine.run(grid);
    reportEngine(result, grid.numPoints(), grid.repetitions);
    auditPoints(result.points);

    const std::size_t n_tr = grid.traffics.size();
    const std::size_t n_pol = grid.policies.size();
    auto at = [&](std::size_t net, std::size_t pol, std::size_t tr)
        -> const PointResult & {
        return result.points[(net * n_pol + pol) * n_tr + tr];
    };

    if (opts.getBool("json", false)) {
        writeGridJson(std::cout, grid, result, base.seed);
        std::cout << "\n";
    } else {
        TablePrinter t({"network", "traffic", "thr(minimal)",
                        "lat(minimal)", "thr(valiant)", "lat(valiant)",
                        "thr(UGAL)", "lat(UGAL)"});
        const char *nets[] = {"CFT", "RFC"};
        const char *trs[] = {"neighbor-shift", "uniform"};
        for (std::size_t n = 0; n < 2; ++n)
            for (std::size_t tr = 0; tr < n_tr; ++tr)
                t.addRow({nets[n], trs[tr],
                          TablePrinter::fmt(at(n, 0, tr).accepted.mean, 3),
                          TablePrinter::fmt(at(n, 0, tr).avg_latency.mean, 1),
                          TablePrinter::fmt(at(n, 1, tr).accepted.mean, 3),
                          TablePrinter::fmt(at(n, 1, tr).avg_latency.mean, 1),
                          TablePrinter::fmt(at(n, 2, tr).accepted.mean, 3),
                          TablePrinter::fmt(at(n, 2, tr).avg_latency.mean, 1)});
        emit(opts, "saturation under neighbor-shift: policy sweep", t);
    }

    // The acceptance headline: UGAL vs minimal on the adversarial
    // pattern, per network.  Positive = adaptive wins throughput.
    for (std::size_t n = 0; n < 2; ++n) {
        const double thr_min = at(n, 0, 0).accepted.mean;
        const double thr_ugal = at(n, 2, 0).accepted.mean;
        const double rel =
            thr_min > 0.0 ? (thr_ugal - thr_min) / thr_min * 100.0 : 0.0;
        std::cout << "[adaptive-delta] " << (n == 0 ? "CFT" : "RFC")
                  << " neighbor-shift: minimal "
                  << TablePrinter::fmt(thr_min, 3) << ", ugal "
                  << TablePrinter::fmt(thr_ugal, 3) << " ("
                  << (rel >= 0 ? "+" : "") << TablePrinter::fmt(rel, 1)
                  << "%)\n";
    }

    // ---- scenario 2: RRN per-packet ECMP vs flowlet switching ------
    const int delta = static_cast<int>(opts.getInt("degree", smoke ? 5 : 9));
    const int hosts =
        static_cast<int>(opts.getInt("hosts", smoke ? 3 : 3));
    int rrn_switches = static_cast<int>(
        opts.getInt("rrn-switches", smoke ? 40 : 340));
    if ((static_cast<long long>(rrn_switches) * delta) % 2)
        ++rrn_switches;
    Graph rrn = randomRegularGraph(rrn_switches, delta, rng);
    KspRoutes routes(rrn, static_cast<int>(opts.getInt("k", 4)));

    SimConfig dcfg = base;
    dcfg.vcs = std::max(4, routes.maxHops());
    auto loads = loadRange(0.2, 1.0, smoke ? 2 : 5);

    TablePrinter d({"offered", "acc(RRN-ecmp)", "lat(RRN-ecmp)",
                    "acc(RRN-flowlet)", "lat(RRN-flowlet)"});
    for (double load : loads) {
        SimConfig cfg = dcfg;
        cfg.load = load;
        auto tr1 = makeTraffic("uniform");
        DirectSimulator ecmp_sim(rrn, routes, hosts, *tr1, cfg,
                                 PathPolicy::kShortestEcmp);
        auto r1 = ecmp_sim.run();
        auditDirect("RRN-ecmp", r1);
        auto tr2 = makeTraffic("uniform");
        DirectSimulator flowlet_sim(rrn, routes, hosts, *tr2, cfg,
                                    PathPolicy::kFlowletEcmp);
        auto r2 = flowlet_sim.run();
        auditDirect("RRN-flowlet", r2);
        d.addRow({TablePrinter::fmt(load, 2),
                  TablePrinter::fmt(r1.accepted, 3),
                  TablePrinter::fmt(r1.avg_latency, 1),
                  TablePrinter::fmt(r2.accepted, 3),
                  TablePrinter::fmt(r2.avg_latency, 1)});
    }
    emit(opts, "RRN uniform: per-packet ECMP vs flowlet switching", d);

    if (g_violations != 0) {
        std::cerr << "[conservation] " << g_violations
                  << " violating trial(s); failing the run\n";
        return 1;
    }
    std::cout << "UGAL routes minimally until the minimal queues back "
                 "up, then detours like\nValiant - matching minimal on "
                 "benign traffic and Valiant on adversarial,\nwithout "
                 "choosing in advance.  Flowlet switching keeps ECMP's "
                 "load spreading\nwhile pinning bursts to one path.\n";
    return 0;
}
