/**
 * @file
 * Extension: oblivious vs adaptive routing on the paper's scenarios.
 *
 * The paper's evaluation is entirely oblivious (minimal / up-down
 * random / Valiant).  UGAL is one more RouteMode of the up/down policy
 * and flowlet switching one more PathPolicy of the k-shortest-path
 * policy, so this bench reruns the two headline comparisons under both
 * oblivious and adaptive routing:
 *
 *  1. Adversarial leaf-shift on CFT and RFC (the ext_adversarial
 *     scenario) with minimal, Valiant and UGAL routing side by side -
 *     the study's case axis crosses route modes with traffic patterns,
 *     so route modes sweep exactly like topologies.
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
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

/** Count of trials violating packet conservation (whole process). */
long long g_violations = 0;

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
    Bench b(argc, argv, "ext_adaptive_routing", 91);
    const bool smoke = b.opts.getBool("smoke", false);
    const bool full = b.opts.fullScale();
    b.banner("Extension: oblivious vs adaptive routing",
             smoke ? "mode: SMOKE (CI-sized, conservation-audited)" : "");
    Rng rng(b.seed);

    SimConfig base;
    base.warmup =
        b.opts.getInt("warmup", smoke ? 200 : full ? 2000 : 600);
    base.measure =
        b.opts.getInt("measure", smoke ? 500 : full ? 8000 : 2000);
    base.seed = b.seed;
    base.ugal_threshold = b.opts.getDouble("ugal-threshold", 1.0);
    base.flowlet_gap = b.opts.getInt("flowlet-gap", 64);
    // Intra-trial engine options: the shard count is part of the
    // experiment definition; the thread counts never change results.
    base.shards = static_cast<int>(b.opts.getInt("shards", base.shards));
    base.jobs = static_cast<int>(b.opts.getInt("sim-jobs", 1));

    // ---- scenario 1: adversarial shift, policy axis ----------------
    const int radix =
        static_cast<int>(b.opts.getInt("radix", smoke ? 8 : 12));
    auto cft = buildCft(radix, 3);
    auto built = buildRfc(radix, 3, cft.numLeaves(), rng);
    UpDownOracle o_cft(cft), o_rfc(built.topology);

    const int tpl = cft.terminalsPerLeaf();
    const long long stride = tpl;  // neighbor-leaf flood

    // Cases: route mode x traffic, so points are network x mode x
    // traffic.
    const Case policies[] = {
        {.label = "minimal", .route_mode = RouteMode::kMinimal},
        {.label = "valiant", .route_mode = RouteMode::kValiant},
        {.label = "ugal", .route_mode = RouteMode::kUgal},
    };
    const std::pair<const char *, TrafficFactory> traffics[] = {
        {"neighbor-shift",
         [stride]() { return std::make_unique<ShiftTraffic>(stride); }},
        {"uniform", namedTraffic("uniform")},
    };
    std::vector<Case> cases;
    for (const Case &pol : policies)
        for (const auto &[name, make] : traffics) {
            Case c = pol;
            c.label = pol.label + "/" + name;
            c.traffic = make;
            cases.push_back(std::move(c));
        }
    const std::vector<Network> nets{{"CFT", &cft, &o_cft},
                                    {"RFC", &built.topology, &o_rfc}};
    const StudyResult result = b.run(
        {"policy-sweep", Tier::kVct, crossPoints(nets, cases, {1.0}, base),
         static_cast<int>(b.opts.getInt("trials", 1))});
    g_violations += conservationViolations(result);

    auto at = [&](std::size_t net, std::size_t pol, std::size_t tr)
        -> const PointResult & {
        return result.points[gridIndex(
            {nets.size(), std::size(policies), std::size(traffics)},
            {net, pol, tr})];
    };

    TablePrinter t({"network", "traffic", "thr(minimal)", "lat(minimal)",
                    "thr(valiant)", "lat(valiant)", "thr(UGAL)",
                    "lat(UGAL)"});
    for (std::size_t n = 0; n < nets.size(); ++n)
        for (std::size_t tr = 0; tr < std::size(traffics); ++tr) {
            std::vector<std::string> row{nets[n].label, traffics[tr].first};
            for (std::size_t pol = 0; pol < std::size(policies); ++pol) {
                row.push_back(
                    TablePrinter::fmt(at(n, pol, tr).mean("accepted"), 3));
                row.push_back(TablePrinter::fmt(
                    at(n, pol, tr).mean("avg_latency"), 1));
            }
            t.addRow(row);
        }
    b.emit("saturation under neighbor-shift: policy sweep", t);

    // The acceptance headline: UGAL vs minimal on the adversarial
    // pattern, per network.  Positive = adaptive wins throughput.
    for (std::size_t n = 0; n < nets.size(); ++n) {
        const double thr_min = at(n, 0, 0).mean("accepted");
        const double thr_ugal = at(n, 2, 0).mean("accepted");
        const double rel =
            thr_min > 0.0 ? (thr_ugal - thr_min) / thr_min * 100.0 : 0.0;
        b.text() << "[adaptive-delta] " << nets[n].label
                 << " neighbor-shift: minimal "
                 << TablePrinter::fmt(thr_min, 3) << ", ugal "
                 << TablePrinter::fmt(thr_ugal, 3) << " ("
                 << (rel >= 0 ? "+" : "") << TablePrinter::fmt(rel, 1)
                 << "%)\n";
        b.field("ugal_vs_minimal_pct." + nets[n].label, rel);
    }

    // ---- scenario 2: RRN per-packet ECMP vs flowlet switching ------
    const int delta =
        static_cast<int>(b.opts.getInt("degree", smoke ? 5 : 9));
    const int hosts =
        static_cast<int>(b.opts.getInt("hosts", smoke ? 3 : 3));
    int rrn_switches = static_cast<int>(
        b.opts.getInt("rrn-switches", smoke ? 40 : 340));
    if ((static_cast<long long>(rrn_switches) * delta) % 2)
        ++rrn_switches;
    Graph rrn = randomRegularGraph(rrn_switches, delta, rng);
    KspRoutes routes(rrn, static_cast<int>(b.opts.getInt("k", 4)));

    SimConfig dcfg = base;
    dcfg.vcs = std::max(4, routes.maxHops());
    auto loads = loadRange(0.2, 1.0, smoke ? 2 : 5);

    TablePrinter d({"offered", "acc(RRN-ecmp)", "lat(RRN-ecmp)",
                    "acc(RRN-flowlet)", "lat(RRN-flowlet)"});
    for (double load : loads) {
        SimConfig cfg = dcfg;
        cfg.load = load;
        auto tr1 = makeTraffic("uniform");
        Simulator ecmp_sim(rrn, routes, hosts, *tr1, cfg,
                           PathPolicy::kShortestEcmp);
        auto r1 = ecmp_sim.run();
        auditDirect("RRN-ecmp", r1);
        auto tr2 = makeTraffic("uniform");
        Simulator flowlet_sim(rrn, routes, hosts, *tr2, cfg,
                              PathPolicy::kFlowletEcmp);
        auto r2 = flowlet_sim.run();
        auditDirect("RRN-flowlet", r2);
        d.addRow({TablePrinter::fmt(load, 2),
                  TablePrinter::fmt(r1.accepted, 3),
                  TablePrinter::fmt(r1.avg_latency, 1),
                  TablePrinter::fmt(r2.accepted, 3),
                  TablePrinter::fmt(r2.avg_latency, 1)});
    }
    b.emit("RRN uniform: per-packet ECMP vs flowlet switching", d);

    if (g_violations != 0) {
        std::cerr << "[conservation] " << g_violations
                  << " violating trial(s); failing the run\n";
        return b.finish(1);
    }
    b.text() << "UGAL routes minimally until the minimal queues back "
                "up, then detours like\nValiant - matching minimal on "
                "benign traffic and Valiant on adversarial,\nwithout "
                "choosing in advance.  Flowlet switching keeps ECMP's "
                "load spreading\nwhile pinning bursts to one path.\n";
    return b.finish();
}
