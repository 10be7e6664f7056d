/**
 * @file
 * Extension: live expansion drill - grow the network while packets fly.
 *
 * Section 5 argues RFCs expand in O(R*l) rewires where a classic
 * fat-tree needs a forklift.  This bench turns that static argument
 * into a service-continuity experiment: each upgrade runs as a
 * TopologyTimeline against the union fabric (base plus staged links)
 * with traffic flowing, the up/down oracle extending incrementally at
 * every change barrier, and head packets that lose their route falling
 * into the bounded retry/TTL degradation path.  New terminals start
 * injecting only after their activation barrier.
 *
 * Columns compared at equal capacity growth (+R terminals per step):
 *
 *  - RFC@expand    staged minimal strong expansion (ExpansionPlan),
 *                  2R links rewired per step, spread over the run.
 *  - CFT@forklift  morph the CFT into the expanded RFC wiring in one
 *                  barrier - nearly every wire detaches (planMorph).
 *  - CFT@plane-add the no-rewire upgrade CFTs do support: a racked but
 *                  unwired root plane cables in (attach-only, so the
 *                  drill shows zero disruption and no dip).
 *  - RRN@incremental  flat random regular network grown offline by
 *                  Jellyfish-style edge surgery (R/2 rewires per step,
 *                  regularity re-verified); cost row only, no sim.
 *
 * Reported per strategy: terminals added, links detached/attached,
 * accepted throughput over the window, TTL drops, route-less retry
 * cycles, packets in flight at change barriers, throughput dip vs the
 * pre-change baseline and time to re-converge (computeRecovery over
 * the delivered-per-bin telemetry).  Any packet-conservation violation
 * makes the process exit nonzero.  Output is bit-identical at any
 * --jobs / --sim-jobs value for a fixed shard count.
 *
 * Scale flags: --smoke (CI seconds), default (sandbox), --full
 * (paper-scale R = 36).  --json emits the point aggregates.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "bench_common.hpp"
#include "clos/expansion.hpp"
#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "graph/graph.hpp"
#include "graph/random_regular.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

/**
 * The CFT with its last root plane racked but unwired: same switch
 * counts as the full CFT, minus every link into a plane-(m-1) root.
 * planMorph(partial, full) is then attach-only - the one upgrade shape
 * a fat-tree supports without touching installed cables.
 */
FoldedClos
cftMinusLastPlane(const FoldedClos &cft, int radix)
{
    const int m = radix / 2;
    std::vector<int> counts;
    counts.reserve(static_cast<std::size_t>(cft.levels()));
    for (int lv = 1; lv <= cft.levels(); ++lv)
        counts.push_back(cft.switchesAtLevel(lv));
    FoldedClos out(counts, radix, m, "CFT minus last root plane");
    const int root_base = cft.levelOffset(cft.levels());
    for (int s = 0; s < root_base; ++s)
        for (int p : cft.up(s))
            if (p < root_base || (p - root_base) % m != m - 1)
                out.addLink(s, p);
    return out;
}

/**
 * Offline Jellyfish-style growth of a flat random regular network:
 * per new switch, steal d/2 random existing edges (u,v) with disjoint
 * endpoints and reconnect both ends to the newcomer - every old degree
 * is preserved and the new switch arrives with degree d.  Returns the
 * number of edges stolen; throws if regularity ever breaks.
 */
long long
rrnIncrementalGrow(Graph &g, int add_switches, int d, Rng &rng)
{
    long long stolen_total = 0;
    for (int a = 0; a < add_switches; ++a) {
        const auto ev = g.edges();
        const int nv = g.numVertices();
        std::vector<std::pair<int, int>> stolen;
        std::vector<char> used(static_cast<std::size_t>(nv), 0);
        int guard = 0;
        while (static_cast<int>(stolen.size()) < d / 2) {
            if (++guard > 1000000)
                throw std::runtime_error(
                    "RRN surgery: no disjoint edge set found");
            const auto &e = ev[rng.uniform(ev.size())];
            if (used[static_cast<std::size_t>(e.first)] ||
                used[static_cast<std::size_t>(e.second)])
                continue;
            used[static_cast<std::size_t>(e.first)] = 1;
            used[static_cast<std::size_t>(e.second)] = 1;
            stolen.push_back(e);
        }
        Graph h(nv + 1);
        for (const auto &e : ev)
            if (std::find(stolen.begin(), stolen.end(), e) ==
                stolen.end())
                h.addEdge(e.first, e.second);
        for (const auto &e : stolen) {
            h.addEdge(e.first, nv);
            h.addEdge(e.second, nv);
        }
        if (!h.isRegular(d))
            throw std::logic_error(
                "RRN incremental surgery broke d-regularity");
        g = std::move(h);
        stolen_total += d / 2;
    }
    return stolen_total;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    banner(opts, "Extension: live expansion drill (grow under traffic)");
    const bool full = opts.fullScale();
    const bool smoke = opts.getBool("smoke", false);
    const int radix = static_cast<int>(
        opts.getInt("radix", full ? 36 : (smoke ? 8 : 12)));
    const std::uint64_t seed = opts.getInt("seed", 17);
    const int steps = static_cast<int>(
        opts.getInt("steps", full ? 4 : (smoke ? 1 : 2)));
    Rng rng(seed);

    auto cft = buildCft(radix, 3);
    auto built = buildRfc(radix, 3, cft.numLeaves(), rng);
    auto &rfc_base = built.topology;
    if (!built.routable)
        throw std::runtime_error("base RFC is not up/down routable");
    UpDownOracle o_cft(cft), o_rfc(rfc_base);

    // Strong expansion keeps routability only w.h.p. (Theorem 4.2), so
    // re-plan from derived seeds until the end state routes.  The CFT
    // leaf count sits far below rfcMaxLeaves for every scale here, so
    // this converges in a draw or two.
    std::unique_ptr<ExpansionPlan> plan;
    for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
        Rng r(deriveSeed(seed, 0xE59AULL, attempt));
        auto p = std::make_unique<ExpansionPlan>(rfc_base, steps, r);
        if (UpDownOracle(p->finalTopology()).routable()) {
            plan = std::move(p);
            break;
        }
    }
    if (!plan)
        throw std::runtime_error(
            "no routable strong expansion in 64 attempts");

    SimConfig base;
    base.warmup = opts.getInt("warmup", full ? 3000 : (smoke ? 200 : 600));
    base.measure =
        opts.getInt("measure", full ? 10000 : (smoke ? 1000 : 3000));
    base.seed = seed;
    base.load = opts.getDouble("load", 0.6);
    base.shards = static_cast<int>(opts.getInt("shards", base.shards));
    base.jobs = static_cast<int>(opts.getInt("sim-jobs", 1));
    base.route_ttl =
        static_cast<int>(opts.getInt("route-ttl", smoke ? 128 : 256));
    // Smoke doubles as the CI self-check: prove every incremental
    // oracle repair equal to a fresh build (cheap at smoke scale).
    base.fault_crosscheck = smoke;
    const long long total = base.warmup + base.measure;
    base.telemetry_bin =
        opts.getInt("telemetry-bin", std::max<long long>(total / 40, 1));
    int reps = static_cast<int>(opts.getInt("trials", full ? 5 : 2));

    // Upgrade schedule: changes start one third into the run; RFC steps
    // spread across the middle third, the forklift and the plane-add
    // land in one barrier.  New terminals pass their activation barrier
    // two packet times after their step's links attach.
    const long long change_at = opts.getInt("change-at", total / 3);
    const long long spacing = std::max<long long>(total / (3 * steps), 1);
    const long long activate_delay = 2LL * base.pkt_phits;

    FoldedClos rfc_union = plan->unionTopology();
    TopologyTimeline tl_expand =
        plan->liveTimeline(change_at, spacing, activate_delay);
    MorphPlan forklift = planMorph(cft, plan->finalTopology());
    TopologyTimeline tl_forklift =
        forklift.liveTimeline(change_at, activate_delay);
    FoldedClos cft_partial = cftMinusLastPlane(cft, radix);
    MorphPlan plane = planMorph(cft_partial, cft);
    TopologyTimeline tl_plane =
        plane.liveTimeline(change_at, activate_delay);
    if (!plane.detach.empty())
        throw std::logic_error("plane-add morph must be attach-only");

    std::cout << "base terminals: " << plan->baseTerminals()
              << " (RFC) / " << cft.numTerminals() << " (CFT), +"
              << plan->addedTerminals() << " over " << steps
              << " step(s); changes start @" << change_at
              << ", RFC step spacing " << spacing << ", route_ttl "
              << base.route_ttl << "\n\n";

    const std::string traffic = opts.get("traffic", "uniform");
    std::vector<TrialSpec> specs;
    auto add = [&](std::string label, const FoldedClos *topo,
                   const UpDownOracle *oracle,
                   const TopologyTimeline *tl, long long gate) {
        TrialSpec spec;
        spec.topology = topo;
        spec.oracle = oracle;
        spec.traffic = namedTraffic(traffic);
        spec.config = base;
        spec.config.active_terminals = gate;
        spec.label = std::move(label);
        spec.topo_timeline = tl;
        specs.push_back(std::move(spec));
    };
    add("CFT@static", &cft, &o_cft, nullptr, -1);
    add("RFC@static", &rfc_base, &o_rfc, nullptr, -1);
    add("RFC@expand", &rfc_union, nullptr, &tl_expand,
        plan->baseTerminals());
    add("CFT@forklift", &forklift.union_topology, nullptr, &tl_forklift,
        cft.numTerminals());
    add("CFT@plane-add", &plane.union_topology, nullptr, &tl_plane, -1);

    ExperimentEngine engine(opts.jobs(), seed);
    auto t0 = std::chrono::steady_clock::now();
    auto points = engine.runPoints(specs, reps);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    std::cerr << "[engine] "
              << specs.size() * static_cast<std::size_t>(reps)
              << " trials on " << engine.jobs() << " job(s): " << wall
              << " s wall\n";

    long long violations = 0;
    for (const auto &p : points)
        violations += p.conservation_violations;

    // The RRN cost column: equal terminals (one leaf-equivalent switch
    // each), equal capacity steps, surgery done offline because a flat
    // network has no up/down live path here.
    const int d = radix / 2;
    Rng rrn_rng(deriveSeed(seed, 0x44E6ULL, 0));
    Graph rrn = randomRegularNetwork(cft.numLeaves(), d, rrn_rng);
    const long long rrn_detached =
        rrnIncrementalGrow(rrn, 2 * steps, d, rrn_rng);

    if (opts.getBool("json", false)) {
        writePointsJson(std::cout, points, seed, engine.jobs(), wall,
                        reps);
        if (violations > 0) {
            std::cerr << "conservation violations: " << violations
                      << "\n";
            return 1;
        }
        return 0;
    }

    TablePrinter t({"upgrade", "terms added", "detached", "attached",
                    "accepted", "dropped", "retry cycles",
                    "in-flight@change", "dip", "reconverge"});
    for (const auto &p : points) {
        const bool live = p.expansion.active;
        const bool disrupted = live && p.expansion.links_detached > 0;
        long long ttr = std::llround(p.time_to_reconverge.mean);
        t.addRow({p.label,
                  live ? TablePrinter::fmtInt(
                             p.expansion.terminals_activated)
                       : "-",
                  live ? TablePrinter::fmtInt(p.expansion.links_detached)
                       : "-",
                  live ? TablePrinter::fmtInt(p.expansion.links_attached)
                       : "-",
                  TablePrinter::fmt(p.accepted.mean, 3),
                  TablePrinter::fmtInt(
                      std::llround(p.dropped_packets.mean)),
                  TablePrinter::fmtInt(
                      std::llround(p.route_retries.mean)),
                  live ? TablePrinter::fmtInt(std::llround(
                             p.barrier_inflight.mean))
                       : "-",
                  disrupted ? TablePrinter::fmt(p.dip_fraction.mean, 3)
                            : "-",
                  disrupted ? (ttr < 0 ? "never"
                                       : TablePrinter::fmtInt(ttr))
                            : "-"});
    }
    t.addRow({"RRN@incremental",
              TablePrinter::fmtInt(static_cast<long long>(steps) *
                                   radix),
              TablePrinter::fmtInt(rrn_detached),
              TablePrinter::fmtInt(2 * rrn_detached), "-", "-", "-", "-",
              "-", "-"});
    emit(opts, "traffic: " + traffic + " @ load " +
                   TablePrinter::fmt(base.load, 2),
         t);

    std::cout
        << "reading the table: every live row runs on its union fabric "
           "(base plus staged\nlinks, staged masked dead), so 'accepted' "
           "is normalized by the *final* terminal\ncount - pre-expansion "
           "bins are diluted by the not-yet-active terminals.  'dip'\n"
           "is the lowest binned delivery rate after the first detach "
           "relative to the\npre-change baseline, 'reconverge' the "
           "cycles from first detach to a sustained\nreturn to >= 90% "
           "of it.  The plane-add is attach-only (no detach, no dip "
           "shown);\nthe RRN row is offline surgery cost at the same "
           "capacity steps, regularity\nre-verified after every added "
           "switch.\n";
    if (violations > 0) {
        std::cerr << "conservation violations: " << violations << "\n";
        return 1;
    }
    return 0;
}
