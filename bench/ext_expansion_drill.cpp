/**
 * @file
 * Extension: live expansion drill - grow the network while packets fly.
 *
 * Section 5 argues RFCs expand in O(R*l) rewires where a classic
 * fat-tree needs a forklift.  This bench turns that static argument
 * into a service-continuity experiment: each upgrade runs as a
 * TopologyTimeline against the union fabric (base plus staged links)
 * with traffic flowing, the up/down oracle rebuilt once at every
 * change barrier, and head packets that lose their route falling
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
 * --jobs value.
 *
 * Scale flags: --smoke (CI seconds), default (sandbox), --full
 * (paper-scale R = 36).  --radix takes a multiple of 4 only.  --json
 * emits the point aggregates.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "bench_common.hpp"
#include "clos/expansion.hpp"
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

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "ext_expansion_drill", 17,
            {"smoke", "full", "radix", "steps", "warmup", "measure", "load",
             "route-ttl", "telemetry-bin", "trials", "change-at", "traffic"});
    const bool full = b.scale == Scale::kFull;
    const bool smoke = b.scale == Scale::kSmoke;
    const int radix =
        b.opts.getIntAtLeast("radix", full ? 36 : (smoke ? 8 : 12), 2);
    if (radix % 4 != 0)
        throw std::invalid_argument(
            "--radix must be a multiple of 4 (the RRN row adds switches "
            "of degree R/2 by stealing R/4 edges each), got " +
            std::to_string(radix));
    b.banner("Extension: live expansion drill (grow under traffic)");
    const std::uint64_t seed = b.seed;
    const int steps =
        b.opts.getIntAtLeast("steps", full ? 4 : (smoke ? 1 : 2), 1);
    Rng rng(seed);

    const Scenario sc = equalResources(radix, rng);
    const FoldedClos &cft = sc.topology(0), &rfc_base = sc.topology(1);

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
    base.warmup =
        b.opts.getInt("warmup", full ? 3000 : (smoke ? 200 : 600));
    base.measure =
        b.opts.getInt("measure", full ? 10000 : (smoke ? 1000 : 3000));
    base.load = b.opts.getDouble("load", 0.6);
    base.route_ttl =
        b.opts.getIntAtLeast("route-ttl", smoke ? 128 : 256, 0);
    const long long total = base.warmup + base.measure;
    base.telemetry_bin = b.opts.getInt(
        "telemetry-bin", std::max<long long>(total / 40, 1), 1);
    int reps = b.opts.getIntAtLeast("trials", full ? 5 : 2, 1);

    // Upgrade schedule: changes start one third into the run; RFC steps
    // spread across the middle third, the forklift and the plane-add
    // land in one barrier.  New terminals pass their activation barrier
    // two packet times after their step's links attach.
    const long long change_at =
        b.opts.getInt("change-at", total / 3, 0, total - 1);
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

    b.text() << "base terminals: " << plan->baseTerminals()
             << " (RFC) / " << cft.numTerminals() << " (CFT), +"
             << plan->addedTerminals() << " over " << steps
             << " step(s); changes start @" << change_at
             << ", RFC step spacing " << spacing << ", route_ttl "
             << base.route_ttl << "\n\n";

    const std::string traffic = b.opts.get("traffic", "uniform");
    Study study{"upgrades", Tier::kVct, {}, reps};
    study.config = {{"traffic", traffic},
                    {"steps", steps},
                    {"change_at", change_at},
                    {"spacing", spacing},
                    {"route_ttl", base.route_ttl},
                    {"telemetry_bin", base.telemetry_bin}};
    auto add = [&](const std::string &net, const std::string &upgrade,
                   const FoldedClos &topo, const UpDownOracle *oracle,
                   const TopologyTimeline *tl) {
        Case c{upgrade, namedTraffic(traffic)};
        c.changes = tl;
        const Network network{net, &topo, oracle};
        study.points.push_back(
            {network, std::move(c), base.load, base, net + "@" + upgrade});
    };
    add("CFT", "static", cft, sc.networks()[0].oracle, nullptr);
    add("RFC", "static", rfc_base, sc.networks()[1].oracle, nullptr);
    add("RFC", "expand", rfc_union, nullptr, &tl_expand);
    add("CFT", "forklift", forklift.union_topology, nullptr, &tl_forklift);
    add("CFT", "plane-add", plane.union_topology, nullptr, &tl_plane);
    const StudyResult result = b.run(study);

    // The RRN cost column: equal terminals (one leaf-equivalent switch
    // each), equal capacity steps, surgery done offline because a flat
    // network has no up/down live path here.
    const int d = radix / 2;
    Rng rrn_rng(deriveSeed(seed, 0x44E6ULL, 0));
    Graph rrn = randomRegularNetwork(cft.numLeaves(), d, rrn_rng);
    const long long rrn_detached =
        rrnIncrementalGrow(rrn, 2 * steps, d, rrn_rng);

    TablePrinter t({"upgrade", "terms added", "detached", "attached",
                    "accepted", "dropped", "retry cycles",
                    "in-flight@change", "dip", "reconverge"});
    for (const auto &p : result.points) {
        // Counters only live runs carry; "-" elsewhere.
        const bool live = p.has("links_detached");
        auto count = [&](const char *name, bool shown) -> std::string {
            return shown ? TablePrinter::fmtInt(std::llround(p.mean(name)))
                         : "-";
        };
        const bool disrupted = live && p.mean("links_detached") > 0 &&
                               p.has("dip_fraction");
        const long long ttr =
            disrupted ? std::llround(p.mean("time_to_reconverge")) : 0;
        t.addRow({p.label, count("terminals_activated", live),
                  count("links_detached", live),
                  count("links_attached", live),
                  TablePrinter::fmt(p.mean("accepted"), 3),
                  count("dropped_packets", true),
                  count("route_retries", true),
                  count("barrier_inflight_max", live),
                  disrupted ? TablePrinter::fmt(p.mean("dip_fraction"), 3)
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
    b.emit("traffic: " + traffic + " @ load " +
               TablePrinter::fmt(base.load, 2),
           t);

    b.text()
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
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
