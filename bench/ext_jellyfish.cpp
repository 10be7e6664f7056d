/**
 * @file
 * Extension: the comparison the paper declined to run - RFC vs a
 * Jellyfish-style random regular network under identical flow control.
 *
 * Section 6 argues the RRN is "out of the natural competition" because
 * it needs k-shortest-path routing plus deadlock avoidance.  Having
 * built both (KspRoutes + hop-escalating virtual channels in the
 * Simulator's direct-network constructor), we can run the match and
 * also price the machinery:
 * routing-table mass and the VC requirement are printed next to the
 * RFC's equivalents.
 *
 * Default scale: ~1,000 terminals per network at matched radix.
 */
#include <iostream>

#include "bench_common.hpp"
#include "clos/rfc.hpp"
#include "graph/algorithms.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/tables.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace rfc;

int
main(int argc, char **argv)
{
    Bench b(argc, argv, "ext_jellyfish", 77);
    b.banner("Extension: RFC vs Jellyfish (RRN) head to head");
    Rng rng(b.seed);

    // Matched design: radix-12 switches.  RFC: 3 levels, 170 leaves,
    // 1,020 terminals.  RRN: degree 9 + 3 hosts -> 340 switches,
    // 1,020 terminals (same switch port budget per terminal).
    const int radix = static_cast<int>(b.opts.getInt("radix", 12));
    const int rfc_levels = 3;
    int n1 = static_cast<int>(b.opts.getInt("leaves", 170));
    auto built = buildRfc(radix, rfc_levels, n1, rng);
    UpDownOracle oracle(built.topology);

    const int delta = static_cast<int>(b.opts.getInt("degree", 9));
    const int hosts = radix - delta;
    int rrn_switches = static_cast<int>(
        built.topology.numTerminals() / hosts);
    if ((static_cast<long long>(rrn_switches) * delta) % 2)
        ++rrn_switches;
    Graph rrn = randomRegularGraph(rrn_switches, delta, rng);
    const int k = static_cast<int>(b.opts.getInt("k", 4));
    KspRoutes routes(rrn, k);

    // The machinery price list.
    ForwardingTables rfc_tables(built.topology, oracle);
    TablePrinter m({"metric", "RFC", "RRN"});
    m.addRow({"terminals",
              TablePrinter::fmtInt(built.topology.numTerminals()),
              TablePrinter::fmtInt(
                  static_cast<long long>(rrn_switches) * hosts)});
    m.addRow({"switches",
              TablePrinter::fmtInt(built.topology.numSwitches()),
              TablePrinter::fmtInt(rrn_switches)});
    m.addRow({"wires", TablePrinter::fmtInt(built.topology.numWires()),
              TablePrinter::fmtInt(
                  static_cast<long long>(rrn.numEdges()))});
    m.addRow({"routing state",
              TablePrinter::fmtInt(rfc_tables.memoryBytes()) + " B",
              TablePrinter::fmtInt(routes.totalHops() * 4) + " B"});
    m.addRow({"VCs needed for deadlock freedom", "1 (up/down)",
              std::to_string(routes.maxHops()) + " (hop-escalating)"});
    m.addRow({"recompute on expansion/fault", "reachability bitsets",
              "all-pairs Yen k-shortest paths"});
    b.emit("machinery comparison", m);

    // The match, same Table 2 flow control.
    SimConfig base;
    base.warmup = b.opts.getInt("warmup", 600);
    base.measure = b.opts.getInt("measure", 2000);
    base.seed = b.seed;
    base.vcs = std::max(4, routes.maxHops());
    auto loads = loadRange(0.2, 1.0, 5);

    for (const char *tname : {"uniform", "random-pairing"}) {
        TablePrinter t({"offered", "acc(RFC)", "lat(RFC)",
                        "acc(RRN-ecmp)", "lat(RRN-ecmp)",
                        "acc(RRN-ksp)", "lat(RRN-ksp)",
                        "acc(RRN-flowlet)", "lat(RRN-flowlet)"});
        for (double load : loads) {
            SimConfig cfg = base;
            cfg.load = load;
            auto tr1 = makeTraffic(tname);
            Simulator rfc_sim(built.topology, oracle, *tr1, cfg);
            auto r1 = rfc_sim.run();
            auto tr2 = makeTraffic(tname);
            Simulator ecmp_sim(rrn, routes, hosts, *tr2, cfg,
                               PathPolicy::kShortestEcmp);
            auto r2 = ecmp_sim.run();
            auto tr3 = makeTraffic(tname);
            Simulator ksp_sim(rrn, routes, hosts, *tr3, cfg,
                              PathPolicy::kAllKsp);
            auto r3 = ksp_sim.run();
            auto tr4 = makeTraffic(tname);
            Simulator flowlet_sim(rrn, routes, hosts, *tr4, cfg,
                                  PathPolicy::kFlowletEcmp);
            auto r4 = flowlet_sim.run();
            t.addRow({TablePrinter::fmt(load, 2),
                      TablePrinter::fmt(r1.accepted, 3),
                      TablePrinter::fmt(r1.avg_latency, 1),
                      TablePrinter::fmt(r2.accepted, 3),
                      TablePrinter::fmt(r2.avg_latency, 1),
                      TablePrinter::fmt(r3.accepted, 3),
                      TablePrinter::fmt(r3.avg_latency, 1),
                      TablePrinter::fmt(r4.accepted, 3),
                      TablePrinter::fmt(r4.avg_latency, 1)});
        }
        b.emit(std::string("traffic: ") + tname, t);
    }
    return b.finish();
}
