/**
 * @file
 * Ablation: the Section 4.2 bisection analysis on real instances.
 *
 * Compares the Bollobas lower bound against empirically found cuts for
 * random regular networks and RFC instances, prints the normalized
 * bisection values the paper quotes (RRN ~0.88, 2-level RFC ~0.80,
 * 3-level RFC ~0.86), and certifies expansion through the spectral gap.
 *
 * Each table row (instance build + empirical cut + spectral gap) is an
 * independent trial and runs as an engine map with a derived per-row
 * seed (--jobs threads, deterministic at any job count).
 */
#include <iostream>

#include "bench_common.hpp"
#include "clos/rfc.hpp"
#include "graph/bisection.hpp"
#include "graph/random_regular.hpp"
#include "graph/spectral.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "ablation_bisection", 17, {"full", "restarts"});
    b.banner("Ablation: bisection bounds vs empirical cuts");
    const bool full = b.scale == Scale::kFull;
    const int restarts = b.opts.getIntAtLeast("restarts", full ? 20 : 6, 1);

    // Paper's quoted normalized bisections at R=36.
    TablePrinter q({"configuration", "paper", "model"});
    q.addRow({"RRN Delta=26, 10 hosts", "0.88",
              TablePrinter::fmt(normalizedBisectionRrn(26, 10), 2)});
    q.addRow({"RFC l=2, R=36", "0.80",
              TablePrinter::fmt(normalizedBisectionRfc(36, 2), 2)});
    q.addRow({"RFC l=3, R=36", "0.86",
              TablePrinter::fmt(normalizedBisectionRfc(36, 3), 2)});
    q.addRow({"CFT (any)", "1.00", "1.00"});
    b.emit("normalized bisection (Sec 4.2)", q);

    // Bound vs empirical cut on random regular graphs.
    const std::vector<std::pair<int, int>> rrg_cases{
        {64, 6}, {128, 8}, {256, 10}};
    struct RrgRow
    {
        long long edges = 0;
        double bound = 0.0, cut = 0.0, l2 = 0.0;
    };
    auto rrg_rows = b.engine.map<RrgRow>(
        /*stream=*/0, static_cast<int>(rrg_cases.size()),
        [&](std::size_t i, std::uint64_t seed) {
            auto [n, d] = rrg_cases[i];
            Rng row_rng(seed);
            Graph g = randomRegularGraph(n, d, row_rng);
            RrgRow row;
            row.edges = static_cast<long long>(g.numEdges());
            row.bound = bollobasBisectionRrn(n, d);
            row.cut = empiricalBisection(g, restarts, row_rng);
            row.l2 = std::abs(secondEigenvalue(g, 400, row_rng));
            return row;
        });

    TablePrinter t({"graph", "edges", "Bollobas bound", "empirical cut",
                    "ratio", "|lambda2|", "expansion bound"});
    for (std::size_t i = 0; i < rrg_cases.size(); ++i) {
        auto [n, d] = rrg_cases[i];
        const auto &row = rrg_rows[i];
        t.addRow({"RRG(" + std::to_string(n) + "," + std::to_string(d) +
                      ")",
                  TablePrinter::fmtInt(row.edges),
                  TablePrinter::fmt(row.bound, 1),
                  TablePrinter::fmtInt(
                      static_cast<long long>(row.cut)),
                  TablePrinter::fmt(row.cut / row.bound, 2),
                  TablePrinter::fmt(row.l2, 2),
                  TablePrinter::fmt(spectralExpansionBound(d, row.l2),
                                    2)});
    }
    b.emit("random regular graphs", t);

    // The same on RFC switch graphs (lower bound via the multigraph
    // contraction of Sec 4.2 is per-construction; empirical cut shown).
    const std::vector<std::pair<int, int>> rfc_cases{
        {12, 2}, {8, 3}, {12, 3}};
    struct RfcRow
    {
        std::string name;
        long long wires = 0;
        double cut = 0.0, norm = 0.0;
    };
    auto rfc_rows = b.engine.map<RfcRow>(
        /*stream=*/1, static_cast<int>(rfc_cases.size()),
        [&](std::size_t i, std::uint64_t seed) {
            auto [radix, levels] = rfc_cases[i];
            Rng row_rng(seed);
            int n1 = std::max(rfcMaxLeaves(radix, levels), radix);
            auto built = buildRfc(radix, levels, n1, row_rng);
            Graph g = built.topology.toGraph();
            RfcRow row;
            row.name = built.topology.name();
            row.wires = built.topology.numWires();
            row.cut = empiricalBisection(g, restarts, row_rng);
            row.norm = row.cut /
                       (built.topology.numTerminals() / 2.0) /
                       (levels - 1);
            return row;
        });

    TablePrinter r({"instance", "wires", "empirical cut",
                    "cut / (T/2) / (l-1)"});
    for (const auto &row : rfc_rows) {
        r.addRow({row.name, TablePrinter::fmtInt(row.wires),
                  TablePrinter::fmtInt(static_cast<long long>(row.cut)),
                  TablePrinter::fmt(row.norm, 2)});
    }
    b.emit("RFC instances (empirical normalized bisection)", r);
    b.text() << "note: the empirical cut balances *switches*, not "
                "leaves, so it can dip below\nthe Sec 4.2 normalized "
                "figures (which assume terminal-balanced halves); it "
                "is a\nconservative lower proxy, not a refutation of "
                "the bound.\n";
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
