/**
 * @file
 * Million-terminal scale tier: CFT-vs-RFC throughput at ~1M endpoints
 * plus the memory budget that makes the operating point reachable.
 *
 * The paper's scalability argument (Fig 6, Section 5) is about
 * operating points an order of magnitude beyond the 200K-terminal
 * experiments; this bench exercises the representation stack there:
 *
 *  - `flow`: flow-engine throughput (max concurrent flow + ECMP fluid)
 *    for the 4-level CFT vs the 3-level RFC at R=54 - 1,062,882
 *    terminals each, full-scale on one machine.  The RFC answers the
 *    same terminal count with one fewer level (39,366 leaves, below
 *    the Theorem 4.2 threshold of ~49K for R=54, l=3).
 *  - `vct`: a cycle-accurate VCT point on a sampled 2-level subtree of
 *    the same radix (the whole 1M network is out of packet-sim reach;
 *    the subtree is its recurring building block).
 *  - `tables`: compressed forwarding-table footprint at the Figure 10
 *    configuration (R=36: 4-level CFT and the largest routable
 *    3-level RFC, ~200K terminals) - compressed vs dense bytes and the
 *    hash-consing compression ratio.
 *
 * Every point of the JSON document carries a "memory" object of
 * bit-stable structure bytes (topology, oracle); the process peak RSS
 * is run-dependent and sits in the top-level "timing" object.
 * `--smoke` shrinks every section to seconds for CI; other knobs:
 * --section=flow,vct,tables, --patterns (comma list of
 * makeDemandMatrix names, as in ext_flow_throughput; the old --pattern
 * is rejected), --samples, --max-paths, --epsilon, --phases, --seed,
 * --jobs, --json.
 */
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "routing/tables.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

double
toMiB(long long bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/** Run one flow study and print throughput + memory per network. */
void
runFlowSection(Bench &b, Study study, const std::string &heading,
               const std::vector<Network> &nets,
               const std::vector<std::string> &patterns)
{
    study.points = crossPoints(nets, patternCases(patterns), {1.0});
    const StudyResult result = b.run(study);
    std::cerr << "[flow] peak RSS " << toMiB(peakRssBytes()) << " MiB\n";

    b.text() << "## " << heading << "\n";
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
        TablePrinter t({"network", "terminals", "demands", "maxflow",
                        "dual", "conv", "ecmp_sat", "ecmp_avg",
                        "topo_MiB", "oracle_MiB"});
        for (std::size_t ni = 0; ni < nets.size(); ++ni) {
            const auto &p = result.points[gridIndex(
                {nets.size(), patterns.size()}, {ni, pi})];
            t.addRow({p.network, std::to_string(p.terminals),
                      std::to_string(std::llround(p.mean("demands"))),
                      TablePrinter::fmt(p.mean("throughput"), 4),
                      TablePrinter::fmt(p.mean("dual_bound"), 4),
                      p.mean("converged") != 0.0 ? "yes" : "no",
                      TablePrinter::fmt(p.mean("ecmp_saturation"), 4),
                      TablePrinter::fmt(p.mean("ecmp_average"), 4),
                      TablePrinter::fmt(toMiB(p.topology_bytes), 1),
                      TablePrinter::fmt(toMiB(p.oracle_bytes), 1)});
        }
        b.emit("pattern: " + patterns[pi], t);
    }
}

} // namespace

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "fig_perf_1M", 21,
            {"smoke", "section", "patterns", "max-paths", "samples", "epsilon",
             "phases", "warmup", "measure", "trials"});
    const bool smoke = b.scale == Scale::kSmoke;
    b.banner("Million-terminal scale tier (flow CFT-vs-RFC, VCT subtree, "
             "table compression)");
    const std::uint64_t seed = b.seed;
    const auto sections = b.opts.getList("section", "flow,vct,tables",
                                         {"flow", "vct", "tables", "all"});

    // Per-section rng streams: running `--section=tables` alone must
    // build the same wirings as the full run, so no section may consume
    // another's draws.
    Rng flow_rng(seed);
    Rng vct_rng(deriveSeed(seed, 1, 0));
    Rng tables_rng(deriveSeed(seed, 2, 0));

    if (selected(sections, "flow")) {
        // The headline point: same terminal count, RFC one level
        // shorter.  Smoke keeps both at 3 levels (equal resources,
        // radix 8); full is R=54 - CFT l=4 vs RFC l=3, 1,062,882
        // terminals each.
        const Scenario sc =
            sameTerminals(smoke ? 8 : 54, smoke ? 3 : 4, flow_rng);
        std::cerr << "[build] topologies + oracles ready, peak RSS "
                  << toMiB(peakRssBytes()) << " MiB\n";

        Study study{"flow", Tier::kFlow};
        study.max_paths = b.opts.getIntAtLeast("max-paths", smoke ? 8 : 4, 1);
        study.uniform_samples =
            b.opts.getIntAtLeast("samples", smoke ? 2 : 1, 0);
        study.solve.epsilon =
            b.opts.getDouble("epsilon", smoke ? 0.05 : 0.12);
        study.solve.max_phases =
            b.opts.getIntAtLeast("phases", smoke ? 200 : 60, 1);
        runFlowSection(b, study,
                       std::to_string(sc.topology(0).numTerminals()) +
                           "-terminal flow throughput (CFT vs RFC)",
                       sc.networks(),
                       b.opts.getList("patterns", "uniform"));
    }

    if (selected(sections, "vct")) {
        // Cycle-accurate sanity point on the 2-level building block of
        // the same radix (whole-network VCT at 1M is out of reach).
        const int radix = smoke ? 8 : 54;
        auto cft2 = buildCft(radix, 2);
        auto built = routableRfc(radix, 2, cft2.numLeaves(), vct_rng);
        UpDownOracle o_cft(cft2), o_rfc(built.topology);

        SimConfig base;
        base.warmup = b.opts.getInt("warmup", smoke ? 200 : 1000);
        base.measure = b.opts.getInt("measure", smoke ? 600 : 4000);
        b.text() << "## VCT sampled-subtree point (radix " << radix
                 << ", 2 levels, " << cft2.numTerminals()
                 << " terminals)\n";
        runPerfScenario(b, "vct",
                        {{"CFT2-subtree", &cft2, &o_cft},
                         {"RFC2-subtree", &built.topology, &o_rfc}},
                        {"uniform"}, {0.5}, base,
                        b.opts.getIntAtLeast("trials", 1, 1));
    }

    if (selected(sections, "tables")) {
        // Figure 10 configuration: compressed vs dense forwarding
        // tables.  The >= 5x criterion the compressed representation
        // is held to lives here.
        const int radix = smoke ? 8 : 36;
        const Scenario sc = fig10Pair(radix, tables_rng);

        TablePrinter t({"network", "switches", "leaves", "topo_bytes",
                        "oracle_bytes", "tables_bytes", "dense_bytes",
                        "ratio", "unique_sets", "populated"});
        for (const Network &net : sc.networks()) {
            const FoldedClos &fc = *net.topology;
            ForwardingTables tables(fc, *net.oracle);
            t.addRow({net.label, std::to_string(fc.numSwitches()),
                      std::to_string(fc.numLeaves()),
                      std::to_string(fc.memoryBytes()),
                      std::to_string(net.oracle->memoryBytes()),
                      std::to_string(tables.memoryBytes()),
                      std::to_string(tables.denseMemoryBytes()),
                      TablePrinter::fmt(tables.compressionRatio(), 2),
                      std::to_string(tables.uniqueSets()),
                      std::to_string(tables.populatedEntries())});
            std::cerr << "[tables] " << net.label << ": compressed "
                      << toMiB(tables.memoryBytes()) << " MiB vs dense "
                      << toMiB(tables.denseMemoryBytes()) << " MiB ("
                      << tables.compressionRatio() << "x)\n";
        }
        b.text() << "## Forwarding-table compression (Fig 10 "
                    "configuration, R="
                 << radix << ")\n";
        b.emit("table memory", t);
        // stderr: stdout stays bit-stable across runs (CI determinism).
        std::cerr << "[tables] peak RSS "
                  << TablePrinter::fmt(toMiB(peakRssBytes()), 1)
                  << " MiB\n";
    }
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
