/**
 * @file
 * Ablation: how much of the Figure 8 result depends on the Table 2
 * flow-control configuration?
 *
 * Sweeps virtual channel count and buffer depth at saturation on the
 * equal-resources CFT/RFC pair.  The paper uses 4 VCs "to reduce
 * head-of-line blocking"; this bench quantifies that choice and shows
 * the CFT-vs-RFC ranking is robust to it.
 *
 * The (vcs, buf) x network points are hand-built with per-point
 * SimConfig overrides and run in parallel (--jobs).
 */
#include <iostream>

#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "ablation_flowcontrol", 21,
            {"full", "radix", "warmup", "measure"});
    b.banner("Ablation: virtual channels and buffer depth");
    const bool full = b.scale == Scale::kFull;
    const int radix = b.opts.getIntAtLeast("radix", full ? 36 : 12, 2);
    Rng rng(b.seed);

    const Scenario sc = equalResources(radix, rng);

    SimConfig base;
    base.warmup = b.opts.getInt("warmup", full ? 2000 : 500);
    base.measure = b.opts.getInt("measure", full ? 6000 : 1500);

    const std::vector<int> vc_axis{1, 2, 4, 8};
    const std::vector<int> buf_axis{2, 4, 8};

    // Saturation (offered 1.0) everywhere in this ablation; each point
    // carries its own flow-control config.
    auto add = [&](Study &s, const std::string &traffic,
                   const std::string &knobs, const SimConfig &cfg) {
        const Case c{knobs, namedTraffic(traffic)};
        for (const Network &net : sc.networks())
            s.points.push_back({net, c, 1.0, cfg, net.label + "/" + knobs});
    };

    // Study 1: (vcs x buf x network) under uniform traffic.
    Study uniform{"uniform"};
    for (int vcs : vc_axis) {
        for (int buf : buf_axis) {
            SimConfig cfg = base;
            cfg.vcs = vcs;
            cfg.buf_packets = buf;
            add(uniform, "uniform",
                "vcs=" + std::to_string(vcs) + "/buf=" + std::to_string(buf),
                cfg);
        }
    }
    const auto points = b.run(uniform).points;

    TablePrinter t({"vcs", "buf", "thr(CFT)", "lat(CFT)", "thr(RFC)",
                    "lat(RFC)"});
    std::size_t p = 0;
    for (int vcs : vc_axis) {
        for (int buf : buf_axis) {
            const auto &r1 = points[p++];
            const auto &r2 = points[p++];
            t.addRow({std::to_string(vcs), std::to_string(buf),
                      TablePrinter::fmt(r1.mean("accepted"), 3),
                      TablePrinter::fmt(r1.mean("avg_latency"), 1),
                      TablePrinter::fmt(r2.mean("accepted"), 3),
                      TablePrinter::fmt(r2.mean("avg_latency"), 1)});
        }
    }
    b.emit("uniform traffic at saturation (offered 1.0)", t);

    // Study 2: pairing is the pattern most sensitive to HoL blocking.
    Study pairing{"random-pairing"};
    for (int vcs : vc_axis) {
        SimConfig cfg = base;
        cfg.vcs = vcs;
        add(pairing, "random-pairing", "vcs=" + std::to_string(vcs), cfg);
    }
    const auto pair_points = b.run(pairing).points;

    TablePrinter pt({"vcs", "thr(CFT)", "thr(RFC)", "RFC/CFT"});
    p = 0;
    for (int vcs : vc_axis) {
        const double r1 = pair_points[p++].mean("accepted");
        const double r2 = pair_points[p++].mean("accepted");
        pt.addRow({std::to_string(vcs), TablePrinter::fmt(r1, 3),
                   TablePrinter::fmt(r2, 3),
                   TablePrinter::fmtPct(r2 / r1, 1)});
    }
    b.emit("random-pairing at saturation vs VC count", pt);
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
