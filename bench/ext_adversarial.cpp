/**
 * @file
 * Extension: adversarial traffic on RFC vs CFT (Section 3's remark).
 *
 * The paper notes that dragonflies handle adverse patterns only via
 * Valiant randomization at ~50% of peak, while RFCs "course at full
 * rate uniform traffic while some adversarial traffic can be routed
 * with much more than 50% performance, even without using any
 * randomization mechanism."  This bench builds the leaf-shift pattern
 * (every leaf floods the next leaf - the worst case for a tree, since
 * all of a leaf's traffic must share its common ancestors with one
 * destination) and measures the saturation throughput on CFT and RFC
 * at equal resources.
 *
 * The (pattern x topology x route mode) points are hand-built and run
 * in parallel (--jobs).  The route modes are the oblivious minimal,
 * up/down random and Valiant, plus adaptive UGAL (RouteMode::kUgal).
 */
#include <iostream>

#include "bench_common.hpp"
#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "util/rng.hpp"

using namespace rfc;

int
main(int argc, char **argv)
{
    Bench b(argc, argv, "ext_adversarial", 55);
    b.banner("Extension: adversarial (leaf-shift) traffic");
    const bool full = b.opts.fullScale();
    const int radix = static_cast<int>(
        b.opts.getInt("radix", full ? 36 : 12));
    Rng rng(b.seed);

    auto cft = buildCft(radix, 3);
    auto built = buildRfc(radix, 3, cft.numLeaves(), rng);
    UpDownOracle o_cft(cft), o_rfc(built.topology);
    const Network cft_net{"CFT", &cft, &o_cft};
    const Network rfc_net{"RFC", &built.topology, &o_rfc};

    SimConfig base;
    base.warmup = b.opts.getInt("warmup", full ? 2000 : 600);
    base.measure = b.opts.getInt("measure", full ? 8000 : 2000);
    base.seed = b.seed;

    const int tpl = cft.terminalsPerLeaf();
    const std::pair<const char *, long long> patterns[] = {
        {"neighbor-leaf shift", tpl},
        {"distant-leaf shift",
         static_cast<long long>(tpl) * (cft.numLeaves() / 2)},
        {"intra-leaf rotate", 1},
    };

    // Five configurations per pattern: CFT minimal, RFC minimal, RFC
    // up/down-random, RFC Valiant, RFC UGAL-adaptive.
    struct Config
    {
        const Network *net;
        const char *name;
        RouteMode mode;
    };
    const Config configs[] = {
        {&cft_net, "CFT", RouteMode::kMinimal},
        {&rfc_net, "RFC-minimal", RouteMode::kMinimal},
        {&rfc_net, "RFC-updown-random", RouteMode::kUpDownRandom},
        {&rfc_net, "RFC-valiant", RouteMode::kValiant},
        {&rfc_net, "RFC-ugal", RouteMode::kUgal},
    };
    Study study{"shift", Tier::kVct, {},
                static_cast<int>(b.opts.getInt("trials", 1))};
    for (const auto &[pattern, stride] : patterns) {
        for (const Config &c : configs) {
            SimConfig cfg = base;
            cfg.route_mode = c.mode;
            Case shift{c.name, [stride = stride]() {
                           return std::make_unique<ShiftTraffic>(stride);
                       }};
            study.points.push_back({*c.net, std::move(shift), 1.0, cfg,
                                    std::string(pattern) + "/" + c.name});
        }
    }
    const auto points = b.run(study).points;

    TablePrinter t({"pattern", "stride", "thr(CFT)", "thr(RFC minimal)",
                    "thr(RFC updown-random)", "thr(RFC Valiant)",
                    "thr(RFC UGAL)"});
    std::size_t p = 0;
    for (const auto &[pattern, stride] : patterns) {
        std::vector<std::string> row{pattern, TablePrinter::fmtInt(stride)};
        for (std::size_t i = 0; i < std::size(configs); ++i)
            row.push_back(TablePrinter::fmt(points[p++].mean("accepted"), 3));
        t.addRow(row);
    }
    b.emit("saturation throughput under shift patterns", t);
    b.text() << "Minimal up/down funnels a leaf-to-leaf flood through "
                "the pair's few lowest\ncommon ancestors; the "
                "'up/down random' request mode (any feasible parent)\n"
                "recovers well above 0.5 without Valiant-style "
                "randomization - the Section 3\nclaim.\n";
    return b.finish();
}
