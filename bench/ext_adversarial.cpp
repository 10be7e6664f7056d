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
 * up/down random and Valiant, plus adaptive UGAL (RouteMode::kUgal),
 * on the RFC and, except up/down random, on the CFT; uniform traffic
 * is the reference row.  [adaptive-delta] lines compare UGAL with
 * minimal routing on the neighbor-leaf shift.  Every trial is audited
 * against the packet conservation identity; any violation makes the
 * run exit 1.
 */
#include <array>
#include <tuple>

#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "ext_adversarial", 55,
            {"full", "radix", "warmup", "measure", "trials"});
    b.banner("Extension: adversarial (leaf-shift) traffic");
    const bool full = b.scale == Scale::kFull;
    const int radix = b.opts.getIntAtLeast("radix", full ? 36 : 12, 2);
    Rng rng(b.seed);

    const Scenario sc = equalResources(radix, rng);
    const FoldedClos &cft = sc.topology(0);
    const Network &cft_net = sc.networks()[0], &rfc_net = sc.networks()[1];

    SimConfig base;
    base.warmup = b.opts.getInt("warmup", full ? 2000 : 600);
    base.measure = b.opts.getInt("measure", full ? 8000 : 2000);

    const long long tpl = cft.terminalsPerLeaf();
    auto shift = [](long long stride) -> TrafficFactory {
        return [stride]() {
            return std::make_unique<ShiftTraffic>(stride);
        };
    };
    struct Pattern
    {
        const char *name;
        std::string stride;
        TrafficFactory make;
    };
    const long long distant = tpl * (cft.numLeaves() / 2);
    const Pattern patterns[] = {
        {"neighbor-leaf shift", TablePrinter::fmtInt(tpl), shift(tpl)},
        {"distant-leaf shift", TablePrinter::fmtInt(distant),
         shift(distant)},
        {"intra-leaf rotate", "1", shift(1)},
        {"uniform", "-", namedTraffic("uniform")},
    };

    struct Config
    {
        const Network *net;
        const char *name;
        RouteMode mode;
    };
    const Config configs[] = {
        {&cft_net, "CFT", RouteMode::kMinimal},
        {&cft_net, "CFT-valiant", RouteMode::kValiant},
        {&cft_net, "CFT-ugal", RouteMode::kUgal},
        {&rfc_net, "RFC-minimal", RouteMode::kMinimal},
        {&rfc_net, "RFC-updown-random", RouteMode::kUpDownRandom},
        {&rfc_net, "RFC-valiant", RouteMode::kValiant},
        {&rfc_net, "RFC-ugal", RouteMode::kUgal},
    };
    constexpr std::size_t kConfigs = std::size(configs);

    // Point indexes seed the trials, so the points keep the order they
    // were added in: first the three shifts x {CFT minimal, the four
    // RFC modes}, then the shifts x the CFT's Valiant and UGAL, then
    // the uniform row.  at[pattern][config] finds a point.
    Study study{"shift", Tier::kVct, {},
                b.opts.getIntAtLeast("trials", 1, 1)};
    std::array<std::array<std::size_t, kConfigs>, std::size(patterns)>
        at{};
    auto add = [&](std::size_t p, std::size_t c) {
        const Config &config = configs[c];
        SimConfig cfg = base;
        cfg.route_mode = config.mode;
        Case traffic{config.name, patterns[p].make};
        at[p][c] = study.points.size();
        study.points.push_back(
            {*config.net, std::move(traffic), 1.0, cfg,
             std::string(patterns[p].name) + "/" + config.name});
    };
    for (std::size_t p = 0; p < 3; ++p)
        for (std::size_t c : {0, 3, 4, 5, 6})
            add(p, c);
    for (std::size_t p = 0; p < 3; ++p)
        for (std::size_t c : {1, 2})
            add(p, c);
    for (std::size_t c = 0; c < kConfigs; ++c)
        add(3, c);
    const StudyResult result = b.run(study);

    for (const auto &[metric, digits, heading] :
         {std::tuple{"accepted", 3, "saturation throughput"},
          std::tuple{"avg_latency", 1, "average latency (cycles)"}}) {
        std::vector<std::string> headers{"pattern", "stride"};
        for (const Config &c : configs)
            headers.push_back(std::string(c.name));
        TablePrinter t(headers);
        for (std::size_t p = 0; p < std::size(patterns); ++p) {
            std::vector<std::string> row{patterns[p].name,
                                         patterns[p].stride};
            for (std::size_t c = 0; c < kConfigs; ++c)
                row.push_back(TablePrinter::fmt(
                    result.points[at[p][c]].mean(metric), digits));
            t.addRow(row);
        }
        b.emit(heading, t);
    }

    // UGAL vs minimal on the neighbor-leaf flood, per network.
    // Positive = adaptive wins throughput.
    for (const auto &[net, minimal, ugal] :
         {std::tuple{"CFT", 0, 2}, std::tuple{"RFC", 3, 6}}) {
        const double thr_min =
            result.points[at[0][minimal]].mean("accepted");
        const double thr_ugal =
            result.points[at[0][ugal]].mean("accepted");
        const double rel =
            thr_min > 0.0 ? (thr_ugal - thr_min) / thr_min * 100.0 : 0.0;
        b.text() << "[adaptive-delta] " << net
                 << " neighbor-leaf shift: minimal "
                 << TablePrinter::fmt(thr_min, 3) << ", ugal "
                 << TablePrinter::fmt(thr_ugal, 3) << " ("
                 << (rel >= 0 ? "+" : "") << TablePrinter::fmt(rel, 1)
                 << "%)\n";
        b.field(std::string("ugal_vs_minimal_pct.") + net, rel);
    }

    b.text() << "Minimal up/down funnels a leaf-to-leaf flood through "
                "the pair's few lowest\ncommon ancestors; the "
                "'up/down random' request mode (any feasible parent)\n"
                "recovers well above 0.5 without Valiant-style "
                "randomization - the Section 3\nclaim.  UGAL routes "
                "minimally until the minimal queues back up, then\n"
                "detours like Valiant.\n";
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
