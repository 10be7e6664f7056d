/**
 * @file
 * Tests for the deterministic parallel experiment runner: seed
 * derivation, bit-identical documents at any --jobs value on every
 * fidelity tier and on closed-loop packet points, the one JSON
 * envelope, the packet points' metric lists and audit, the grid index
 * helper, the repetition-count check, results that appended points
 * leave alone and the per-trial-mean counter semantics.
 */
#include <gtest/gtest.h>

#include <bit>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clos/fat_tree.hpp"
#include "exp/experiment.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "json_deterministic.hpp"
#include "routing/updown.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"
#include "workload/closed_loop.hpp"

namespace rfc {
namespace {

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmup = 100;
    cfg.measure = 400;
    cfg.seed = 5;
    return cfg;
}

TEST(DeriveSeed, NoCollisionsAcrossStreamsAndReps)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {1ULL, 2ULL, 12345ULL}) {
        for (std::uint64_t stream = 0; stream < 40; ++stream)
            for (std::uint64_t rep = 0; rep < 40; ++rep)
                seen.insert(deriveSeed(base, stream, rep));
    }
    EXPECT_EQ(seen.size(), 3u * 40u * 40u);
}

TEST(DeriveSeed, StreamAndRepAreNotInterchangeable)
{
    // The old base + small-prime * rep scheme aliased whenever two
    // entry points incremented the same base; the splitmix chain keys
    // each coordinate separately.
    EXPECT_NE(deriveSeed(1, 2, 3), deriveSeed(1, 3, 2));
    EXPECT_NE(deriveSeed(1, 0, 1), deriveSeed(2, 0, 0));
}

/**
 * Two loads x two reps of one case on @p net at @p tier; a
 * @p closed_loop kVct case runs the default RPC workload.
 */
Study
smallStudy(Tier tier, const Network &net, bool closed_loop = false)
{
    Case c;
    c.label = "uniform";
    if (closed_loop) {
        c.workload = WorkloadSpec{};
        c.label = c.workload->label();
    } else if (tier == Tier::kVct) {
        c.traffic = namedTraffic("uniform");
    } else {
        c.pattern = "uniform";
    }
    return {tierName(tier), tier,
            crossPoints({net}, {c}, {0.3, 0.8}, quickConfig()), 2};
}

/** The metric names of @p p, in evaluator order. */
std::vector<std::string>
metricNames(const PointResult &p)
{
    std::vector<std::string> out;
    for (const Metric &m : p.metrics)
        out.push_back(m.name);
    return out;
}

std::string
document(const ExperimentEngine &engine, const Study &study)
{
    Report report("test", engine.baseSeed(), engine.jobs());
    report.add(engine.run(study));
    std::ostringstream os;
    report.write(os);
    return os.str();
}

/** Keys of the lines indented by exactly @p indent spaces, in order. */
std::vector<std::string>
keysAtIndent(const std::string &doc, int indent)
{
    const std::regex key("^ {" + std::to_string(indent) + "}\"([a-z_]+)\":");
    std::vector<std::string> out;
    std::istringstream in(doc);
    std::smatch m;
    for (std::string line; std::getline(in, line);)
        if (std::regex_search(line, m, key))
            out.push_back(m[1]);
    return out;
}

/** A study shape: each tier, and kVct once more closed-loop. */
struct StudyKind
{
    const char *name;
    Tier tier;
    bool closed_loop;
};

class StudyTiers : public ::testing::TestWithParam<StudyKind>
{
  protected:
    Study
    study() const
    {
        return smallStudy(GetParam().tier, net_, GetParam().closed_loop);
    }

    FoldedClos fc_ = buildCft(4, 2);
    UpDownOracle oracle_{fc_};
    Network net_{"cft", &fc_, &oracle_};
};

TEST_P(StudyTiers, DocumentIsBitIdenticalAtJobs1And4)
{
    const Study study = this->study();
    const std::string one = document(ExperimentEngine(1, 5), study);
    const std::string four = document(ExperimentEngine(4, 5), study);
    // Only the timing objects may differ ("jobs" at least does).
    EXPECT_NE(one, four);
    EXPECT_EQ(withoutTiming(one), withoutTiming(four));
}

TEST_P(StudyTiers, EnvelopeIsTheSameForEveryTier)
{
    const std::string doc = document(ExperimentEngine(2, 5), study());
    EXPECT_EQ(keysAtIndent(doc, 2),
              (std::vector<std::string>{"meta", "points", "tables",
                                        "summary", "timing"}));
    // Point members sit at indent 6 of the points array.
    const std::size_t begin = doc.find("\"points\"");
    const std::string points = doc.substr(begin, doc.find("\"tables\"") - begin);
    const std::vector<std::string> point{
        "section", "network", "case",    "label",  "load",
        "reps",    "terminals", "metrics", "memory", "timing"};
    std::vector<std::string> want;
    for (int p = 0; p < 2; ++p)
        want.insert(want.end(), point.begin(), point.end());
    EXPECT_EQ(keysAtIndent(points, 6), want);
    // reps = 2: every kStat metric carries its spread.
    EXPECT_NE(doc.find("\"ci95\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, StudyTiers,
    ::testing::Values(StudyKind{"vct", Tier::kVct, false},
                      StudyKind{"closed_loop", Tier::kVct, true},
                      StudyKind{"flow", Tier::kFlow, false},
                      StudyKind{"queue", Tier::kQueue, false}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(ExperimentEngine, PacketPointsEmitTheirMetricLists)
{
    // An open-loop point and a closed-loop point of the one packet
    // tier each keep the list their separate evaluators emitted.
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    const Network net{"cft", &fc, &oracle};
    const ExperimentEngine engine(2, 5);
    EXPECT_EQ(
        metricNames(engine.run(smallStudy(Tier::kVct, net)).points[0]),
        (std::vector<std::string>{
            "accepted", "avg_latency", "p50_latency", "p99_latency",
            "avg_hops", "delivered_packets", "generated_packets",
            "suppressed_packets", "unroutable_packets", "dropped_packets",
            "rerouted_packets", "route_retries", "conservation_violations",
            "cycles", "switch_scans", "arb_conflicts", "credit_stalls",
            "forwards", "scan_not_ready", "scan_no_route",
            "scan_sole_busy", "scan_choice_busy", "scan_credit_blocked",
            "scan_commit_blocked", "occupancy"}));
    EXPECT_EQ(
        metricNames(
            engine.run(smallStudy(Tier::kVct, net, true)).points[0]),
        (std::vector<std::string>{
            "goodput", "accepted", "avg_latency", "p99_latency",
            "fct_mean", "fct_p50", "fct_p99", "fct_max", "rpc_mean",
            "rpc_p50", "rpc_p99", "rpc_p999", "rpc_max", "cct_mean",
            "cct_max", "messages_sent", "flows_completed",
            "rpcs_completed", "coflow_phases",
            "conservation_violations"}));
}

TEST(ExperimentEngine, ClosedLoopPointsPassTheAudit)
{
    // The audit of a closed-loop trial adds the packet identity to the
    // workload's own message conservation; both hold on every trial.
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    const StudyResult r = ExperimentEngine(2, 5).run(
        smallStudy(Tier::kVct, {"cft", &fc, &oracle}, true));
    ASSERT_EQ(r.points.size(), 2u);
    for (const PointResult &p : r.points)
        EXPECT_GT(p.mean("rpcs_completed"), 0.0) << p.label;
    EXPECT_EQ(conservationViolations(r), 0);
}

TEST(ExperimentEngine, AuditFailsEveryBrokenRule)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    Simulator sim(fc, oracle, traffic, quickConfig());
    const SimResult r = sim.run();
    ASSERT_EQ(conservationGap(r), 0);
    EXPECT_FALSE(failsAudit(sim, r, "clean"));
    SimResult lost = r;
    --lost.ejected_packets;
    EXPECT_TRUE(failsAudit(sim, lost, "packet gap"));
    SimResult residual = r;
    residual.workload.active = true;
    residual.workload.conservation_residual = 1;
    EXPECT_TRUE(failsAudit(sim, residual, "message residual"));
    SimResult mismatch = r;
    mismatch.workload.active = true;
    mismatch.workload.eject_mismatch = -1;
    EXPECT_TRUE(failsAudit(sim, mismatch, "eject mismatch"));
}

TEST(ExperimentEngine, SpreadIsWrittenOnlyWhenRepsExceedOne)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    Study study = smallStudy(Tier::kVct, {"cft", &fc, &oracle});
    study.reps = 1;
    const std::string doc = document(ExperimentEngine(1, 5), study);
    EXPECT_NE(doc.find("\"mean\""), std::string::npos);
    EXPECT_EQ(doc.find("\"stddev\""), std::string::npos);
    EXPECT_EQ(doc.find("\"ci95\""), std::string::npos);
}

TEST(ExperimentEngine, QueuePointsSplitTheSweepTime)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    const Network net{"cft", &fc, &oracle};
    const std::string queue =
        document(ExperimentEngine(1, 5), smallStudy(Tier::kQueue, net));
    for (const char *key : {"\"sweep_seconds\"", "\"mixture_seconds\"",
                            "\"quantile_seconds\""})
        EXPECT_NE(queue.find(key), std::string::npos) << key;
    // Run-dependent, so they sit inside the timing objects only.
    EXPECT_EQ(withoutTiming(queue).find("_seconds"), std::string::npos);
    const std::string flow =
        document(ExperimentEngine(1, 5), smallStudy(Tier::kFlow, net));
    EXPECT_EQ(flow.find("\"mixture_seconds\""), std::string::npos);
}

TEST(ExperimentEngine, QueuePointsReportCdfPassesAsMetrics)
{
    // Deterministic counts, so they are metrics outside the timing
    // objects (StudyTiers checks the whole document at any --jobs).
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    const Network net{"cft", &fc, &oracle};
    const std::string queue = withoutTiming(
        document(ExperimentEngine(1, 5), smallStudy(Tier::kQueue, net)));
    for (const char *key : {"\"cdf_passes\"", "\"mixture_components\""})
        EXPECT_NE(queue.find(key), std::string::npos) << key;
}

TEST(ExperimentEngine, GridIndexCoversEveryAxisIncludingPolicy)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    const std::vector<Network> nets{{"a", &fc, &oracle},
                                    {"b", &fc, &oracle}};
    const RouteMode modes[] = {RouteMode::kMinimal, RouteMode::kUgal};
    const std::string traffics[] = {"uniform", "random-pairing"};
    std::vector<Case> cases;  // route mode x traffic, flattened
    for (RouteMode mode : modes)
        for (const auto &t : traffics) {
            const Case c{std::to_string(static_cast<int>(mode)) + "/" + t,
                         namedTraffic(t), mode};
            cases.push_back(c);
        }
    const std::vector<double> loads{0.2, 0.5, 0.9};
    const std::vector<Point> points = crossPoints(nets, cases, loads);
    ASSERT_EQ(points.size(), 2u * 2u * 2u * 3u);

    std::set<std::size_t> seen;
    for (std::size_t n = 0; n < 2; ++n)
        for (std::size_t p = 0; p < 2; ++p)
            for (std::size_t t = 0; t < 2; ++t)
                for (std::size_t l = 0; l < 3; ++l) {
                    const std::size_t i =
                        gridIndex({2, 2, 2, 3}, {n, p, t, l});
                    seen.insert(i);
                    const Point &pt = points.at(i);
                    const Case &c = cases[p * 2 + t];
                    EXPECT_EQ(pt.network.label, nets[n].label);
                    EXPECT_EQ(pt.scenario.route_mode, modes[p]);
                    EXPECT_EQ(pt.config.route_mode, modes[p]);
                    EXPECT_EQ(pt.scenario.label, c.label);
                    EXPECT_EQ(pt.load, loads[l]);
                    EXPECT_EQ(pt.label, nets[n].label + "/" + c.label);
                }
    EXPECT_EQ(seen.size(), points.size());
    EXPECT_THROW(gridIndex({2, 2}, {0, 2}), std::out_of_range);
    EXPECT_THROW(gridIndex({2, 2}, {0}), std::invalid_argument);
}

TEST(ExperimentEngine, CaseRouteModeOverridesTheBaseConfig)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    Case valiant{"valiant", namedTraffic("uniform")};
    valiant.route_mode = RouteMode::kValiant;
    const Case plain{"plain", namedTraffic("uniform")};
    const auto points = crossPoints({{"cft", &fc, &oracle}},
                                    {valiant, plain}, {0.5}, quickConfig());
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].config.route_mode, RouteMode::kValiant);
    EXPECT_EQ(points[1].config.route_mode, quickConfig().route_mode);
}

TEST(ExperimentEngine, FlowTierDrawsDemandsAndPathsFromPointStreams)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    Study study = smallStudy(Tier::kFlow, {"cft", &fc, &oracle});
    study.points = crossPoints({{"a", &fc, &oracle}, {"b", &fc, &oracle}},
                               {study.points[0].scenario}, {1.0});
    study.reps = 1;
    study.max_paths = 4;
    study.uniform_samples = 2;
    const StudyResult r = ExperimentEngine(2, 11).run(study);
    ASSERT_EQ(r.points.size(), 2u);
    for (std::uint64_t p = 0; p < 2; ++p) {
        // Point p's demand matrix comes from stream (p, 0), its sampled
        // paths from (p, 1).
        const DemandMatrix dm = makeDemandMatrix(
            "uniform", fc.numTerminals(), deriveSeed(11, p, 0), 2);
        UpDownEcmpPaths provider(fc, oracle, 4, deriveSeed(11, p, 1));
        const FlowProblem problem = buildClosFlowProblem(fc, provider, dm);
        const PointResult &got = r.points[p];
        EXPECT_EQ(got.mean("throughput"),
                  solveMaxConcurrentFlow(problem, study.solve).throughput);
        EXPECT_EQ(got.mean("ecmp_saturation"), ecmpFluid(problem).saturation);
        EXPECT_EQ(got.mean("paths"),
                  static_cast<double>(problem.numPathsTotal()));
    }
}

TEST(ExperimentEngine, EmptyStudyYieldsNoPoints)
{
    ExperimentEngine engine(4, 1);
    EXPECT_EQ(engine.run({"empty", Tier::kVct}).points.size(), 0u);
    EXPECT_EQ(engine.run({"empty", Tier::kFlow}).points.size(), 0u);
}

TEST(ExperimentEngine, RejectsRepetitionCountsBelowOne)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    ExperimentEngine engine(2, 1);
    auto echo = [](std::size_t, std::uint64_t seed) { return seed; };
    for (Tier tier : {Tier::kVct, Tier::kFlow}) {
        Study study = smallStudy(tier, {"cft", &fc, &oracle});
        for (int reps : {0, -1}) {
            study.reps = reps;
            try {
                engine.run(study);
                ADD_FAILURE() << "reps " << reps << " accepted";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "got " + std::to_string(reps)),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    for (int reps : {0, -1})
        EXPECT_THROW(engine.map<std::uint64_t>(0, reps, echo),
                     std::invalid_argument);
}

TEST(ExperimentEngine, MapIsJobCountInvariant)
{
    auto echo = [](std::size_t, std::uint64_t seed) { return seed; };
    EXPECT_EQ(ExperimentEngine(1, 9).map<std::uint64_t>(7, 100, echo),
              ExperimentEngine(8, 9).map<std::uint64_t>(7, 100, echo));
}

TEST(ExperimentEngine, AppendedPointsKeepEarlierResults)
{
    // Trials seed from (base seed, point index, rep), so a bench can
    // append points to a study without moving the earlier results.
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    const Study two = smallStudy(Tier::kVct, {"cft", &fc, &oracle});
    Study three = two;
    three.points.push_back(two.points.front());
    three.points.back().load = 0.5;
    const ExperimentEngine engine(2, 5);
    const StudyResult a = engine.run(two);
    const StudyResult b = engine.run(three);
    ASSERT_EQ(b.points.size(), 3u);
    auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t p = 0; p < a.points.size(); ++p) {
        const auto &x = a.points[p].metrics;
        const auto &y = b.points[p].metrics;
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t m = 0; m < x.size(); ++m) {
            SCOPED_TRACE("point " + std::to_string(p) + " " + x[m].name);
            EXPECT_EQ(x[m].name, y[m].name);
            for (auto field : {&MetricStat::mean, &MetricStat::stddev,
                               &MetricStat::ci95, &MetricStat::min,
                               &MetricStat::max})
                EXPECT_EQ(bits(x[m].stat.*field), bits(y[m].stat.*field));
            ASSERT_EQ(x[m].values.size(), y[m].values.size());
            for (std::size_t i = 0; i < x[m].values.size(); ++i)
                EXPECT_EQ(bits(x[m].values[i]), bits(y[m].values[i]));
        }
    }
}

TEST(ExperimentEngine, TrialExceptionReachesTheCaller)
{
    ExperimentEngine engine(4, 1);
    EXPECT_THROW(engine.map<double>(0, 32,
                                    [](std::size_t, std::uint64_t) -> double {
                                        throw std::runtime_error("trial");
                                    }),
                 std::runtime_error);
}

TEST(ExperimentEngine, CountersReportPerTrialMeansNotSums)
{
    // The legacy sweep aggregator summed delivered/generated/suppressed
    // counters across repetitions while averaging the rates; counters
    // are per-trial means like every other metric.
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    Study study = smallStudy(Tier::kVct, {"cft", &fc, &oracle});
    study.reps = 1;
    const ExperimentEngine engine(2, 5);
    const double one = engine.run(study).points[0].mean("delivered_packets");
    study.reps = 3;
    const double three =
        engine.run(study).points[0].mean("delivered_packets");
    ASSERT_GT(one, 0.0);
    // A 3-rep study of the same scenario must report a similar counter
    // magnitude, not a 3x total.
    EXPECT_LT(three, 2 * one);
    EXPECT_GT(three, one / 2);
}

} // namespace
} // namespace rfc
