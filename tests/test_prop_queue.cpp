/**
 * @file
 * Property-based checks for the queue-model latency engine over
 * randomized RFC topologies (tier 2).
 *
 * For every generated routable topology and a sampled-uniform demand
 * matrix, the analytic sweep must uphold its contract:
 *
 *  - latency (mean, p50, p99) is non-decreasing in offered load below
 *    saturation, and every point sits on or above the zero-load floor;
 *  - the blow-up happens exactly at the ECMP fluid saturation load:
 *    0.95 x saturation is a steady state, 1.01 x saturation is not;
 *  - max_utilization = load / saturation, and stays <= 1 on every
 *    unsaturated point;
 *  - flow conservation: injection = ejection = total routed weight;
 *  - the full grid JSON is bit-identical at any jobs value once the
 *    timing fields are stripped (the same filter the CI determinism
 *    job applies to ext_latency_curves output).
 *
 * Over random shifted-gamma mixtures, the certified-replay quantile
 * must return the plain bisection's double bit for bit.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "check/prop.hpp"
#include "exp/queue_experiment.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "flow/solver.hpp"
#include "mixture_reference.hpp"
#include "queue/latency.hpp"
#include "queue/queue_model.hpp"
#include "routing/updown.hpp"
#include "util/threadpool.hpp"

namespace rfc {
namespace {

/** Drop the lines the CI determinism diff also ignores. */
std::string
stripTimingFields(const std::string &json)
{
    static const char *kVolatile[] = {
        "\"jobs\"",          "\"wall_seconds\"", "\"build_seconds\"",
        "\"sweep_seconds\"", "\"peak_rss_bytes\""};
    std::ostringstream out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        bool drop = false;
        for (const char *key : kVolatile)
            if (line.find(key) != std::string::npos)
                drop = true;
        if (!drop)
            out << line << "\n";
    }
    return out.str();
}

CheckResult
queueContract(const TopoParams &params)
{
    FoldedClos fc = materializeTopo(params);
    UpDownOracle oracle(fc);
    if (!oracle.routable())
        return CheckResult::pass();  // vacuous: nothing to sweep

    UpDownEcmpPaths provider(fc, oracle, 8, params.wiring_seed);
    auto dm = makeDemandMatrix("uniform", fc.numTerminals(),
                               params.wiring_seed + 1, 2);
    if (dm.demands.empty())
        return CheckResult::pass();

    auto problem = buildClosFlowProblem(fc, provider, dm);
    double sat = ecmpFluid(problem).saturation;
    std::ostringstream err;
    if (!(sat > 0.0 && sat <= 1.0 + 1e-9)) {
        err << "fluid saturation " << sat << " outside (0, 1]";
        return CheckResult::fail(err.str());
    }

    // A ladder strictly below saturation, then one load just past it
    // (skipped when saturation is so close to 1 that no in-range load
    // exceeds it).
    std::vector<double> loads;
    for (double f : {0.25, 0.5, 0.75, 0.95})
        loads.push_back(f * sat);
    double past = 1.01 * sat;
    bool has_past = past <= 1.0;
    if (has_past)
        loads.push_back(past);

    auto model = makeQueueModel("md1", 16.0);
    QueueSweepOptions opt;
    opt.loads = loads;
    auto r = queueLatencySweep(problem, *model, opt);

    if (std::abs(r.saturation - sat) > 1e-12 * sat) {
        err << "sweep saturation " << r.saturation
            << " != fluid saturation " << sat;
        return CheckResult::fail(err.str());
    }

    // Conservation of routed flow.
    double w = r.offered_weight;
    if (std::abs(r.injection_util - w) > 1e-6 * w ||
        std::abs(r.ejection_util - w) > 1e-6 * w) {
        err << "conservation violated: inj " << r.injection_util
            << " ej " << r.ejection_util << " offered " << w;
        return CheckResult::fail(err.str());
    }
    if (r.zero_load_latency < 16.0) {
        err << "zero-load floor " << r.zero_load_latency
            << " below the packet serialization time";
        return CheckResult::fail(err.str());
    }

    // Per-point invariants and monotonicity below saturation.
    double prev_mean = 0.0, prev_p50 = 0.0, prev_p99 = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        const auto &pt = r.points[i];
        if (pt.saturated) {
            err << "load " << loads[i] << " below saturation " << sat
                << " reported saturated";
            return CheckResult::fail(err.str());
        }
        double want_util = loads[i] / sat;
        if (std::abs(pt.max_utilization - want_util) >
                1e-9 * want_util ||
            pt.max_utilization > 1.0 + 1e-9) {
            err << "max_utilization " << pt.max_utilization
                << " at load " << loads[i] << ", expected "
                << want_util;
            return CheckResult::fail(err.str());
        }
        if (pt.mean_latency < r.zero_load_latency - 1e-9) {
            err << "mean " << pt.mean_latency
                << " below the zero-load floor " << r.zero_load_latency;
            return CheckResult::fail(err.str());
        }
        // The p50/p99 bisection resolves to ~1e-9 relative; allow it.
        double slack = 1e-6 * (1.0 + pt.p99_latency);
        if (pt.mean_latency < prev_mean || pt.p50_latency <
                prev_p50 - slack || pt.p99_latency < prev_p99 - slack) {
            err << "latency not monotone in load at " << loads[i];
            return CheckResult::fail(err.str());
        }
        prev_mean = pt.mean_latency;
        prev_p50 = pt.p50_latency;
        prev_p99 = pt.p99_latency;
    }
    if (has_past && !r.points[4].saturated) {
        err << "load " << past << " past saturation " << sat
            << " still reported a steady state";
        return CheckResult::fail(err.str());
    }

    return CheckResult::pass();
}

TEST(PropQueue, SweepContractOnRandomTopologies)
{
    PropConfig cfg;
    cfg.cases = 30;
    cfg.seed = 0x90e0e;
    cfg.min_size = 2;
    cfg.max_size = 24;
    auto res = forAll<TopoParams>(
        cfg, genTopoParams, queueContract, shrinkTopoParams,
        describeTopoParams);
    EXPECT_TRUE(res.passed) << res.report();
}

CheckResult
jsonJobsInvariance(const TopoParams &params)
{
    FoldedClos fc = materializeTopo(params);
    UpDownOracle oracle(fc);
    if (!oracle.routable())
        return CheckResult::pass();

    QueueGrid grid;
    grid.addClos("net", fc, oracle);
    grid.patterns = {"uniform"};
    grid.loads = {0.2, 0.5, 0.8};
    grid.max_paths = 8;
    grid.uniform_samples = 2;

    std::string json[2];
    int jobs[2] = {1, 3};
    for (int i = 0; i < 2; ++i) {
        ExperimentEngine engine(jobs[i], params.wiring_seed);
        auto result = runQueueGrid(grid, engine);
        std::ostringstream os;
        writeQueueGridJson(os, grid, result, engine.baseSeed());
        json[i] = stripTimingFields(os.str());
    }
    if (json[0] != json[1])
        return CheckResult::fail(
            "grid JSON differs between 1 and 3 jobs");
    return CheckResult::pass();
}

TEST(PropQueue, GridJsonIdenticalAtAnyJobsValue)
{
    PropConfig cfg;
    cfg.cases = 12;
    cfg.seed = 0x90e0f;
    cfg.min_size = 2;
    cfg.max_size = 16;
    auto res = forAll<TopoParams>(
        cfg, genTopoParams, jsonJobsInvariance, shrinkTopoParams,
        describeTopoParams);
    EXPECT_TRUE(res.passed) << res.report();
}

using Mixture = std::vector<ShiftedGamma>;

/** A random family and up to ~200 * size components. */
Mixture
genMixture(Rng &rng, int size)
{
    auto family = static_cast<reference::Family>(
        rng.uniform(reference::kFamilies));
    auto n = static_cast<std::size_t>(
        rng.uniformInRange(1, 200 * static_cast<std::int64_t>(size)));
    return reference::randomMixture(rng, family, n);
}

/** Drop either half of the components. */
std::vector<Mixture>
shrinkMixture(const Mixture &mix)
{
    if (mix.size() < 2)
        return {};
    auto half = static_cast<std::ptrdiff_t>(mix.size() / 2);
    return {Mixture(mix.begin(), mix.begin() + half),
            Mixture(mix.begin() + half, mix.end())};
}

std::string
describeMixture(const Mixture &mix)
{
    std::ostringstream os;
    os.precision(17);
    os << mix.size() << " components";
    for (std::size_t i = 0; i < mix.size() && i < 8; ++i)
        os << " {" << mix[i].shift << ", " << mix[i].mean << ", "
           << mix[i].variance << ", " << mix[i].weight << "}";
    return os.str();
}

CheckResult
certifiedQuantileIsPlainBisection(const Mixture &mix)
{
    for (double q : reference::levels()) {
        double want = reference::plainBisectionQuantile(mix, q);
        double got = shiftedGammaMixtureQuantile(mix, q);
        if (!reference::sameBits(want, got)) {
            std::ostringstream err;
            err.precision(17);
            err << "q=" << q << ": plain bisection " << want
                << ", certified replay " << got;
            return CheckResult::fail(err.str());
        }
    }
    return CheckResult::pass();
}

TEST(PropQueue, CertifiedQuantileIsPlainBisection)
{
    PropConfig cfg;
    cfg.cases = 150;
    cfg.seed = 0x90e10;
    cfg.min_size = 1;
    cfg.max_size = 40;
    auto res = forAll<Mixture>(cfg, genMixture,
                               certifiedQuantileIsPlainBisection,
                               shrinkMixture, describeMixture);
    EXPECT_TRUE(res.passed) << res.report();
}

} // namespace
} // namespace rfc
