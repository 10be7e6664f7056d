/**
 * @file
 * Unit tests for the queue engine tier: the per-port contention models
 * (queue/queue_model) against their closed forms, the weighted-sample
 * and shifted-gamma-mixture quantile machinery (util/stats), and the
 * latency sweep (queue/latency) on instances small enough to check by
 * hand - plus the determinism contract (bit-identical results on a
 * thread pool, the tier2-tsan path).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "clos/fat_tree.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "flow/solver.hpp"
#include "mixture_reference.hpp"
#include "queue/latency.hpp"
#include "queue/queue_model.hpp"
#include "routing/updown.hpp"
#include "util/stats.hpp"
#include "util/threadpool.hpp"

namespace rfc {
namespace {

constexpr double kS = 16.0;  // service time used throughout (cycles)

// --- contention models vs closed forms ------------------------------

TEST(QueueModelCore, Mm1MatchesClosedForm)
{
    // M/M/1: E[W] = rho S / (1 - rho),
    // Var[W] = rho (2 - rho) S^2 / (1 - rho)^2.
    Mm1Model m(kS);
    for (double rho : {0.1, 0.5, 0.9, 0.99}) {
        auto w = m.waiting(rho);
        double mean = rho * kS / (1.0 - rho);
        double var =
            rho * (2.0 - rho) * kS * kS / ((1.0 - rho) * (1.0 - rho));
        EXPECT_NEAR(w.mean, mean, 1e-9 * mean) << "rho=" << rho;
        EXPECT_NEAR(w.variance, var, 1e-9 * var) << "rho=" << rho;
    }
}

TEST(QueueModelCore, Md1MatchesClosedForm)
{
    // Deterministic service (cv2 = 0): E[W] = rho S / (2 (1 - rho)),
    // Var[W] = E[W]^2 + rho S^2 / (3 (1 - rho)).
    Mg1Model m(kS, 0.0);
    for (double rho : {0.2, 0.5, 0.8}) {
        auto w = m.waiting(rho);
        double mean = rho * kS / (2.0 * (1.0 - rho));
        double var = mean * mean + rho * kS * kS / (3.0 * (1.0 - rho));
        EXPECT_NEAR(w.mean, mean, 1e-9 * mean) << "rho=" << rho;
        EXPECT_NEAR(w.variance, var, 1e-9 * var) << "rho=" << rho;
        // An M/D/1 queue waits exactly half as long as M/M/1.
        EXPECT_NEAR(2.0 * w.mean, Mm1Model(kS).waiting(rho).mean,
                    1e-9 * mean);
    }
}

TEST(QueueModelCore, Mg1WithCv2OneIsMm1)
{
    Mg1Model g(kS, 1.0);
    Mm1Model m(kS);
    for (double rho : {0.1, 0.4, 0.7, 0.95}) {
        auto a = g.waiting(rho);
        auto b = m.waiting(rho);
        EXPECT_DOUBLE_EQ(a.mean, b.mean) << "rho=" << rho;
        EXPECT_DOUBLE_EQ(a.variance, b.variance) << "rho=" << rho;
    }
}

TEST(QueueModelCore, HistoryWithConstantServiceIsMd1)
{
    Mg1HistoryModel h;
    for (int i = 0; i < 5; ++i)
        h.observe(kS);
    EXPECT_EQ(h.observations(), 5u);
    EXPECT_DOUBLE_EQ(h.meanService(), kS);
    Mg1Model d(kS, 0.0);
    for (double rho : {0.3, 0.6, 0.9}) {
        auto a = h.waiting(rho);
        auto b = d.waiting(rho);
        EXPECT_NEAR(a.mean, b.mean, 1e-12 * b.mean);
        EXPECT_NEAR(a.variance, b.variance, 1e-12 * b.variance);
    }
}

TEST(QueueModelCore, HistoryMixedServiceMatchesHandComputedMoments)
{
    // Observations {8, 24}: m1 = 16, m2 = 320, m3 = 7168.  At rho=0.5,
    // lambda = 1/32: E[W] = (1/32) 320 / (2 * 0.5) = 10,
    // Var = 100 + (1/32) 7168 / (3 * 0.5) = 100 + 448/3.
    Mg1HistoryModel h;
    h.observe(8.0);
    h.observe(24.0);
    EXPECT_DOUBLE_EQ(h.meanService(), 16.0);
    auto w = h.waiting(0.5);
    EXPECT_NEAR(w.mean, 10.0, 1e-12);
    EXPECT_NEAR(w.variance, 100.0 + 448.0 / 3.0, 1e-9);
}

TEST(QueueModelCore, EdgeUtilizations)
{
    Mg1Model m(kS, 0.0);
    auto zero = m.waiting(0.0);
    EXPECT_EQ(zero.mean, 0.0);
    EXPECT_EQ(zero.variance, 0.0);
    for (double rho : {1.0, 1.5}) {
        auto w = m.waiting(rho);
        EXPECT_TRUE(std::isinf(w.mean)) << "rho=" << rho;
        EXPECT_TRUE(std::isinf(w.variance)) << "rho=" << rho;
    }
    EXPECT_THROW(m.waiting(-0.1), std::invalid_argument);
    EXPECT_THROW(m.waiting(std::nan("")), std::invalid_argument);
}

TEST(QueueModelCore, ConstructionAndHistoryErrors)
{
    EXPECT_THROW(Mm1Model(0.0), std::invalid_argument);
    EXPECT_THROW(Mm1Model(-1.0), std::invalid_argument);
    EXPECT_THROW(Mg1Model(kS, -0.5), std::invalid_argument);

    Mg1HistoryModel empty;
    EXPECT_THROW(empty.meanService(), std::logic_error);
    EXPECT_THROW(empty.waiting(0.5), std::logic_error);
    EXPECT_THROW(empty.observe(0.0), std::invalid_argument);
}

TEST(QueueModelCore, FactoryNamesAndClone)
{
    EXPECT_STREQ(makeQueueModel("mm1", kS)->name(), "mm1");
    EXPECT_STREQ(makeQueueModel("md1", kS)->name(), "mg1");
    EXPECT_STREQ(makeQueueModel("mg1", kS, 2.0)->name(), "mg1");
    EXPECT_STREQ(makeQueueModel("mg1-history", kS)->name(),
                 "mg1-history");
    EXPECT_THROW(makeQueueModel("vct", kS), std::invalid_argument);
    EXPECT_THROW(makeQueueModel("mm1", 0.0), std::invalid_argument);

    // "md1" is gamma service with cv2 = 0; the factory honors cv2 only
    // for "mg1".
    auto md1 = makeQueueModel("md1", kS, /*cv2=*/5.0);
    EXPECT_DOUBLE_EQ(md1->waiting(0.5).mean,
                     Mg1Model(kS, 0.0).waiting(0.5).mean);

    // clone() preserves accumulated history.
    Mg1HistoryModel h;
    h.observe(8.0);
    h.observe(24.0);
    auto copy = h.clone();
    EXPECT_DOUBLE_EQ(copy->waiting(0.5).mean, h.waiting(0.5).mean);
}

// --- weighted quantile ----------------------------------------------

TEST(WeightedQuantileCore, SingleAndEqualWeights)
{
    using S = std::vector<std::pair<double, double>>;
    EXPECT_DOUBLE_EQ(weightedQuantile(S{{7.0, 2.0}}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(weightedQuantile(S{{7.0, 2.0}}, 0.5), 7.0);
    EXPECT_DOUBLE_EQ(weightedQuantile(S{{7.0, 2.0}}, 1.0), 7.0);

    // Two equal masses at 1 and 3: midpoints at 0.25 and 0.75.
    S two = {{3.0, 1.0}, {1.0, 1.0}};
    EXPECT_DOUBLE_EQ(weightedQuantile(two, 0.25), 1.0);
    EXPECT_DOUBLE_EQ(weightedQuantile(two, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(weightedQuantile(two, 0.75), 3.0);
    EXPECT_DOUBLE_EQ(weightedQuantile(two, 1.0), 3.0);
}

TEST(WeightedQuantileCore, UnequalWeightsAndZeroWeightSamples)
{
    using S = std::vector<std::pair<double, double>>;
    // Mass 3 at value 1 (midpoint 0.375), mass 1 at value 2
    // (midpoint 0.875); zero-weight samples are ignored.
    S s = {{2.0, 1.0}, {1.0, 3.0}, {99.0, 0.0}};
    EXPECT_DOUBLE_EQ(weightedQuantile(s, 0.375), 1.0);
    EXPECT_DOUBLE_EQ(weightedQuantile(s, 0.875), 2.0);
    EXPECT_DOUBLE_EQ(weightedQuantile(s, 0.625), 1.5);
    EXPECT_DOUBLE_EQ(weightedQuantile(s, 0.1), 1.0);   // clamp low
    EXPECT_DOUBLE_EQ(weightedQuantile(s, 0.99), 2.0);  // clamp high
}

TEST(WeightedQuantileCore, RejectsBadInput)
{
    using S = std::vector<std::pair<double, double>>;
    EXPECT_THROW(weightedQuantile(S{}, 0.5), std::invalid_argument);
    EXPECT_THROW(weightedQuantile(S{{1.0, 0.0}}, 0.5),
                 std::invalid_argument);
    EXPECT_THROW(weightedQuantile(S{{1.0, -1.0}}, 0.5),
                 std::invalid_argument);
    EXPECT_THROW(weightedQuantile(S{{1.0, 1.0}}, 1.5),
                 std::invalid_argument);
}

// --- shifted-gamma mixture quantiles --------------------------------

TEST(GammaMixtureCore, PointMassesAreExact)
{
    // Degenerate components (variance 0) are point masses at
    // shift + mean.
    std::vector<ShiftedGamma> one = {{5.0, 0.0, 0.0, 1.0}};
    for (double q : {0.0, 0.3, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(shiftedGammaMixtureQuantile(one, q), 5.0);

    std::vector<ShiftedGamma> two = {{1.0, 0.0, 0.0, 1.0},
                                     {3.0, 0.0, 0.0, 1.0}};
    EXPECT_NEAR(shiftedGammaMixtureQuantile(two, 0.25), 1.0, 1e-6);
    EXPECT_NEAR(shiftedGammaMixtureQuantile(two, 0.75), 3.0, 1e-6);
    EXPECT_DOUBLE_EQ(shiftedGammaMixtureCdf(two, 2.0), 0.5);
    EXPECT_DOUBLE_EQ(shiftedGammaMixtureCdf(two, 3.0), 1.0);
}

TEST(GammaMixtureCore, ExponentialQuantilesWithinApproximationError)
{
    // mean^2 / variance = 1: the gamma is an exponential with mean 10,
    // whose quantile at q is -10 ln(1 - q).  Wilson-Hilferty is a few
    // percent off at k = 1 (its worst case; accuracy grows with k).
    std::vector<ShiftedGamma> exp1 = {{0.0, 10.0, 100.0, 1.0}};
    double med = shiftedGammaMixtureQuantile(exp1, 0.5);
    double p99 = shiftedGammaMixtureQuantile(exp1, 0.99);
    EXPECT_NEAR(med, 10.0 * std::log(2.0), 0.05 * 10.0 * std::log(2.0));
    EXPECT_NEAR(p99, 10.0 * std::log(100.0),
                0.08 * 10.0 * std::log(100.0));
    // The shift translates every quantile exactly.
    std::vector<ShiftedGamma> shifted = {{21.0, 10.0, 100.0, 1.0}};
    EXPECT_NEAR(shiftedGammaMixtureQuantile(shifted, 0.5), 21.0 + med,
                1e-6 * (21.0 + med));
}

TEST(GammaMixtureCore, QuantileMonotoneInQ)
{
    std::vector<ShiftedGamma> mix = {{20.0, 5.0, 10.0, 2.0},
                                     {24.0, 30.0, 500.0, 1.0},
                                     {18.0, 0.0, 0.0, 0.5}};
    double prev = -1.0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        double v = shiftedGammaMixtureQuantile(mix, std::min(q, 0.999));
        EXPECT_GE(v, prev - 1e-9) << "q=" << q;
        prev = v;
    }
    EXPECT_THROW(shiftedGammaMixtureQuantile({}, 0.5),
                 std::invalid_argument);
    std::vector<ShiftedGamma> bad = {{0.0, 1.0, 1.0, 0.0}};
    EXPECT_THROW(shiftedGammaMixtureQuantile(bad, 0.5),
                 std::invalid_argument);
}

TEST(GammaMixtureCore, CertifiedQuantileMatchesPlainBisection)
{
    // The certified replay answers each bisection step from rounding-
    // error certificates where it can; the result must be the plain
    // bisection's double, bit for bit.
    auto check = [](const std::vector<ShiftedGamma> &mix,
                    const char *family) {
        for (double q : reference::levels()) {
            double want = reference::plainBisectionQuantile(mix, q);
            double got = shiftedGammaMixtureQuantile(mix, q);
            EXPECT_TRUE(reference::sameBits(want, got))
                << family << " n=" << mix.size() << " q=" << q
                << ": plain " << want << " certified " << got;
        }
    };
    const char *names[] = {"fig10-like", "tiny variance", "point masses",
                           "wide weights", "rugged"};
    Rng rng(0xce27);
    for (int rep = 0; rep < 4; ++rep)
        for (int f = 0; f < reference::kFamilies; ++f)
            for (std::size_t n : {1, 7, 300, 3000})
                check(reference::randomMixture(
                          rng, static_cast<reference::Family>(f), n),
                      names[f]);
    check(reference::randomMixture(rng, reference::Family::kFig10, 100000),
          "fig10-like, 100k components");
}

TEST(GammaMixtureCore, PublicCdfIsTheBisectedFunction)
{
    // shiftedGammaMixtureCdf evaluates exactly the function the
    // quantile bisects (same hoisted constants, same operation order).
    Rng rng(0xcdf);
    for (int f = 0; f < reference::kFamilies; ++f) {
        auto mix = reference::randomMixture(
            rng, static_cast<reference::Family>(f), 200);
        for (int i = 0; i < 50; ++i) {
            double x = 15.0 + 60.0 * rng.uniformReal();
            double want = reference::mixtureCdf(mix, x);
            double got = shiftedGammaMixtureCdf(mix, x);
            EXPECT_TRUE(reference::sameBits(want, got))
                << "family " << f << " x=" << x << ": " << want
                << " vs " << got;
        }
    }
}

// --- the latency sweep on a hand-checkable instance -----------------

/** One demand over three unit links in series: rho_l = load on all. */
FlowProblem
tandemProblem()
{
    FlowProblem p;
    auto a = p.addLink(1.0);
    auto b = p.addLink(1.0);
    auto c = p.addLink(1.0);
    p.addDemand(1.0);
    p.addPath({a, b, c});
    return p;
}

TEST(QueueSweepCore, TandemMatchesHandComputation)
{
    auto p = tandemProblem();
    Mg1Model model(kS, 0.0);
    QueueSweepOptions opt;
    opt.loads = {0.25, 0.5, 0.75, 1.0};
    auto r = queueLatencySweep(p, model, opt);

    EXPECT_DOUBLE_EQ(r.saturation, 1.0);
    EXPECT_EQ(r.routed, 1u);
    EXPECT_EQ(r.unrouted, 0u);
    // Floor: 3 hops * link_latency 1 + 16 phits.
    EXPECT_DOUBLE_EQ(r.zero_load_latency, 19.0);
    ASSERT_EQ(r.points.size(), 4u);

    // At load 0.5 every hop waits E[W] = 0.5 * 16 / (2 * 0.5) = 8.
    const auto &mid = r.points[1];
    EXPECT_FALSE(mid.saturated);
    EXPECT_DOUBLE_EQ(mid.max_utilization, 0.5);
    EXPECT_NEAR(mid.mean_latency, 19.0 + 3.0 * 8.0, 1e-9);
    // Single gamma component, right-skewed: median below the mean,
    // p99 well above, everything above the floor.
    EXPECT_GT(mid.p50_latency, 19.0);
    EXPECT_LT(mid.p50_latency, mid.mean_latency);
    EXPECT_GT(mid.p99_latency, mid.mean_latency);

    // Monotone in load below saturation; rho = 1 has no steady state.
    EXPECT_LT(r.points[0].mean_latency, r.points[1].mean_latency);
    EXPECT_LT(r.points[1].mean_latency, r.points[2].mean_latency);
    EXPECT_TRUE(r.points[3].saturated);
    EXPECT_EQ(r.points[3].mean_latency, 0.0);
}

TEST(QueueSweepCore, RejectsBadOptions)
{
    auto p = tandemProblem();
    Mg1Model model(kS, 0.0);
    QueueSweepOptions opt;
    EXPECT_THROW(queueLatencySweep(p, model, opt),
                 std::invalid_argument);  // empty load list
    opt.loads = {0.0};
    EXPECT_THROW(queueLatencySweep(p, model, opt),
                 std::invalid_argument);
    opt.loads = {1.1};
    EXPECT_THROW(queueLatencySweep(p, model, opt),
                 std::invalid_argument);
    opt.loads = {0.5};
    opt.pkt_phits = 0;
    EXPECT_THROW(queueLatencySweep(p, model, opt),
                 std::invalid_argument);
    opt.pkt_phits = 16;
    opt.link_latency = -1;
    EXPECT_THROW(queueLatencySweep(p, model, opt),
                 std::invalid_argument);
}

// --- determinism and conservation on a real topology ----------------

TEST(QueueSweepCore, CftSweepConservationAndPoolInvariance)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8, /*seed=*/7);
    auto dm = makeDemandMatrix("uniform", fc.numTerminals(), 9, 2);

    QueueSweepOptions opt;
    opt.loads = {0.1, 0.3, 0.5};

    auto serial_problem = buildClosFlowProblem(fc, provider, dm);
    Mg1Model serial_model(kS, 0.0);
    auto serial = queueLatencySweep(serial_problem, serial_model, opt);

    // Flow conservation: everything injected is ejected, and both
    // equal the total routed demand weight.
    EXPECT_NEAR(serial.injection_util, serial.offered_weight,
                1e-9 * serial.offered_weight);
    EXPECT_NEAR(serial.ejection_util, serial.offered_weight,
                1e-9 * serial.offered_weight);
    EXPECT_EQ(serial.unrouted, 0u);
    EXPECT_GT(serial.saturation, 0.0);
    EXPECT_LE(serial.saturation, 1.0 + 1e-9);

    // Bit-identical on a pool (the tier2-tsan path): same problem,
    // same model, three workers.
    ThreadPool pool(3);
    auto par_problem = buildClosFlowProblem(fc, provider, dm, &pool);
    Mg1Model par_model(kS, 0.0);
    QueueSweepOptions popt = opt;
    popt.pool = &pool;
    auto par = queueLatencySweep(par_problem, par_model, popt);

    EXPECT_EQ(par.saturation, serial.saturation);
    EXPECT_EQ(par.zero_load_latency, serial.zero_load_latency);
    EXPECT_EQ(par.offered_weight, serial.offered_weight);
    EXPECT_EQ(par.injection_util, serial.injection_util);
    EXPECT_EQ(par.ejection_util, serial.ejection_util);
    ASSERT_EQ(par.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(par.points[i].saturated, serial.points[i].saturated);
        EXPECT_EQ(par.points[i].mean_latency,
                  serial.points[i].mean_latency);
        EXPECT_EQ(par.points[i].p50_latency,
                  serial.points[i].p50_latency);
        EXPECT_EQ(par.points[i].p99_latency,
                  serial.points[i].p99_latency);
        EXPECT_EQ(par.points[i].max_utilization,
                  serial.points[i].max_utilization);
    }
}

} // namespace
} // namespace rfc
