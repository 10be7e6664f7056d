/**
 * @file
 * Unit tests for the queue engine tier: the per-port contention model
 * (queue/queue_model) against its closed forms, the shifted-gamma
 * mixture machinery (util/stats), and the latency sweep
 * (queue/latency) on instances small enough to check by hand - plus
 * the determinism contract (bit-identical results on a thread pool,
 * the tier2-tsan path) and the merge of equal mixture components,
 * pinned to the sort-and-deduplicate sweep it replaced, to its
 * documented summation order, and at every wave width to a sweep that
 * builds all 32 range partials before merging them.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "flow/demand.hpp"
#include "flow/solver.hpp"
#include "mixture_reference.hpp"
#include "queue/latency.hpp"
#include "queue/queue_model.hpp"
#include "routing/updown.hpp"
#include "switch_paths.hpp"
#include "util/stats.hpp"
#include "util/threadpool.hpp"

namespace rfc {
namespace {

constexpr double kS = 16.0;  // service time used throughout (cycles)

// --- contention model vs closed forms -------------------------------

TEST(QueueModelCore, Mm1MatchesClosedForm)
{
    // M/M/1: E[W] = rho S / (1 - rho),
    // Var[W] = rho (2 - rho) S^2 / (1 - rho)^2.
    QueueModel m(kS, 1.0);
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
    QueueModel m(kS, 0.0);
    for (double rho : {0.2, 0.5, 0.8}) {
        auto w = m.waiting(rho);
        double mean = rho * kS / (2.0 * (1.0 - rho));
        double var = mean * mean + rho * kS * kS / (3.0 * (1.0 - rho));
        EXPECT_NEAR(w.mean, mean, 1e-9 * mean) << "rho=" << rho;
        EXPECT_NEAR(w.variance, var, 1e-9 * var) << "rho=" << rho;
        // An M/D/1 queue waits exactly half as long as M/M/1.
        EXPECT_NEAR(2.0 * w.mean, QueueModel(kS, 1.0).waiting(rho).mean,
                    1e-9 * mean);
    }
}

TEST(QueueModelCore, Mg1WithCv2OneIsMm1)
{
    // The "mm1" preset is the one formula at cv2 = 1; "mg1" at cv2 = 1
    // must give the same doubles.
    auto g = makeQueueModel("mg1", kS, 1.0);
    auto m = makeQueueModel("mm1", kS);
    EXPECT_EQ(m->cv2(), 1.0);
    for (double rho : {0.1, 0.4, 0.7, 0.95}) {
        auto a = g->waiting(rho);
        auto b = m->waiting(rho);
        EXPECT_DOUBLE_EQ(a.mean, b.mean) << "rho=" << rho;
        EXPECT_DOUBLE_EQ(a.variance, b.variance) << "rho=" << rho;
    }
}

TEST(QueueModelCore, EdgeUtilizations)
{
    QueueModel m(kS, 0.0);
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

TEST(QueueModelCore, ConstructionErrors)
{
    EXPECT_THROW(QueueModel(0.0, 0.0), std::invalid_argument);
    EXPECT_THROW(QueueModel(-1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(QueueModel(kS, -0.5), std::invalid_argument);
    EXPECT_THROW(QueueModel(kS, std::nan("")), std::invalid_argument);
}

TEST(QueueModelCore, FactoryPresets)
{
    EXPECT_EQ(makeQueueModel("mm1", kS)->cv2(), 1.0);
    EXPECT_EQ(makeQueueModel("md1", kS)->cv2(), 0.0);
    EXPECT_EQ(makeQueueModel("mg1", kS, 2.0)->cv2(), 2.0);
    EXPECT_THROW(makeQueueModel("vct", kS), std::invalid_argument);
    EXPECT_THROW(makeQueueModel("mg1-history", kS), std::invalid_argument);
    EXPECT_THROW(makeQueueModel("mm1", 0.0), std::invalid_argument);

    // The presets fix cv2: a nonzero one is an error, not ignored.
    EXPECT_THROW(makeQueueModel("md1", kS, /*cv2=*/5.0),
                 std::invalid_argument);
    EXPECT_THROW(makeQueueModel("mm1", kS, /*cv2=*/2.0),
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

TEST(GammaMixtureCore, QuantileIsARootWithinTheBisectionWidth)
{
    // The Newton search must return a root of the mixture CDF at q,
    // within the plain bisection's 1e-9 stop width of its midpoint.
    auto check = [](const std::vector<ShiftedGamma> &mix,
                    const char *family) {
        for (double q : reference::levels()) {
            const double got = shiftedGammaMixtureQuantile(mix, q);
            const std::string fail =
                reference::rootStatementFails(mix, q, got);
            EXPECT_TRUE(fail.empty())
                << family << " n=" << mix.size() << " q=" << q << ": "
                << fail;
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

TEST(GammaMixtureCore, QuantileOnAPointMassJump)
{
    // q falls inside the CDF's jump at the atom at 24: the smooth part
    // has density there, so Newton steps either side keep missing, and
    // the bracket must close on the atom.
    const std::vector<ShiftedGamma> mix = {{18.0, 6.0, 9.0, 1.0},
                                           {24.0, 0.0, 0.0, 2.0},
                                           {20.0, 8.0, 40.0, 1.0}};
    const double below = shiftedGammaMixtureCdf(mix, 24.0 - 1e-6);
    const double at = shiftedGammaMixtureCdf(mix, 24.0);
    ASSERT_LT(below + 0.4, at);
    for (double q : {below + 0.01, 0.5 * (below + at), at}) {
        const double got = shiftedGammaMixtureQuantile(mix, q);
        EXPECT_NEAR(got, 24.0, 24e-9) << q;
        const std::string fail = reference::rootStatementFails(mix, q, got);
        EXPECT_TRUE(fail.empty()) << q << ": " << fail;
    }
}

TEST(GammaMixtureCore, QuantileOfOneTinyVarianceComponent)
{
    // Shape 1e5 puts the whole CDF rise within ~0.1 of 24.1, so the
    // density is 0 over nearly all of the bracket: a Newton step from
    // there leaves it, and only the bracket's upper end keeps it
    // finite until a pass has reached q there.
    const double mean = 6.1;
    const std::vector<ShiftedGamma> mix = {
        {18.0, mean, mean * mean / 1e5, 1.0}};
    for (double q : reference::levels()) {
        const double got = shiftedGammaMixtureQuantile(mix, q);
        if (q > 0.0 && q < 1.0) {
            EXPECT_NEAR(got, 24.1, 0.2) << q;
        }
        const std::string fail = reference::rootStatementFails(mix, q, got);
        EXPECT_TRUE(fail.empty()) << q << ": " << fail;
    }
}

TEST(GammaMixtureCore, NanCdfTerminatesPoolInvariant)
{
    // h = inf (mean^2 underflows against the variance) makes z NaN for
    // every x past the shift, and h = 0 (the shape overflows) makes the
    // density NaN everywhere: the CDF is NaN or a step.  The search
    // must stop within its pass cap and give the same double on a pool.
    const std::vector<std::vector<ShiftedGamma>> mixes = {
        {{20.0, 1e-200, 1.0, 1.0}},
        {{20.0, 4.0, 1e-320, 1.0}},
        {{20.0, 1e-200, 1.0, 1.0}, {22.0, 3.0, 4.0, 1.0}}};
    const std::vector<double> qs = {0.5, 0.99};
    ThreadPool pool(2);
    for (const auto &mix : mixes) {
        const MixtureQuantiles serial = shiftedGammaMixtureQuantiles(mix, qs);
        const MixtureQuantiles par =
            shiftedGammaMixtureQuantiles(mix, qs, &pool);
        EXPECT_LE(serial.cdf_passes, 400u * qs.size());
        EXPECT_EQ(par.cdf_passes, serial.cdf_passes);
        for (std::size_t i = 0; i < qs.size(); ++i)
            EXPECT_TRUE(reference::sameBits(serial.values[i],
                                            par.values[i]))
                << serial.values[i] << " vs " << par.values[i];
    }
}

TEST(GammaMixtureCore, Fig10MixtureQuantilesTakeFewPasses)
{
    // A plain bisection takes ~34 passes per level here; Newton from
    // the subsample guess takes a handful.
    Rng rng(0xce27);
    const auto mix =
        reference::randomMixture(rng, reference::Family::kFig10, 100000);
    for (double q : {0.50, 0.99}) {
        const MixtureQuantiles one = shiftedGammaMixtureQuantiles(mix, {q});
        EXPECT_GT(one.cdf_passes, 0u) << q;
        EXPECT_LE(one.cdf_passes, 6u) << q;
    }
}

TEST(GammaMixtureCore, PublicCdfIsTheBisectedFunction)
{
    // shiftedGammaMixtureCdf evaluates exactly the function the
    // quantile bisects (same hoisted constants, same operation order).
    // The exact pass is staged in blocks of 256 components, so the
    // sizes include odd ones above a block; the point-mass and rugged
    // families mix point masses in.
    Rng rng(0xcdf);
    for (int f = 0; f < reference::kFamilies; ++f) {
        for (std::size_t n : {200, 257, 1001, 4097}) {
            auto mix = reference::randomMixture(
                rng, static_cast<reference::Family>(f), n);
            for (int i = 0; i < 50; ++i) {
                double x = 15.0 + 60.0 * rng.uniformReal();
                double want = reference::mixtureCdf(mix, x);
                double got = shiftedGammaMixtureCdf(mix, x);
                EXPECT_TRUE(reference::sameBits(want, got))
                    << "family " << f << " n=" << n << " x=" << x
                    << ": " << want << " vs " << got;
            }
        }
    }
}

TEST(GammaMixtureCore, QuantilesShareOnePreparedMixture)
{
    // Several levels at once give each single level's double, on a
    // pool too, and count the passes they took.
    Rng rng(0x9a);
    auto mix = reference::randomMixture(rng, reference::Family::kRugged,
                                        3000);
    const std::vector<double> qs = reference::levels();
    ThreadPool pool(3);
    const MixtureQuantiles serial = shiftedGammaMixtureQuantiles(mix, qs);
    const MixtureQuantiles par =
        shiftedGammaMixtureQuantiles(mix, qs, &pool);
    ASSERT_EQ(serial.values.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
        const double one = shiftedGammaMixtureQuantile(mix, qs[i]);
        EXPECT_TRUE(reference::sameBits(serial.values[i], one)) << qs[i];
        EXPECT_TRUE(reference::sameBits(par.values[i], one)) << qs[i];
    }
    EXPECT_GT(serial.cdf_passes, 0u);
    EXPECT_EQ(par.cdf_passes, serial.cdf_passes);
    EXPECT_THROW(shiftedGammaMixtureQuantiles(mix, {0.5, 1.5}),
                 std::invalid_argument);
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
    QueueModel model(kS, 0.0);
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
    QueueModel model(kS, 0.0);
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
    QueueModel serial_model(kS, 0.0);
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
    // Every load is live, so both halves of the sweep took time.
    EXPECT_GT(serial.mixture_seconds, 0.0);
    EXPECT_GT(serial.quantile_seconds, 0.0);

    // Bit-identical on a pool (the tier2-tsan path): same problem,
    // same model, three workers.
    ThreadPool pool(3);
    auto par_problem = buildClosFlowProblem(fc, provider, dm, &pool);
    QueueModel par_model(kS, 0.0);
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

TEST(QueueSweepCore, CdfPassCountsArePoolInvariant)
{
    // The pass counts are deterministic outputs, like the latencies.
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8, /*seed=*/7);
    auto dm = makeDemandMatrix("uniform", fc.numTerminals(), 9, 2);
    auto problem = buildClosFlowProblem(fc, provider, dm);
    QueueModel model(kS, 0.0);
    QueueSweepOptions opt;
    opt.loads = {0.1, 0.5, 0.9, 1.0};

    ThreadPool pool0(0), pool1(1), pool3(3);
    std::vector<QueueSweepResult> runs;
    for (ThreadPool *pool : {&pool0, &pool1, &pool3}) {
        opt.pool = pool;
        runs.push_back(queueLatencySweep(problem, model, opt));
    }
    const auto &want = runs[0].points;
    ASSERT_EQ(want.size(), opt.loads.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (want[i].saturated)
            EXPECT_EQ(want[i].cdf_passes, 0u);
        else
            EXPECT_GT(want[i].cdf_passes, 0u) << i;
        for (const QueueSweepResult &r : runs)
            EXPECT_EQ(r.points[i].cdf_passes, want[i].cdf_passes);
    }
    EXPECT_TRUE(want.back().saturated);
}

// --- merging equal mixture components -------------------------------

/** Every field of two load points, bit for bit. */
void
expectSamePoint(const QueueLoadPoint &a, const QueueLoadPoint &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.load, b.load);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_TRUE(reference::sameBits(a.mean_latency, b.mean_latency));
    EXPECT_TRUE(reference::sameBits(a.p50_latency, b.p50_latency));
    EXPECT_TRUE(reference::sameBits(a.p99_latency, b.p99_latency));
    EXPECT_TRUE(reference::sameBits(a.max_utilization, b.max_utilization));
}

bool
keyLess(const ShiftedGamma &a, const ShiftedGamma &b)
{
    if (a.shift != b.shift)
        return a.shift < b.shift;
    if (a.mean != b.mean)
        return a.mean < b.mean;
    return a.variance < b.variance;
}

/** Sort by key and add up the weights of equal neighbours. */
void
sortDedup(std::vector<ShiftedGamma> &comps)
{
    std::sort(comps.begin(), comps.end(), keyLess);
    std::size_t out = 0;
    for (std::size_t i = 0; i < comps.size(); ++i) {
        if (out > 0 && comps[out - 1].shift == comps[i].shift &&
            comps[out - 1].mean == comps[i].mean &&
            comps[out - 1].variance == comps[i].variance)
            comps[out - 1].weight += comps[i].weight;
        else
            comps[out++] = comps[i];
    }
    comps.resize(out);
}

/**
 * The load points of queueLatencySweep as it was before the hash
 * merge: each of 32 fixed demand ranges sorts and deduplicates its
 * components, then the concatenation is sorted and deduplicated again.
 */
std::vector<QueueLoadPoint>
sortDedupSweep(const FlowProblem &problem, const QueueModel &model,
               const QueueSweepOptions &opt)
{
    const EcmpFluidResult fluid = ecmpFluid(problem);
    double worst_util = 0.0;
    for (double u : fluid.utilization)
        worst_util = std::max(worst_util, u);
    const std::size_t nd = problem.numDemands();
    const double service = static_cast<double>(opt.pkt_phits);
    constexpr std::size_t kRanges = 32;

    std::vector<QueueLoadPoint> points;
    for (double load : opt.loads) {
        QueueLoadPoint pt;
        pt.load = load;
        pt.max_utilization = load * worst_util;
        pt.saturated = load * worst_util >= 1.0 - 1e-12;
        points.push_back(pt);
        if (pt.saturated)
            continue;
        std::vector<QueueDelay> delay;
        for (double u : fluid.utilization)
            delay.push_back(model.waiting(load * u));
        std::vector<ShiftedGamma> comps;
        double wsum = 0.0, wlat = 0.0;
        for (std::size_t rg = 0; rg < kRanges; ++rg) {
            std::vector<ShiftedGamma> part;
            double rsum = 0.0, rlat = 0.0;
            for (std::size_t d = nd * rg / kRanges;
                 d < nd * (rg + 1) / kRanges; ++d) {
                std::size_t np = problem.numPaths(d);
                if (np == 0)
                    continue;
                double share = problem.weight(d) / static_cast<double>(np);
                for (std::size_t q = problem.pathBegin(d);
                     q < problem.pathBegin(d) + np; ++q) {
                    std::size_t len = 0;
                    double wmean = 0.0, wvar = 0.0;
                    problem.forEachLink(d, q, [&](std::int32_t l) {
                        const QueueDelay &w =
                            delay[static_cast<std::size_t>(l)];
                        wmean += w.mean;
                        wvar += w.variance;
                        ++len;
                    });
                    double shift =
                        static_cast<double>(len) * opt.link_latency +
                        service;
                    part.push_back({shift, wmean, wvar, share});
                    rsum += share;
                    rlat += share * (shift + wmean);
                }
            }
            sortDedup(part);
            comps.insert(comps.end(), part.begin(), part.end());
            wsum += rsum;
            wlat += rlat;
        }
        sortDedup(comps);
        points.back().mean_latency = wlat / wsum;
        points.back().p50_latency = shiftedGammaMixtureQuantile(comps, 0.5);
        points.back().p99_latency = shiftedGammaMixtureQuantile(comps, 0.99);
    }
    return points;
}

TEST(QueueSweepCore, MergeMatchesSortDedupReference)
{
    struct Net
    {
        std::string name;
        FoldedClos fc;
    };
    std::vector<Net> nets;
    nets.push_back({"CFT(8,3)", buildCft(8, 3)});
    Rng rng(5);
    nets.push_back({"RFC(8,3,24)", buildRfc(8, 3, 24, rng).topology});
    nets.push_back({"CFT(12,3)", buildCft(12, 3)});

    ThreadPool pool0(0), pool1(1), pool3(3);
    QueueModel model(kS, 0.0);
    for (const Net &net : nets) {
        UpDownOracle oracle(net.fc);
        UpDownEcmpPaths provider(net.fc, oracle, 8, /*seed=*/7);
        for (const char *pattern : {"uniform", "random-pairing"}) {
            auto dm = makeDemandMatrix(pattern, net.fc.numTerminals(), 9, 2);
            auto problem = buildClosFlowProblem(net.fc, provider, dm);
            QueueSweepOptions opt;
            opt.loads = {0.1, 0.3, 0.5, 0.7, 0.9};
            const auto want = sortDedupSweep(problem, model, opt);
            std::size_t live = 0;
            for (const auto &pt : want)
                live += pt.saturated ? 0 : 1;
            EXPECT_GE(live, 2u) << net.name << " " << pattern;
            for (ThreadPool *pool : {&pool0, &pool1, &pool3}) {
                opt.pool = pool;
                const auto got = queueLatencySweep(problem, model, opt);
                ASSERT_EQ(got.points.size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i)
                    expectSamePoint(got.points[i], want[i],
                                    net.name + " " + pattern + " pool " +
                                        std::to_string(pool->size()) +
                                        " load " +
                                        std::to_string(want[i].load));
            }
        }
    }
}

TEST(QueueSweepCore, EqualComponentsMergeInRangeOrder)
{
    // Four demands, so each of the 32 fixed ranges holds at most one
    // (demand d sits in range 8 d + 7).  Demands 0-2 put shares 1/3,
    // 1/14 and 1/7 on one-hop paths over link 0 - one key in three
    // ranges.  Demand 3 sends their range-order sum w over two further
    // links, so all three links carry w and wait alike, and a long
    // wire keeps its two-hop component far from the one-hop one.
    const double shares[3] = {1.0 / 3.0, 1.0 / 14.0, 1.0 / 7.0};
    const double w = (shares[0] + shares[1]) + shares[2];
    const double reversed = (shares[2] + shares[1]) + shares[0];
    ASSERT_NE(w, reversed);  // the association is observable

    FlowProblem p;
    for (int l = 0; l < 3; ++l)
        p.addLink(1.0);
    for (double share : shares) {
        p.addDemand(share);
        p.addPath({0});
    }
    p.addDemand(w);
    p.addPath({1, 2});

    QueueModel model(kS, 0.0);
    QueueSweepOptions opt;
    opt.loads = {0.5};
    opt.link_latency = 1000;
    const QueueDelay d = model.waiting(0.5 * w);

    // Equal weights put the mixture CDF at exactly 1/2 once the
    // one-hop component's CDF rounds to 1, so p50 stays below the
    // two-hop component's origin; a merged weight one ulp lighter
    // would move it past that origin.
    auto mixture = [&](double one_hop_weight) {
        std::vector<ShiftedGamma> m = {
            {1000.0 + kS, d.mean, d.variance, one_hop_weight},
            {2000.0 + kS, d.mean + d.mean, d.variance + d.variance, w}};
        return m;
    };
    const double p50 = shiftedGammaMixtureQuantile(mixture(w), 0.5);
    const double p99 = shiftedGammaMixtureQuantile(mixture(w), 0.99);
    EXPECT_LT(p50, 2000.0 + kS);
    EXPECT_FALSE(reference::sameBits(
        p50, shiftedGammaMixtureQuantile(mixture(reversed), 0.5)));

    QueueLoadPoint want;
    want.load = 0.5;
    want.max_utilization = 0.5 * w;
    want.p50_latency = p50;
    want.p99_latency = p99;
    double wsum = 0.0, wlat = 0.0;
    for (double share : shares) {
        wsum += share;
        wlat += share * (1000.0 + kS + d.mean);
    }
    wsum += w;
    wlat += w * (2000.0 + kS + (d.mean + d.mean));
    want.mean_latency = wlat / wsum;

    ThreadPool pool0(0), pool1(1), pool3(3);
    for (ThreadPool *pool : {&pool0, &pool1, &pool3}) {
        opt.pool = pool;
        const auto r = queueLatencySweep(p, model, opt);
        ASSERT_EQ(r.points.size(), 1u);
        expectSamePoint(r.points[0], want,
                        "pool " + std::to_string(pool->size()));
    }
}

// --- the waves of range partials ------------------------------------

/**
 * The load points of queueLatencySweep before it built its ranges in
 * waves: all 32 range partials first, each merging equal keys in path
 * order (a key's first occurrence kept, later weights added to it),
 * then one merge of the partials in range order, one sort, and both
 * quantiles from one prepared mixture - pass counts and the unique
 * component count included.
 */
std::vector<QueueLoadPoint>
allPartialsSweep(const FlowProblem &problem, const QueueModel &model,
                 const QueueSweepOptions &opt)
{
    using Key = std::tuple<double, double, double>;
    auto mergeInto = [](std::vector<ShiftedGamma> &into,
                        std::map<Key, std::size_t> &at,
                        const ShiftedGamma &c) {
        auto [it, fresh] =
            at.try_emplace(Key{c.shift, c.mean, c.variance}, into.size());
        if (fresh)
            into.push_back(c);
        else
            into[it->second].weight += c.weight;
    };
    const EcmpFluidResult fluid = ecmpFluid(problem);
    double worst_util = 0.0;
    for (double u : fluid.utilization)
        worst_util = std::max(worst_util, u);
    const std::size_t nd = problem.numDemands();
    const double service = static_cast<double>(opt.pkt_phits);
    constexpr std::size_t kRanges = 32;

    std::vector<QueueLoadPoint> points;
    for (double load : opt.loads) {
        QueueLoadPoint pt;
        pt.load = load;
        pt.max_utilization = load * worst_util;
        pt.saturated = load * worst_util >= 1.0 - 1e-12;
        if (pt.saturated) {
            points.push_back(pt);
            continue;
        }
        std::vector<QueueDelay> delay;
        for (double u : fluid.utilization)
            delay.push_back(model.waiting(load * u));
        std::vector<std::vector<ShiftedGamma>> parts(kRanges);
        std::vector<double> rsum(kRanges, 0.0), rlat(kRanges, 0.0);
        for (std::size_t rg = 0; rg < kRanges; ++rg) {
            std::map<Key, std::size_t> at;
            for (std::size_t d = nd * rg / kRanges;
                 d < nd * (rg + 1) / kRanges; ++d) {
                std::size_t np = problem.numPaths(d);
                if (np == 0)
                    continue;
                double share = problem.weight(d) / static_cast<double>(np);
                for (std::size_t q = problem.pathBegin(d);
                     q < problem.pathBegin(d) + np; ++q) {
                    std::size_t len = 0;
                    double wmean = 0.0, wvar = 0.0;
                    problem.forEachLink(d, q, [&](std::int32_t l) {
                        const QueueDelay &w =
                            delay[static_cast<std::size_t>(l)];
                        wmean += w.mean;
                        wvar += w.variance;
                        ++len;
                    });
                    double shift =
                        static_cast<double>(len) * opt.link_latency +
                        service;
                    mergeInto(parts[rg], at, {shift, wmean, wvar, share});
                    rsum[rg] += share;
                    rlat[rg] += share * (shift + wmean);
                }
            }
        }
        std::vector<ShiftedGamma> comps;
        std::map<Key, std::size_t> at;
        double wsum = 0.0, wlat = 0.0;
        for (std::size_t rg = 0; rg < kRanges; ++rg) {
            for (const ShiftedGamma &c : parts[rg])
                mergeInto(comps, at, c);
            wsum += rsum[rg];
            wlat += rlat[rg];
        }
        std::sort(comps.begin(), comps.end(), keyLess);
        pt.mean_latency = wlat / wsum;
        const MixtureQuantiles qv =
            shiftedGammaMixtureQuantiles(comps, {0.50, 0.99});
        pt.p50_latency = qv.values[0];
        pt.p99_latency = qv.values[1];
        pt.cdf_passes = qv.cdf_passes;
        pt.mixture_components = comps.size();
        points.push_back(pt);
    }
    return points;
}

/** The CSR of @p a equals that of @p b, end links included. */
void
expectSameCsr(const FlowProblem &a, const FlowProblem &b,
              const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(a.numLinks(), b.numLinks());
    ASSERT_EQ(a.numDemands(), b.numDemands());
    ASSERT_EQ(a.numPathsTotal(), b.numPathsTotal());
    for (std::size_t d = 0; d < a.numDemands(); ++d) {
        EXPECT_EQ(a.weight(d), b.weight(d));
        EXPECT_EQ(a.pathBegin(d), b.pathBegin(d));
        EXPECT_EQ(a.srcLink(d), b.srcLink(d));
        EXPECT_EQ(a.dstLink(d), b.dstLink(d));
        for (std::size_t q = a.pathBegin(d); q < a.pathBegin(d) + a.numPaths(d);
             ++q)
            EXPECT_EQ(linkSequence(a, d, q), linkSequence(b, d, q))
                << "path " << q;
    }
}

TEST(QueueSweepCore, WaveWidthCannotMoveABit)
{
    struct Net
    {
        std::string name;
        FoldedClos fc;
    };
    std::vector<Net> nets;
    nets.push_back({"CFT(8,3)", buildCft(8, 3)});
    Rng rng(5);
    nets.push_back({"RFC(8,3,24)", buildRfc(8, 3, 24, rng).topology});
    Rng cut_rng(13);
    Net faulted{"RFC(6,3,14) minus 20 links",
                buildRfcUnchecked(6, 3, 14, cut_rng)};
    removeRandomLinks(faulted.fc, 20, cut_rng);
    nets.push_back(std::move(faulted));

    // Serial, then waves of 2 and 4 ranges.
    ThreadPool pool1(1), pool3(3);
    const std::vector<ThreadPool *> pools = {nullptr, &pool1, &pool3};
    QueueModel model(kS, 0.0);
    QueueSweepOptions opt;
    opt.loads = {0.1, 0.4, 0.7, 1.0};
    std::size_t unrouted = 0, few = 0, live = 0;
    for (const Net &net : nets) {
        UpDownOracle oracle(net.fc);
        UpDownEcmpPaths provider(net.fc, oracle, 8, /*seed=*/7);
        const DemandMatrix all =
            makeDemandMatrix("uniform", net.fc.numTerminals(), 9, 2);
        DemandMatrix some;  // fewer demands than ranges
        some.nodes = all.nodes;
        for (std::size_t k = 0; k < 7; ++k)
            some.demands.push_back(all.demands[k * all.demands.size() / 7]);
        const DemandMatrix *sets[] = {&all, &some};
        for (const DemandMatrix *dm : sets) {
            const std::string what =
                net.name + " " + std::to_string(dm->demands.size()) +
                " demands";
            const FlowProblem serial =
                buildClosFlowProblem(net.fc, provider, *dm);
            const auto want = allPartialsSweep(serial, model, opt);
            for (ThreadPool *pool : pools) {
                const std::string where =
                    what + " pool " +
                    (pool ? std::to_string(pool->size()) : "null");
                expectSameCsr(
                    buildClosFlowProblem(net.fc, provider, *dm, pool), serial,
                    where);
                opt.pool = pool;
                const auto got = queueLatencySweep(serial, model, opt);
                ASSERT_EQ(got.points.size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i) {
                    const QueueLoadPoint &g = got.points[i];
                    const std::string at =
                        where + " load " + std::to_string(want[i].load);
                    expectSamePoint(g, want[i], at);
                    EXPECT_EQ(g.cdf_passes, want[i].cdf_passes) << at;
                    EXPECT_EQ(g.mixture_components,
                              want[i].mixture_components)
                        << at;
                    if (want[i].saturated)
                        EXPECT_EQ(g.mixture_components, 0u) << at;
                    else
                        EXPECT_GT(g.mixture_components, 0u) << at;
                }
            }
            for (std::size_t d = 0; d < serial.numDemands(); ++d)
                unrouted += serial.numPaths(d) == 0 ? 1 : 0;
            few += dm->demands.size() < 32 ? 1 : 0;
            for (const auto &pt : want)
                live += pt.saturated ? 0 : 1;
        }
    }
    EXPECT_GT(unrouted, 0u);  // the faulted RFC strands some demands
    EXPECT_EQ(few, nets.size());
    EXPECT_GT(live, 2 * nets.size());
}

} // namespace
} // namespace rfc
