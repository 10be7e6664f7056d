/**
 * @file
 * Property-based tests over randomized folded Clos topologies (tier 2).
 *
 * Hundreds of generated instances exercise the structural invariants of
 * Definition 3.1 (biregular mirrored level wiring), the serialization
 * round trip, expansion- and fault-operation behavior, plus an
 * empirical check of the Theorem 4.2 success probability against
 * e^{-e^{-x}}.  Every suite uses a fixed base seed, so CI runs are
 * deterministic; a failing property prints the per-case seed and the
 * shrunk counterexample for replayOne().
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "check/invariants.hpp"
#include "check/prop.hpp"
#include "clos/expansion.hpp"
#include "clos/rfc.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

const std::function<TopoParams(Rng &, int)> kGenTopo = genTopoParams;
const std::function<std::vector<TopoParams>(const TopoParams &)>
    kShrinkTopo = shrinkTopoParams;
const std::function<std::string(const TopoParams &)> kDescribeTopo =
    describeTopoParams;

const std::function<FaultPlan(Rng &, int)> kGenFault = genFaultPlan;
const std::function<std::vector<FaultPlan>(const FaultPlan &)>
    kShrinkFault = shrinkFaultPlan;
const std::function<std::string(const FaultPlan &)> kDescribeFault =
    describeFaultPlan;

TEST(PropTopology, GeneratedRfcsSatisfyAllStructuralInvariants)
{
    PropConfig cfg;
    cfg.cases = 60;
    cfg.seed = 101;
    cfg.max_size = 50;
    auto res = forAll<TopoParams>(
        cfg, kGenTopo,
        [](const TopoParams &p) {
            return checkAllStructural(materializeTopo(p));
        },
        kShrinkTopo, kDescribeTopo);
    EXPECT_TRUE(res.passed) << res.report();
    EXPECT_EQ(res.cases_run, 60);
}

TEST(PropTopology, ExpansionPreservesStructuralInvariants)
{
    PropConfig cfg;
    cfg.cases = 25;
    cfg.seed = 102;
    cfg.max_size = 30;
    auto res = forAll<TopoParams>(
        cfg, kGenTopo,
        [](const TopoParams &p) {
            FoldedClos fc = materializeTopo(p);
            Rng rng(deriveSeed(p.wiring_seed, 0x657870ULL, 0));
            int steps = 1 + static_cast<int>(p.wiring_seed % 2);
            ExpansionPlan plan(fc, steps, rng);
            const FoldedClos &grown = plan.finalTopology();
            CheckResult r = checkAllStructural(grown);
            if (!r.ok)
                return r;
            if (grown.numLeaves() != fc.numLeaves() + 2 * steps)
                return CheckResult::fail(
                    "expansion added " +
                    std::to_string(grown.numLeaves() - fc.numLeaves()) +
                    " leaves for " + std::to_string(steps) + " steps");
            return CheckResult::pass();
        },
        kShrinkTopo, kDescribeTopo);
    EXPECT_TRUE(res.passed) << res.report();
}

TEST(PropTopology, StagedPlanReplaysOfflineExpansionInPlace)
{
    // For every generated base and seed, replaying the staged rewires
    // in place (preStaged -> applyStage, the live-drill path) must land
    // sameTopology-equal to the plan's own end state and keep radix
    // regularity, and the stages must hold every counted rewire.
    PropConfig cfg;
    cfg.cases = 20;
    cfg.seed = 107;
    cfg.max_size = 30;
    auto res = forAll<TopoParams>(
        cfg, kGenTopo,
        [](const TopoParams &p) {
            FoldedClos fc = materializeTopo(p);
            int steps = 1 + static_cast<int>(p.wiring_seed % 2);
            Rng rng(deriveSeed(p.wiring_seed, 0x706c61ULL, 0));
            ExpansionPlan plan(fc, steps, rng);
            FoldedClos live = plan.preStaged();
            for (const ExpansionStage &st : plan.stages())
                plan.applyStage(live, st);
            CheckResult r = sameTopology(live, plan.finalTopology());
            if (!r.ok)
                return CheckResult::fail("staged replay diverged: " +
                                         r.message);
            if (!live.isRadixRegular())
                return CheckResult::fail(
                    "staged replay broke radix regularity");
            long long ops = 0;
            for (const ExpansionStage &st : plan.stages())
                ops += static_cast<long long>(st.ops.size());
            if (plan.rewired() != ops)
                return CheckResult::fail("rewire count diverged");
            return CheckResult::pass();
        },
        kShrinkTopo, kDescribeTopo);
    EXPECT_TRUE(res.passed) << res.report();
    EXPECT_EQ(res.cases_run, 20);
}

TEST(PropTopology, FaultedTopologiesKeepLevelStructureAndRoundTrip)
{
    PropConfig cfg;
    cfg.cases = 30;
    cfg.seed = 103;
    cfg.max_size = 40;
    auto res = forAll<FaultPlan>(
        cfg, kGenFault,
        [](const FaultPlan &p) {
            FoldedClos fc = materializeFaulted(p);
            CheckResult r = checkLevelStructure(fc);
            if (!r.ok)
                return r;
            r = checkRoundTrip(fc);
            if (!r.ok)
                return r;
            // Removing links must break biregularity - if the checker
            // still passes, it is vacuous.
            if (checkBipartiteRegular(fc).ok)
                return CheckResult::fail(
                    "biregularity survived link removal");
            return CheckResult::pass();
        },
        kShrinkFault, kDescribeFault);
    EXPECT_TRUE(res.passed) << res.report();
}

TEST(PropTopology, Theorem42ProbabilityMatchesEmpiricalRate)
{
    // Theorem 4.2's core step is Poissonization: with lambda = e^{-x}
    // the expected number of uncovered leaf pairs, P(routable) ->
    // e^{-lambda} = e^{-e^{-x}}.  At 2 levels a pair is uncovered iff
    // its two parent sets (R/2 switches each, drawn from the n1/2 top
    // switches) are disjoint, so lambda is exactly C(n1,2) times a
    // hypergeometric disjointness probability - use that exact value
    // rather than the theorem's additional (R/2)^2/(n1/2) exponent
    // approximation, which only kicks in at much larger n1.
    const int n1 = 60, levels = 2, radix = 24;
    const int tops = n1 / 2, k = radix / 2;
    double log_disjoint = 0.0;
    for (int i = 0; i < k; ++i)
        log_disjoint += std::log(static_cast<double>(tops - k - i)) -
                        std::log(static_cast<double>(tops - i));
    double lambda = 0.5 * n1 * (n1 - 1) * std::exp(log_disjoint);
    double predicted = std::exp(-lambda);  // e^{-e^{-x}}, x = -ln lambda
    ASSERT_GT(predicted, 0.2);
    ASSERT_LT(predicted, 0.9);

    const int trials = 300;
    int routable = 0;
    for (int i = 0; i < trials; ++i) {
        Rng rng(propCaseSeed(104, i));
        FoldedClos fc = buildRfcUnchecked(radix, levels, n1, rng);
        UpDownOracle oracle(fc);
        if (oracle.routable())
            ++routable;
    }
    double empirical = static_cast<double>(routable) / trials;
    // ~4 binomial standard deviations plus slack for the residual
    // pair-dependence ignored by the Poisson approximation.
    double sd = std::sqrt(predicted * (1.0 - predicted) / trials);
    EXPECT_NEAR(empirical, predicted, 4.0 * sd + 0.06)
        << "lambda=" << lambda << " predicted=" << predicted
        << " empirical=" << empirical;

    // The library's closed form uses the asymptotic exponent, which
    // overestimates lambda at this size - so it must underestimate the
    // success probability, never overestimate it.
    EXPECT_GE(empirical + 0.05,
              rfcThresholdPrediction(radix, levels, n1).p_routable);
}

TEST(PropTopology, WellAboveThresholdAlmostAlwaysRoutable)
{
    // Two steps of radix above the threshold pushes x up and the
    // predicted probability to ~1; the empirical rate must follow.
    // Theorem 4.2's threshold for N1 = 60, l = 2 is the smallest even R
    // with (R/2)^2 >= (60/2) ln C(60, 2) = 30 ln 1770 ~ 224.4, i.e.
    // R = 30 (15^2 = 225).  Two steps above it: 30 + 4 = 34.
    const int n1 = 60, levels = 2;
    const int radix = 34;
    int routable = 0;
    const int trials = 60;
    for (int i = 0; i < trials; ++i) {
        Rng rng(propCaseSeed(105, i));
        FoldedClos fc = buildRfcUnchecked(radix, levels, n1, rng);
        if (UpDownOracle(fc).routable())
            ++routable;
    }
    EXPECT_GE(routable, trials - 2);
}

TEST(PropTopology, FailingPropertyReportsSeedAndShrinks)
{
    // An artificial property that rejects any topology with more than
    // four leaves: forAll must fail, shrink toward the minimum, and
    // report replayable coordinates.
    PropConfig cfg;
    cfg.cases = 40;
    cfg.seed = 106;
    cfg.min_size = 30;  // start big so shrinking has real work to do
    cfg.max_size = 50;
    auto prop = [](const TopoParams &p) {
        if (p.n1 > 4)
            return CheckResult::fail("n1 too large: " +
                                     std::to_string(p.n1));
        return CheckResult::pass();
    };
    auto res = forAll<TopoParams>(cfg, kGenTopo, prop, kShrinkTopo,
                                  kDescribeTopo);
    ASSERT_FALSE(res.passed);
    // Greedy shrinking over the n1-halving candidates must reach the
    // smallest still-failing instance.
    EXPECT_GE(res.shrink_steps, 1);
    EXPECT_NE(res.counterexample.find("n1=6"), std::string::npos)
        << res.counterexample;
    EXPECT_NE(res.report().find("seed="), std::string::npos);
    EXPECT_NE(res.report().find("replay"), std::string::npos);

    // The reported coordinates reproduce the failure exactly.
    auto replay = replayOne<TopoParams>(res.failing_seed,
                                        res.failing_size, kGenTopo, prop);
    EXPECT_FALSE(replay.ok);
}

TEST(PropTopology, CaseSeedsAreDistinctAndDeterministic)
{
    EXPECT_EQ(propCaseSeed(1, 0), propCaseSeed(1, 0));
    EXPECT_NE(propCaseSeed(1, 0), propCaseSeed(1, 1));
    EXPECT_NE(propCaseSeed(1, 0), propCaseSeed(2, 0));
}

} // namespace
} // namespace rfc
