/**
 * @file
 * Property-based tests over up/down routing state (tier 2).
 *
 * For randomized pristine, faulted and expanded topologies, the oracle
 * must agree with an independent common-ancestor computation (Theorem
 * 4.2), its tables must be consistent (symmetric, minimal, bounded by
 * 2(l-1) hops, every advertised hop making progress), and every
 * streamed forwarding-table row must match the oracle exactly - also
 * when the faults are dead links in an overlay rather than removed.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "check/invariants.hpp"
#include "check/prop.hpp"
#include "clos/expansion.hpp"
#include "clos/faults.hpp"
#include "routing/tables.hpp"
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

CheckResult
checkRoutingState(const FoldedClos &fc, std::uint64_t pair_seed)
{
    UpDownOracle oracle(fc);
    CheckResult r = checkCommonAncestorCoverage(fc, oracle);
    if (!r.ok)
        return r;
    Rng rng(pair_seed);
    r = checkUpDownConsistency(fc, oracle, 40, rng);
    if (!r.ok)
        return r;
    return checkForwardingTables(fc, oracle);
}

TEST(PropRouting, OracleConsistentOnGeneratedRfcs)
{
    PropConfig cfg;
    cfg.cases = 50;
    cfg.seed = 201;
    cfg.max_size = 40;
    auto res = forAll<TopoParams>(
        cfg, kGenTopo,
        [](const TopoParams &p) {
            return checkRoutingState(
                materializeTopo(p),
                deriveSeed(p.wiring_seed, 0x70616972ULL, 0));
        },
        kShrinkTopo, kDescribeTopo);
    EXPECT_TRUE(res.passed) << res.report();
    EXPECT_EQ(res.cases_run, 50);
}

TEST(PropRouting, OracleConsistentUnderLinkFaults)
{
    // Fault injection may disconnect leaf pairs; the oracle must stay
    // internally consistent (symmetric unreachability, minimal walks on
    // the pairs that survive) and keep agreeing with the independent
    // ancestor computation.
    PropConfig cfg;
    cfg.cases = 30;
    cfg.seed = 202;
    cfg.max_size = 40;
    auto res = forAll<FaultPlan>(
        cfg, kGenFault,
        [](const FaultPlan &p) {
            return checkRoutingState(
                materializeFaulted(p),
                deriveSeed(p.fault_seed, 0x70616972ULL, 1));
        },
        kShrinkFault, kDescribeFault);
    EXPECT_TRUE(res.passed) << res.report();
}

TEST(PropRouting, TablesMatchOracleUnderDeadLinkOverlay)
{
    // Live faults leave the wiring intact and mark links dead in an
    // overlay; the tables must offer no dead link and no port the
    // oracle's per-entry scan would not.
    PropConfig cfg;
    cfg.cases = 30;
    cfg.seed = 205;
    cfg.max_size = 40;
    auto res = forAll<FaultPlan>(
        cfg, kGenFault,
        [](const FaultPlan &p) {
            const FoldedClos fc = materializeTopo(p.topo);
            LinkFaultState overlay(fc);
            Rng rng(p.fault_seed);
            const auto order = randomLinkOrder(fc, rng);
            const std::size_t cut = std::min<std::size_t>(
                static_cast<std::size_t>(p.faults), order.size() / 4 + 1);
            for (std::size_t i = 0; i < cut; ++i)
                overlay.setLink(order[i].lower, order[i].upper, true);
            UpDownOracle oracle;
            oracle.build(fc, &overlay);
            return checkForwardingTables(fc, oracle);
        },
        kShrinkFault, kDescribeFault);
    EXPECT_TRUE(res.passed) << res.report();
}

TEST(PropRouting, OracleConsistentAfterExpansion)
{
    PropConfig cfg;
    cfg.cases = 20;
    cfg.seed = 203;
    cfg.max_size = 25;
    auto res = forAll<TopoParams>(
        cfg, kGenTopo,
        [](const TopoParams &p) {
            FoldedClos fc = materializeTopo(p);
            Rng rng(deriveSeed(p.wiring_seed, 0x657870ULL, 1));
            ExpansionPlan plan(fc, 1, rng);
            return checkRoutingState(
                plan.finalTopology(),
                deriveSeed(p.wiring_seed, 0x70616972ULL, 2));
        },
        kShrinkTopo, kDescribeTopo);
    EXPECT_TRUE(res.passed) << res.report();
}

TEST(PropRouting, DistancesBoundedByTwiceLevelsMinusOne)
{
    // The 2(l-1) bound is part of checkUpDownConsistency; assert it
    // directly on a sweep of instances as a separate, readable check.
    for (int i = 0; i < 25; ++i) {
        Rng rng(propCaseSeed(204, i));
        TopoParams p = genTopoParams(rng, 30);
        FoldedClos fc = materializeTopo(p);
        UpDownOracle oracle(fc);
        int bound = 2 * (fc.levels() - 1);
        for (int a = 0; a < fc.numLeaves(); ++a)
            for (int b = a + 1; b < fc.numLeaves(); ++b) {
                int d = oracle.leafDistance(a, b);
                if (d >= 0) {
                    EXPECT_LE(d, bound) << describeTopoParams(p);
                    EXPECT_EQ(d % 2, 0);
                }
            }
    }
}

} // namespace
} // namespace rfc
