/**
 * @file
 * Unit tests for the flow-level throughput engine (src/flow): demand
 * matrices, ECMP path enumeration, and the Garg-Konemann max
 * concurrent flow solver on hand-solvable instances with known optima.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "clos/fat_tree.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "flow/solver.hpp"
#include "routing/updown.hpp"
#include "switch_paths.hpp"
#include "util/threadpool.hpp"

namespace rfc {
namespace {

/** Recompute link loads from the path-flow certificate and verify
 * capacity feasibility plus per-demand delivery at lambda. */
void
verifyCertificate(const FlowProblem &p, const FlowSolution &s,
                  double tol = 1e-9)
{
    std::vector<double> load(static_cast<std::size_t>(p.numLinks()),
                             0.0);
    for (std::size_t d = 0; d < p.numDemands(); ++d) {
        double delivered = 0.0;
        std::size_t pb = p.pathBegin(d);
        for (std::size_t q = pb; q < pb + p.numPaths(d); ++q) {
            delivered += s.path_flow[q];
            p.forEachLink(d, q, [&](std::int32_t l) {
                load[l] += s.path_flow[q];
            });
        }
        if (p.numPaths(d) > 0)
            EXPECT_NEAR(delivered, s.throughput * p.weight(d),
                        tol + 1e-9 * s.throughput)
                << "demand " << d;
    }
    for (std::int32_t l = 0; l < p.numLinks(); ++l)
        EXPECT_LE(load[l], p.capacity(l) * (1.0 + tol)) << "link " << l;
}

TEST(FlowProblem, ValidatesInput)
{
    FlowProblem p;
    EXPECT_THROW(p.addLink(0.0), std::invalid_argument);
    EXPECT_THROW(p.addPath({0}), std::logic_error);
    std::int32_t l = p.addLink(1.0);
    p.addDemand(1.0);
    EXPECT_THROW(p.addPath({}), std::invalid_argument);
    EXPECT_THROW(p.addPath({l + 1}), std::out_of_range);
    p.addPath({l});
    EXPECT_EQ(p.numPathsTotal(), 1u);
    EXPECT_EQ(p.numPaths(0), 1u);
    EXPECT_EQ(linkSequence(p, 0, 0), std::vector<std::int32_t>{l});
}

TEST(FlowProblem, ValidatesEndLinks)
{
    FlowProblem p;
    const std::int32_t a = p.addLink(1.0), b = p.addLink(1.0);
    // An end must be a link id or -1.
    EXPECT_THROW(p.addDemand(1.0, b + 1), std::out_of_range);
    EXPECT_THROW(p.addDemand(1.0, -1, b + 1), std::out_of_range);
    EXPECT_THROW(p.addDemand(1.0, -2), std::out_of_range);
    EXPECT_THROW(p.addDemand(1.0, a, -5), std::out_of_range);
    EXPECT_EQ(p.numDemands(), 0u);

    // A path may be empty only for a demand with an end link.
    p.addDemand(1.0);
    EXPECT_THROW(p.addPath({}), std::invalid_argument);
    p.addDemand(1.0, a);
    p.addPath({});
    p.addDemand(1.0, -1, b);
    p.addPath({});
    p.addDemand(1.0, a, b);
    p.addPath({});
    p.addPath({b, a});
    EXPECT_EQ(p.numPathsTotal(), 4u);
    EXPECT_EQ(p.numPaths(0), 0u);

    EXPECT_EQ(p.srcLink(0), -1);
    EXPECT_EQ(p.dstLink(0), -1);
    EXPECT_EQ(p.srcLink(1), a);
    EXPECT_EQ(p.dstLink(1), -1);
    EXPECT_EQ(p.srcLink(2), -1);
    EXPECT_EQ(p.dstLink(2), b);
    using Seq = std::vector<std::int32_t>;
    EXPECT_EQ(linkSequence(p, 1, p.pathBegin(1)), Seq{a});
    EXPECT_EQ(linkSequence(p, 2, p.pathBegin(2)), Seq{b});
    // Source end, the path's links, then the destination end.
    EXPECT_EQ(linkSequence(p, 3, p.pathBegin(3)), (Seq{a, b}));
    EXPECT_EQ(linkSequence(p, 3, p.pathBegin(3) + 1), (Seq{a, b, a, b}));
}

TEST(FlowProblem, RejectsNonFiniteCapacityAndWeight)
{
    // NaN fails every comparison, so a bare "<= 0" test lets it
    // through to the solver.  Each message names its field.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    auto message = [](auto &&call) {
        try {
            call();
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("no throw");
    };
    FlowProblem p;
    for (double bad : {nan, inf, -inf, -1.0}) {
        EXPECT_NE(message([&] { p.addLink(bad); }).find("link capacity"),
                  std::string::npos)
            << bad;
        EXPECT_NE(message([&] { p.addDemand(bad); }).find("demand weight"),
                  std::string::npos)
            << bad;
    }
    EXPECT_EQ(p.numLinks(), 0);
    EXPECT_EQ(p.numDemands(), 0u);
    EXPECT_NE(message([&] { p.addDemand(nan); }).find("nan"),
              std::string::npos);
    // The largest finite values are still accepted.
    p.addLink(std::numeric_limits<double>::max());
    p.addDemand(std::numeric_limits<double>::max());
    EXPECT_EQ(p.numLinks(), 1);
}

TEST(FlowSolver, TwoDemandsSharedLink)
{
    // Two unit demands forced over one unit link: lambda = 1/2.
    FlowProblem p;
    std::int32_t shared = p.addLink(1.0);
    for (int d = 0; d < 2; ++d) {
        p.addDemand(1.0);
        p.addPath({shared});
    }
    auto s = solveMaxConcurrentFlow(p);
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.throughput, 0.5, 1e-9);  // exact from phase 1
    EXPECT_GE(s.dual_bound, s.throughput);
    EXPECT_NEAR(s.utilization[static_cast<std::size_t>(shared)], 1.0,
                1e-9);
    verifyCertificate(p, s);
}

TEST(FlowSolver, StarThreeThroughHub)
{
    // Three demands, each with a private spoke but all crossing one
    // hub link: lambda = 1/3, the hub is the only bottleneck.
    FlowProblem p;
    std::int32_t hub = p.addLink(1.0);
    for (int d = 0; d < 3; ++d) {
        std::int32_t spoke = p.addLink(1.0);
        p.addDemand(1.0);
        p.addPath({spoke, hub});
    }
    auto s = solveMaxConcurrentFlow(p);
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.throughput, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(s.utilization[static_cast<std::size_t>(hub)], 1.0, 1e-9);
    verifyCertificate(p, s);
}

TEST(FlowSolver, ParallelPathsAddCapacity)
{
    // One unit demand over two disjoint unit links: optimum 2; the
    // approximation must certify at least (1 - eps) of it.
    FlowProblem p;
    std::int32_t a = p.addLink(1.0), b = p.addLink(1.0);
    p.addDemand(1.0);
    p.addPath({a});
    p.addPath({b});
    SolveOptions opt;
    opt.epsilon = 0.05;
    auto s = solveMaxConcurrentFlow(p, opt);
    EXPECT_TRUE(s.converged);
    EXPECT_GE(s.throughput, 2.0 * (1.0 - opt.epsilon) - 1e-9);
    EXPECT_LE(s.throughput, 2.0 + 1e-9);
    EXPECT_LE(s.throughput, s.dual_bound + 1e-9);
    verifyCertificate(p, s);
}

TEST(FlowSolver, UnequalWeightsEqualizeProportionally)
{
    // Demands of weight 2 and 1 over one unit link: lambda = 1/3, so
    // the heavy demand gets 2/3 and the light one 1/3.
    FlowProblem p;
    std::int32_t shared = p.addLink(1.0);
    p.addDemand(2.0);
    p.addPath({shared});
    p.addDemand(1.0);
    p.addPath({shared});
    auto s = solveMaxConcurrentFlow(p);
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.throughput, 1.0 / 3.0, 1e-9);
    verifyCertificate(p, s);
}

TEST(FlowSolver, UnroutedDemandsAreCountedAndSkipped)
{
    FlowProblem p;
    std::int32_t l = p.addLink(1.0);
    p.addDemand(1.0);
    p.addPath({l});
    p.addDemand(1.0);  // no candidate paths: unrouted
    auto s = solveMaxConcurrentFlow(p);
    EXPECT_EQ(s.routed_demands, 1u);
    EXPECT_EQ(s.unrouted_demands, 1u);
    EXPECT_NEAR(s.throughput, 1.0, 1e-9);
}

TEST(FlowSolver, SameLeafDemandIsCappedByItsTerminalLinks)
{
    // Terminals 0 and 1 share a leaf, so their demand gets one path of
    // no switch link and crosses only its injection and ejection links:
    // at weight 2 it caps lambda at exactly 1/2, its two terminal
    // links are the bottlenecks, and a cross-leaf demand of weight 1
    // rides along.
    auto fc = buildCft(4, 2);
    ASSERT_EQ(fc.leafOfTerminal(0), fc.leafOfTerminal(1));
    ASSERT_NE(fc.leafOfTerminal(2), fc.leafOfTerminal(5));
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8);
    DemandMatrix dm;
    dm.nodes = fc.numTerminals();
    dm.demands = {{0, 1, 2.0}, {2, 5, 1.0}};
    auto p = buildClosFlowProblem(fc, provider, dm);

    ASSERT_EQ(p.numPaths(0), 1u);
    const std::vector<std::int32_t> seq =
        linkSequence(p, 0, p.pathBegin(0));
    EXPECT_EQ(seq, (std::vector<std::int32_t>{p.srcLink(0), p.dstLink(0)}));
    EXPECT_NE(p.srcLink(0), p.dstLink(0));
    EXPECT_EQ(linkSequence(p, 1, p.pathBegin(1)).size(), 4u);

    auto s = solveMaxConcurrentFlow(p);
    EXPECT_NEAR(s.throughput, 0.5, 1e-12);
    EXPECT_LE(s.throughput, s.dual_bound + 1e-9);
    for (std::int32_t l : seq)
        EXPECT_NEAR(s.utilization[static_cast<std::size_t>(l)], 1.0, 1e-12);
    verifyCertificate(p, s);

    auto r = ecmpFluid(p);
    EXPECT_NEAR(r.demand_throughput[0], 0.5, 1e-12);
    EXPECT_NEAR(r.saturation, 0.5, 1e-12);
}

TEST(FlowSolver, CftUniformNearUnity)
{
    // A fat tree is non-blocking: exact uniform demand saturates at
    // lambda = 1.  The approximation certifies >= (1 - eps).
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8);
    auto dm = exactUniformDemand(fc.numTerminals());
    auto p = buildClosFlowProblem(fc, provider, dm);
    SolveOptions opt;
    opt.epsilon = 0.05;
    opt.max_phases = 2000;
    auto s = solveMaxConcurrentFlow(p, opt);
    EXPECT_TRUE(s.converged);
    EXPECT_GE(s.throughput, 0.9);
    EXPECT_LE(s.throughput, 1.0 + 1e-6);
    EXPECT_LE(s.throughput, s.dual_bound + 1e-9);
    verifyCertificate(p, s, 1e-6);

    // Injection links cap lambda at 1 / maxInjection exactly.
    EXPECT_LE(s.throughput, 1.0 / dm.maxInjection() + 1e-9);
}

TEST(FlowSolver, EcmpFluidSharedAndParallel)
{
    // Demand A splits evenly over two paths that both start on link s,
    // which it also shares with single-path demand B: s carries all of
    // A (both halves cross it) plus B, while a and b carry half each.
    FlowProblem p;
    std::int32_t s = p.addLink(1.0), a = p.addLink(1.0),
                 b = p.addLink(1.0);
    p.addDemand(1.0);
    p.addPath({s, a});
    p.addPath({s, b});
    p.addDemand(1.0);
    p.addPath({s});
    auto r = ecmpFluid(p);
    EXPECT_NEAR(r.utilization[static_cast<std::size_t>(s)], 2.0, 1e-12);
    EXPECT_NEAR(r.utilization[static_cast<std::size_t>(a)], 0.5, 1e-12);
    EXPECT_NEAR(r.saturation, 0.5, 1e-12);
    EXPECT_NEAR(r.demand_throughput[0], 0.5, 1e-12);
    EXPECT_NEAR(r.demand_throughput[1], 0.5, 1e-12);
    EXPECT_NEAR(r.worst, 0.5, 1e-12);
    EXPECT_NEAR(r.average, 0.5, 1e-12);
}

TEST(FlowSolver, DeterministicAcrossPools)
{
    auto fc = buildCft(6, 2);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8);
    auto dm = makeDemandMatrix("uniform", fc.numTerminals(), 77, 3);

    SolveOptions opt;
    opt.block = 64;  // force several blocks per phase
    auto serial_p = buildClosFlowProblem(fc, provider, dm);
    auto serial_s = solveMaxConcurrentFlow(serial_p, opt);
    auto serial_f = ecmpFluid(serial_p);

    for (int threads : {2, 5}) {
        ThreadPool pool(threads);
        auto par_p = buildClosFlowProblem(fc, provider, dm, &pool);
        ASSERT_EQ(par_p.numPathsTotal(), serial_p.numPathsTotal());
        SolveOptions popt = opt;
        popt.pool = &pool;
        auto par_s = solveMaxConcurrentFlow(par_p, popt);
        EXPECT_EQ(par_s.throughput, serial_s.throughput);
        EXPECT_EQ(par_s.phases, serial_s.phases);
        EXPECT_EQ(par_s.dual_bound, serial_s.dual_bound);
        EXPECT_EQ(par_s.utilization, serial_s.utilization);
        EXPECT_EQ(par_s.path_flow, serial_s.path_flow);
        auto par_f = ecmpFluid(par_p);
        EXPECT_EQ(par_f.saturation, serial_f.saturation);
        EXPECT_EQ(par_f.utilization, serial_f.utilization);
        EXPECT_EQ(par_f.demand_throughput, serial_f.demand_throughput);
    }
}

TEST(FlowPaths, CftEnumerationIsExact)
{
    // CFT(4,2): two roots, so every cross-leaf pair has exactly two
    // minimal up/down paths, each a valid up-then-down switch walk.
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8);
    std::vector<Path> ps = switchPaths(provider, 0, 1);
    ASSERT_EQ(ps.size(), 2u);
    for (const auto &path : ps) {
        ASSERT_EQ(path.size(), 3u);
        EXPECT_EQ(path.front(), 0);
        EXPECT_EQ(path.back(), 1);
        EXPECT_GE(fc.levelOf(path[1]), 2);
    }
    EXPECT_NE(ps[0][1], ps[1][1]);

    ps = switchPaths(provider, 2, 2);
    ASSERT_EQ(ps.size(), 1u);  // self pair: trivial path

    // Cap smaller than the ECMP set: deterministic sampled subset.
    UpDownEcmpPaths capped(fc, oracle, 1);
    const std::vector<Path> one = switchPaths(capped, 0, 1);
    const std::vector<Path> again = switchPaths(capped, 0, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one, again);
}

/** Expect std::invalid_argument whose message names @p field. */
template <typename Fn>
void
expectRejected(const std::string &field, Fn &&fn)
{
    try {
        fn();
        ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

/** Solve a one-link, one-demand problem under @p opt. */
void
solveTiny(const SolveOptions &opt)
{
    FlowProblem p;
    std::int32_t l = p.addLink(1.0);
    p.addDemand(1.0);
    p.addPath({l});
    solveMaxConcurrentFlow(p, opt);
}

TEST(FlowKnobs, RejectsMaxPathsBelowOne)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    for (int bad : {0, -3})
        expectRejected("max_paths",
                       [&] { UpDownEcmpPaths(fc, oracle, bad); });
}

TEST(FlowKnobs, RejectsMaxPhasesBelowOne)
{
    for (int bad : {0, -1}) {
        SolveOptions opt;
        opt.max_phases = bad;
        expectRejected("max_phases", [&] { solveTiny(opt); });
    }
}

TEST(FlowKnobs, RejectsBlockBelowOne)
{
    for (int bad : {0, -2048}) {
        SolveOptions opt;
        opt.block = bad;
        expectRejected("block", [&] { solveTiny(opt); });
    }
}

TEST(FlowKnobs, RejectsEpsilonOutsideOpenUnitInterval)
{
    for (double bad : {0.0, 1.0, -1.0, 1.5, std::nan("")}) {
        SolveOptions opt;
        opt.epsilon = bad;
        expectRejected("epsilon", [&] { solveTiny(opt); });
    }
}

TEST(FlowDemand, SampledUniformIsDoublyStochastic)
{
    auto dm = makeDemandMatrix("uniform", 64, 5, 4);
    EXPECT_EQ(dm.nodes, 64);
    // Union of fixed-point-free permutations: every row and column
    // sums to exactly 1 (no sampling hot spots).
    EXPECT_NEAR(dm.maxInjection(), 1.0, 1e-12);
    EXPECT_NEAR(dm.maxEjection(), 1.0, 1e-12);
    EXPECT_NEAR(dm.totalWeight(), 64.0, 1e-9);
    for (const auto &d : dm.demands)
        EXPECT_NE(d.src, d.dst);
}

TEST(FlowDemand, ExactUniformAndErrors)
{
    auto dm = exactUniformDemand(5);
    EXPECT_EQ(dm.demands.size(), 20u);
    EXPECT_NEAR(dm.maxInjection(), 1.0, 1e-12);
    EXPECT_NEAR(dm.maxEjection(), 1.0, 1e-12);
    EXPECT_THROW(makeDemandMatrix("no-such-pattern", 8, 1),
                 std::invalid_argument);

    // Duplicate (src, dst) samples merge into one weighted demand.
    UniformTraffic t;
    Rng rng(3);
    auto sampled = demandFromTraffic(t, 4, rng, 32);
    for (std::size_t i = 1; i < sampled.demands.size(); ++i) {
        const auto &a = sampled.demands[i - 1];
        const auto &b = sampled.demands[i];
        EXPECT_TRUE(a.src < b.src || (a.src == b.src && a.dst < b.dst));
    }
}

TEST(FlowCut, BoundRespectedOnCft)
{
    // Split CFT(4,2) leaves in half; the cut bound must dominate both
    // the concurrent optimum and the ECMP saturation.
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    auto dm = exactUniformDemand(fc.numTerminals());
    DynBitset half(static_cast<std::size_t>(fc.numLeaves()));
    for (int s = 0; s < fc.numLeaves() / 2; ++s)
        half.set(static_cast<std::size_t>(s));
    double bound = cutThroughputBound(fc, oracle, dm, half);
    EXPECT_TRUE(std::isfinite(bound));

    UpDownEcmpPaths provider(fc, oracle, 8);
    auto p = buildClosFlowProblem(fc, provider, dm);
    SolveOptions opt;
    opt.max_phases = 1000;
    auto s = solveMaxConcurrentFlow(p, opt);
    EXPECT_LE(s.throughput, bound + 1e-9);
    EXPECT_LE(ecmpFluid(p).saturation, bound + 1e-9);
}

// --- demand endpoints outside the topology --------------------------

/**
 * Expect std::invalid_argument whose message holds every string of
 * @p parts.
 */
template <typename Fn>
void
expectRejectedNaming(const std::vector<std::string> &parts, Fn &&fn)
{
    try {
        fn();
        ADD_FAILURE() << "accepted an endpoint outside the topology";
    } catch (const std::invalid_argument &e) {
        for (const std::string &part : parts)
            EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
                << e.what() << " lacks " << part;
    }
}

/**
 * A demand matrix built for three times CFT(8,3)'s 128 terminals: its
 * first demand whose endpoint reaches past the topology is reported.
 */
DemandMatrix
oversizedDemand(long long terminals, std::size_t &first_bad,
                long long &bad_endpoint)
{
    DemandMatrix dm = makeDemandMatrix("uniform", 3 * terminals, 3, 2);
    for (std::size_t i = 0; i < dm.demands.size(); ++i)
        for (long long t : {dm.demands[i].src, dm.demands[i].dst})
            if (t >= terminals) {
                first_bad = i;
                bad_endpoint = t;
                return dm;
            }
    ADD_FAILURE() << "no demand reaches past the topology";
    return dm;
}

TEST(FlowEndpoints, BuildRejectsEndpointsOutsideTheTopology)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8);
    std::size_t bad = 0;
    long long endpoint = 0;
    const DemandMatrix dm =
        oversizedDemand(fc.numTerminals(), bad, endpoint);
    ThreadPool pool(3);
    for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool})
        expectRejectedNaming(
            {"buildClosFlowProblem", "demand " + std::to_string(bad),
             std::to_string(endpoint), std::to_string(fc.numTerminals())},
            [&] { buildClosFlowProblem(fc, provider, dm, p); });

    DemandMatrix negative;
    negative.nodes = fc.numTerminals();
    negative.demands = {{0, 5, 1.0}, {-1, 2, 1.0}};
    expectRejectedNaming({"demand 1", "-1"}, [&] {
        buildClosFlowProblem(fc, provider, negative);
    });
}

TEST(FlowEndpoints, CutBoundRejectsEndpointsOutsideTheTopology)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    std::size_t bad = 0;
    long long endpoint = 0;
    const DemandMatrix dm =
        oversizedDemand(fc.numTerminals(), bad, endpoint);
    DynBitset half(static_cast<std::size_t>(fc.numLeaves()));
    for (int s = 0; s < fc.numLeaves() / 2; ++s)
        half.set(static_cast<std::size_t>(s));
    expectRejectedNaming(
        {"cutThroughputBound", "demand " + std::to_string(bad),
         std::to_string(endpoint), std::to_string(fc.numTerminals())},
        [&] { cutThroughputBound(fc, oracle, dm, half); });
}

TEST(FlowEndpoints, PathsRejectLeavesOutsideTheTopology)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8);
    const std::string leaves = std::to_string(fc.numLeaves());
    LeafPairPaths set;
    for (int bad : {fc.numLeaves(), 3 * fc.numLeaves(), -1}) {
        expectRejectedNaming({"leaf " + std::to_string(bad), leaves},
                             [&] { provider.paths(0, bad, set); });
        expectRejectedNaming({"leaf " + std::to_string(bad), leaves},
                             [&] { provider.paths(bad, 0, set); });
    }
    provider.paths(0, fc.numLeaves() - 1, set);  // the last leaf is fine
    EXPECT_GT(set.size(), 0u);
}

} // namespace
} // namespace rfc
