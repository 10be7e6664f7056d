/**
 * @file
 * Property-based checks for the flow-level throughput engine over
 * randomized RFC topologies (tier 2).
 *
 * For every generated routable topology and a sampled-uniform demand
 * matrix, the solver must uphold its contract:
 *
 *  - weak duality: certified lambda <= its own dual upper bound;
 *  - the injection-link cap: lambda <= 1 / maxInjection (here = 1,
 *    since sampled uniform demand is doubly stochastic);
 *  - the path-flow certificate is feasible (per-link loads, read
 *    through FlowProblem::forEachLink so that every demand's terminal
 *    end links count, within capacity and equal to the reported
 *    utilization) and delivers lambda * weight per routed demand;
 *  - the ECMP fluid saturation never exceeds the optimum by more than
 *    the approximation gap;
 *  - every output is bit-identical when solved on a thread pool.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "check/prop.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "flow/solver.hpp"
#include "routing/updown.hpp"
#include "util/threadpool.hpp"

namespace rfc {
namespace {

constexpr double kEpsilon = 0.1;

CheckResult
flowContract(const TopoParams &params)
{
    FoldedClos fc = materializeTopo(params);
    UpDownOracle oracle(fc);
    if (!oracle.routable())
        return CheckResult::pass();  // vacuous: no flow to solve

    UpDownEcmpPaths provider(fc, oracle, 8, params.wiring_seed);
    auto dm = makeDemandMatrix("uniform", fc.numTerminals(),
                               params.wiring_seed + 1, 2);
    if (dm.demands.empty())
        return CheckResult::pass();

    auto problem = buildClosFlowProblem(fc, provider, dm);
    SolveOptions opt;
    opt.epsilon = kEpsilon;
    opt.max_phases = 200;
    opt.block = 128;
    auto sol = solveMaxConcurrentFlow(problem, opt);

    std::ostringstream err;
    if (sol.throughput > sol.dual_bound + 1e-9) {
        err << "lambda " << sol.throughput << " above dual bound "
            << sol.dual_bound;
        return CheckResult::fail(err.str());
    }
    if (sol.throughput > 1.0 / dm.maxInjection() + 1e-9) {
        err << "lambda " << sol.throughput
            << " above injection cap " << 1.0 / dm.maxInjection();
        return CheckResult::fail(err.str());
    }

    // Certificate feasibility.
    std::vector<double> load(
        static_cast<std::size_t>(problem.numLinks()), 0.0);
    for (std::size_t d = 0; d < problem.numDemands(); ++d) {
        double delivered = 0.0;
        std::size_t pb = problem.pathBegin(d);
        for (std::size_t q = pb; q < pb + problem.numPaths(d); ++q) {
            delivered += sol.path_flow[q];
            problem.forEachLink(d, q, [&](std::int32_t l) {
                load[l] += sol.path_flow[q];
            });
        }
        if (problem.numPaths(d) > 0 &&
            std::abs(delivered - sol.throughput * problem.weight(d)) >
                1e-6 * (1.0 + sol.throughput)) {
            err << "demand " << d << " delivers " << delivered
                << ", expected " << sol.throughput * problem.weight(d);
            return CheckResult::fail(err.str());
        }
    }
    for (std::int32_t l = 0; l < problem.numLinks(); ++l) {
        if (load[l] > problem.capacity(l) * (1.0 + 1e-6)) {
            err << "link " << l << " overloaded: " << load[l] << " of "
                << problem.capacity(l);
            return CheckResult::fail(err.str());
        }
        // The reported utilization is the certificate's load, so a
        // link the solver never charged (a terminal end skipped, say)
        // shows even where its load stays within capacity.
        const double reported = sol.utilization[l] * problem.capacity(l);
        if (std::abs(load[l] - reported) > 1e-6 * (1.0 + load[l])) {
            err << "link " << l << " carries " << load[l]
                << " by the certificate, " << reported << " reported";
            return CheckResult::fail(err.str());
        }
    }

    // ECMP fluid is feasible, so it cannot beat the certified optimum
    // by more than the approximation gap.
    auto fluid = ecmpFluid(problem);
    if (sol.converged &&
        sol.throughput < (1.0 - kEpsilon) * fluid.saturation - 1e-9) {
        err << "converged lambda " << sol.throughput
            << " too far below feasible ECMP saturation "
            << fluid.saturation;
        return CheckResult::fail(err.str());
    }

    // Determinism: identical bits on a pool.
    ThreadPool pool(3);
    auto par_problem = buildClosFlowProblem(fc, provider, dm, &pool);
    SolveOptions popt = opt;
    popt.pool = &pool;
    auto par = solveMaxConcurrentFlow(par_problem, popt);
    if (par.throughput != sol.throughput ||
        par.dual_bound != sol.dual_bound ||
        par.path_flow != sol.path_flow ||
        par.utilization != sol.utilization) {
        return CheckResult::fail("parallel solve differs from serial");
    }
    auto fluid_par = ecmpFluid(par_problem);
    if (fluid_par.saturation != fluid.saturation ||
        fluid_par.utilization != fluid.utilization)
        return CheckResult::fail("parallel fluid differs from serial");

    return CheckResult::pass();
}

TEST(PropFlow, SolverContractOnRandomTopologies)
{
    PropConfig cfg;
    cfg.cases = 40;
    cfg.seed = 0xf10f10;
    cfg.min_size = 2;
    cfg.max_size = 24;
    auto res = forAll<TopoParams>(
        cfg, genTopoParams, flowContract, shrinkTopoParams,
        describeTopoParams);
    EXPECT_TRUE(res.passed) << res.report();
}

} // namespace
} // namespace rfc
