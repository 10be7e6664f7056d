#include "queue/latency.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"
#include "util/threadpool.hpp"

namespace rfc {

namespace {

template <typename Fn>
void
runRange(ThreadPool *pool, std::size_t n, Fn &&fn)
{
    if (pool && pool->size() > 0 && n > 1)
        parallelFor(*pool, n, fn);
    else
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
}

/** Partial mixture built from one fixed demand range at one load. */
struct RangePartial
{
    std::vector<ShiftedGamma> comps;
    double weight_sum = 0.0;
    double weighted_latency = 0.0;
};

/** Sort by (shift, mean, variance) and merge equal tuples' weights. */
void
dedupComponents(std::vector<ShiftedGamma> &comps)
{
    std::sort(comps.begin(), comps.end(),
              [](const ShiftedGamma &a, const ShiftedGamma &b) {
                  if (a.shift != b.shift)
                      return a.shift < b.shift;
                  if (a.mean != b.mean)
                      return a.mean < b.mean;
                  return a.variance < b.variance;
              });
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

} // namespace

QueueSweepResult
queueLatencySweep(const FlowProblem &problem, QueueModel &model,
                  const QueueSweepOptions &opt)
{
    if (opt.loads.empty())
        throw std::invalid_argument(
            "queueLatencySweep: empty load list");
    for (double l : opt.loads)
        if (!(l > 0.0 && l <= 1.0))
            throw std::invalid_argument(
                "queueLatencySweep: loads must be within (0, 1]");
    if (opt.pkt_phits < 1)
        throw std::invalid_argument(
            "queueLatencySweep: pkt_phits must be >= 1");
    if (opt.link_latency < 0)
        throw std::invalid_argument(
            "queueLatencySweep: link_latency must be >= 0");

    QueueSweepResult result;
    EcmpFluidResult fluid = ecmpFluid(problem, opt.pool);
    result.saturation = fluid.saturation;

    const std::size_t nd = problem.numDemands();
    const double service = static_cast<double>(opt.pkt_phits);

    // Load-independent structure: routed counts, conservation sums,
    // the zero-load floor, and the history model's observations (all
    // serial and in demand order, hence deterministic).
    std::vector<char> is_first(
        static_cast<std::size_t>(problem.numLinks()), 0);
    std::vector<char> is_last(
        static_cast<std::size_t>(problem.numLinks()), 0);
    double floor_num = 0.0;
    for (std::size_t d = 0; d < nd; ++d) {
        std::size_t np = problem.numPaths(d);
        if (np == 0) {
            ++result.unrouted;
            continue;
        }
        ++result.routed;
        result.offered_weight += problem.weight(d);
        model.observe(service);
        double share =
            problem.weight(d) / static_cast<double>(np);
        std::size_t pb = problem.pathBegin(d);
        for (std::size_t q = pb; q < pb + np; ++q) {
            std::size_t len = problem.pathLength(q);
            const std::int32_t *links = problem.pathLinks(q);
            is_first[static_cast<std::size_t>(links[0])] = 1;
            is_last[static_cast<std::size_t>(links[len - 1])] = 1;
            floor_num +=
                share * (static_cast<double>(len) * opt.link_latency +
                         service);
        }
    }
    if (result.offered_weight > 0.0)
        result.zero_load_latency = floor_num / result.offered_weight;
    for (std::int32_t l = 0; l < problem.numLinks(); ++l) {
        if (is_first[static_cast<std::size_t>(l)])
            result.injection_util +=
                fluid.utilization[static_cast<std::size_t>(l)];
        if (is_last[static_cast<std::size_t>(l)])
            result.ejection_util +=
                fluid.utilization[static_cast<std::size_t>(l)];
    }

    double worst_util = 0.0;
    for (double u : fluid.utilization)
        worst_util = std::max(worst_util, u);

    const std::size_t n_loads = opt.loads.size();
    result.points.resize(n_loads);
    for (std::size_t li = 0; li < n_loads; ++li) {
        auto &pt = result.points[li];
        pt.load = opt.loads[li];
        pt.max_utilization = pt.load * worst_util;
        pt.saturated = pt.load * worst_util >= 1.0 - 1e-12;
    }
    if (result.routed == 0)
        return result;

    // One live load at a time, so only that load's partial mixtures
    // are alive.  A per-link waiting table makes each path hop a
    // lookup.  Phase A accumulates one shifted-gamma component per
    // candidate path over fixed demand ranges; merging the ranges in
    // index order keeps the output bit-identical at any pool size.
    // Phase B evaluates the merged mixture (mean exactly, quantiles via
    // util/stats).
    constexpr std::size_t kRanges = 32;
    const QueueModel &cmodel = model;  // waiting() is const and pure
    std::vector<QueueDelay> delay(fluid.utilization.size());
    std::vector<RangePartial> parts(kRanges);
    for (auto &pt : result.points) {
        if (pt.saturated)
            continue;
        for (std::size_t l = 0; l < delay.size(); ++l)
            delay[l] = cmodel.waiting(pt.load * fluid.utilization[l]);

        runRange(opt.pool, kRanges, [&](std::size_t rg) {
            RangePartial &out = parts[rg];
            std::size_t lo = nd * rg / kRanges;
            std::size_t hi = nd * (rg + 1) / kRanges;
            for (std::size_t d = lo; d < hi; ++d) {
                std::size_t np = problem.numPaths(d);
                if (np == 0)
                    continue;
                double share =
                    problem.weight(d) / static_cast<double>(np);
                std::size_t pb = problem.pathBegin(d);
                for (std::size_t q = pb; q < pb + np; ++q) {
                    std::size_t len = problem.pathLength(q);
                    const std::int32_t *links = problem.pathLinks(q);
                    double wmean = 0.0, wvar = 0.0;
                    for (std::size_t k = 0; k < len; ++k) {
                        const QueueDelay &w =
                            delay[static_cast<std::size_t>(links[k])];
                        wmean += w.mean;
                        wvar += w.variance;
                    }
                    double shift =
                        static_cast<double>(len) * opt.link_latency +
                        service;
                    out.comps.push_back({shift, wmean, wvar, share});
                    out.weight_sum += share;
                    out.weighted_latency += share * (shift + wmean);
                }
            }
            dedupComponents(out.comps);
        });

        std::size_t n_comps = 0;
        for (const auto &rp : parts)
            n_comps += rp.comps.size();
        std::vector<ShiftedGamma> comps;
        comps.reserve(n_comps);
        double wsum = 0.0, wlat = 0.0;
        for (auto &rp : parts) {
            comps.insert(comps.end(), rp.comps.begin(),
                         rp.comps.end());
            wsum += rp.weight_sum;
            wlat += rp.weighted_latency;
            rp = RangePartial();
        }
        dedupComponents(comps);
        pt.mean_latency = wlat / wsum;
        const double qs[2] = {0.50, 0.99};
        double qv[2];
        runRange(opt.pool, 2, [&](std::size_t i) {
            qv[i] = shiftedGammaMixtureQuantile(comps, qs[i]);
        });
        pt.p50_latency = qv[0];
        pt.p99_latency = qv[1];
    }

    return result;
}

} // namespace rfc
