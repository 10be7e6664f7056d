#include "queue/latency.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <tuple>

#include "util/stats.hpp"
#include "util/threadpool.hpp"

namespace rfc {

namespace {

/** Partial mixture built from one fixed demand range at one load. */
struct RangePartial
{
    std::vector<ShiftedGamma> comps;
    double weight_sum = 0.0;
    double weighted_latency = 0.0;
};

/**
 * Merge of equal (shift, mean, variance) components through an
 * open-addressing table of indices into @c comps (which starts
 * empty): a key's first occurrence is appended, later ones add their
 * weight to it, so a merged weight is summed in insertion order.  The
 * table doubles, rehashing the unique keys, before its load factor
 * passes 1/2, so it never needs a bound on the keys.
 */
class ComponentMerge
{
  public:
    /** Room for @p keys distinct keys before the first rehash. */
    ComponentMerge(std::vector<ShiftedGamma> &comps, std::size_t keys)
        : comps_(comps)
    {
        std::size_t n = 16;
        while (n < 2 * keys)
            n *= 2;
        slots_.assign(n, 0);
        mask_ = n - 1;
    }

    void
    add(const ShiftedGamma &c)
    {
        for (std::size_t s = hash(c) & mask_;; s = (s + 1) & mask_) {
            const std::uint32_t at = slots_[s];
            if (at == 0) {
                comps_.push_back(c);
                slots_[s] = static_cast<std::uint32_t>(comps_.size());
                if (2 * comps_.size() > slots_.size())
                    grow();
                return;
            }
            ShiftedGamma &m = comps_[at - 1];
            if (m.shift == c.shift && m.mean == c.mean &&
                m.variance == c.variance) {
                m.weight += c.weight;
                return;
            }
        }
    }

  private:
    /** Double the table and re-seat every key (all distinct). */
    void
    grow()
    {
        slots_.assign(2 * slots_.size(), 0);
        mask_ = slots_.size() - 1;
        for (std::size_t i = 0; i < comps_.size(); ++i) {
            std::size_t s = hash(comps_[i]) & mask_;
            while (slots_[s] != 0)
                s = (s + 1) & mask_;
            slots_[s] = static_cast<std::uint32_t>(i + 1);
        }
    }

    static std::uint64_t
    bitsOf(double x)
    {
        std::uint64_t b;
        std::memcpy(&b, &x, sizeof b);
        return b;
    }

    static std::size_t
    hash(const ShiftedGamma &c)
    {
        std::uint64_t h = bitsOf(c.shift) * 0x9e3779b97f4a7c15ULL;
        h = (h ^ bitsOf(c.mean)) * 0xc2b2ae3d27d4eb4fULL;
        h = (h ^ bitsOf(c.variance)) * 0x165667b19e3779f9ULL;
        return static_cast<std::size_t>(h ^ (h >> 29));
    }

    std::vector<ShiftedGamma> &comps_;
    std::vector<std::uint32_t> slots_;  //!< 0 = empty, else index + 1
    std::size_t mask_;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

QueueSweepResult
queueLatencySweep(const FlowProblem &problem, const QueueModel &model,
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
    // Only the links' loads: the per-demand fluid results go unused.
    const std::vector<double> util = ecmpLinkUtilization(problem);
    double worst_util = 0.0;
    for (double u : util)
        worst_util = std::max(worst_util, u);
    result.saturation = worst_util > 0.0 ? 1.0 / worst_util : 0.0;

    const std::size_t nd = problem.numDemands();
    const double service = static_cast<double>(opt.pkt_phits);

    // Load-independent structure: routed counts, conservation sums and
    // the zero-load floor (serial and in demand order, hence
    // deterministic).
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
        double share =
            problem.weight(d) / static_cast<double>(np);
        std::size_t pb = problem.pathBegin(d);
        for (std::size_t q = pb; q < pb + np; ++q) {
            std::size_t len = 0;
            std::int32_t last = -1;
            problem.forEachLink(d, q, [&](std::int32_t l) {
                if (len++ == 0)
                    is_first[static_cast<std::size_t>(l)] = 1;
                last = l;
            });
            is_last[static_cast<std::size_t>(last)] = 1;
            floor_num +=
                share * (static_cast<double>(len) * opt.link_latency +
                         service);
        }
    }
    if (result.offered_weight > 0.0)
        result.zero_load_latency = floor_num / result.offered_weight;
    for (std::size_t l = 0; l < util.size(); ++l) {
        if (is_first[l])
            result.injection_util += util[l];
        if (is_last[l])
            result.ejection_util += util[l];
    }

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

    // One live load at a time.  A per-link waiting table, alive until
    // the load's mixture is merged, makes each path hop a lookup.
    // Phase A builds one shifted-gamma component per candidate path
    // over fixed demand ranges, merging equal ones within the range in
    // path order; the ranges are built in waves as wide as the pool
    // and merged into one table in index order as each wave ends
    // (util/threadpool parallelWaves), and the unique components are
    // sorted, so the output is bit-identical at any pool size.  Phase
    // B evaluates the merged mixture (mean exactly, p50/p99 via
    // util/stats).  The merged vector keeps its capacity from load to
    // load; when a range's partial would not fit, it is reserved for
    // the merged count so far extrapolated over all 32 ranges (about
    // what the 32 partials would hold), so it rarely moves while it
    // fills.  The merge table starts at the previous load's unique
    // count and rehashes as it grows.
    constexpr std::size_t kRanges = 32;
    auto pathsBefore = [&](std::size_t d) {
        return d < nd ? problem.pathBegin(d) : problem.numPathsTotal();
    };
    std::vector<ShiftedGamma> comps;
    std::size_t last_unique = 0;
    for (auto &pt : result.points) {
        if (pt.saturated)
            continue;
        const auto mixture_start = std::chrono::steady_clock::now();
        double wsum = 0.0, wlat = 0.0;
        comps.clear();
        {
            std::vector<QueueDelay> delay(util.size());
            for (std::size_t l = 0; l < delay.size(); ++l)
                delay[l] = model.waiting(pt.load * util[l]);
            ComponentMerge merged(comps, last_unique);
            parallelWaves<RangePartial>(
                opt.pool, kRanges,
                [&](std::size_t rg, RangePartial &out) {
                    std::size_t lo = nd * rg / kRanges;
                    std::size_t hi = nd * (rg + 1) / kRanges;
                    ComponentMerge merge(out.comps,
                                         pathsBefore(hi) - pathsBefore(lo));
                    for (std::size_t d = lo; d < hi; ++d) {
                        std::size_t np = problem.numPaths(d);
                        if (np == 0)
                            continue;
                        double share =
                            problem.weight(d) / static_cast<double>(np);
                        std::size_t pb = problem.pathBegin(d);
                        for (std::size_t q = pb; q < pb + np; ++q) {
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
                            merge.add({shift, wmean, wvar, share});
                            out.weight_sum += share;
                            out.weighted_latency += share * (shift + wmean);
                        }
                    }
                },
                [&](std::size_t rg, RangePartial &rp) {
                    const std::size_t need = comps.size() + rp.comps.size();
                    if (need > comps.capacity())
                        comps.reserve(need * kRanges / (rg + 1));
                    for (const ShiftedGamma &c : rp.comps)
                        merged.add(c);
                    wsum += rp.weight_sum;
                    wlat += rp.weighted_latency;
                });
        }
        // The keys are unique now, so the order is fully determined.
        std::sort(comps.begin(), comps.end(),
                  [](const ShiftedGamma &a, const ShiftedGamma &b) {
                      return std::tie(a.shift, a.mean, a.variance) <
                             std::tie(b.shift, b.mean, b.variance);
                  });
        pt.mean_latency = wlat / wsum;
        pt.mixture_components = comps.size();
        last_unique = comps.size();
        result.mixture_seconds += secondsSince(mixture_start);

        const auto quantile_start = std::chrono::steady_clock::now();
        const MixtureQuantiles qv =
            shiftedGammaMixtureQuantiles(comps, {0.50, 0.99}, opt.pool);
        pt.p50_latency = qv.values[0];
        pt.p99_latency = qv.values[1];
        pt.cdf_passes = qv.cdf_passes;
        result.quantile_seconds += secondsSince(quantile_start);
    }

    return result;
}

} // namespace rfc
