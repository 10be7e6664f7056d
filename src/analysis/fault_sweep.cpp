#include "analysis/fault_sweep.hpp"

#include <algorithm>
#include <stdexcept>

namespace rfc {

FaultLevels
nestedFaultLevels(const FoldedClos &fc, std::size_t num_levels,
                  std::size_t step, Rng &order_rng)
{
    if (num_levels < 1)
        throw std::invalid_argument(
            "nestedFaultLevels: need at least one level");
    FaultLevels out;
    out.step = step;
    out.order = randomLinkOrder(fc, order_rng);
    if ((num_levels - 1) * step > out.order.size())
        throw std::out_of_range(
            "nestedFaultLevels: deepest level removes more links than "
            "the topology has");
    out.cuts.reserve(num_levels);
    for (std::size_t b = 0; b < num_levels; ++b)
        out.cuts.push_back(withLinksRemoved(fc, out.order, b * step));
    out.oracles.reserve(num_levels);
    for (std::size_t b = 0; b < num_levels; ++b)
        out.oracles.push_back(std::make_unique<UpDownOracle>(out.cuts[b]));
    return out;
}

RecoveryStats
computeRecovery(const std::vector<long long> &bins, long long bin_width,
                long long total_cycles, long long fail_cycle, double frac)
{
    RecoveryStats r;
    if (bins.empty() || bin_width <= 0 || fail_cycle < 0)
        return r;

    // Only full bins take part; a trailing partial bin would read as a
    // throughput collapse.
    auto n_full = static_cast<std::size_t>(total_cycles / bin_width);
    if (n_full > bins.size())
        n_full = bins.size();
    auto fail_bin = static_cast<std::size_t>(fail_cycle / bin_width);

    auto rate = [&](std::size_t b) {
        return static_cast<double>(bins[b]) /
               static_cast<double>(bin_width);
    };

    // Baseline: mean rate over the full bins strictly before the bin
    // the failure lands in.
    std::size_t n_base = fail_bin < n_full ? fail_bin : n_full;
    if (n_base == 0)
        return r;  // failure too early to establish a baseline
    double sum = 0.0;
    for (std::size_t b = 0; b < n_base; ++b)
        sum += rate(b);
    r.baseline = sum / static_cast<double>(n_base);

    if (fail_bin >= n_full || r.baseline <= 0.0)
        return r;

    double dip = rate(fail_bin);
    for (std::size_t b = fail_bin; b < n_full; ++b)
        dip = std::min(dip, rate(b));
    r.dip_fraction = dip / r.baseline;

    // Sustained reconvergence: the bin after the last one below the
    // threshold (every remaining full bin stays at or above it).
    const double threshold = frac * r.baseline;
    std::size_t reconverge = fail_bin;
    for (std::size_t b = fail_bin; b < n_full; ++b)
        if (rate(b) < threshold)
            reconverge = b + 1;
    if (reconverge >= n_full)
        return r;  // still degraded at end of run
    r.reconverge_cycle =
        static_cast<long long>(reconverge) * bin_width;
    r.time_to_reconverge = r.reconverge_cycle > fail_cycle
                               ? r.reconverge_cycle - fail_cycle
                               : 0;
    return r;
}

} // namespace rfc
