/**
 * @file
 * Shared scaffolding for fault studies, static and dynamic.
 *
 * Static sweeps (Figure 12, the fault-drill example) all follow the
 * same shape: draw one random link-removal order per topology, then
 * materialize nested snapshots - level b removes the first b * step
 * links of the order, so every fault level's faults are a superset of
 * the previous level's, exactly the paper's progression.  Before this
 * helper each bench hand-rolled the orders, the prefix copies and the
 * oracle rebuilds; nestedFaultLevels() is that scaffolding, once.
 *
 * Dynamic drills (bench/ext_fault_recovery) run ONE simulation through
 * a TopologyTimeline of link fail/repair events and read the recovery
 * story off the delivered-per-bin telemetry series; computeRecovery() turns that series into the
 * headline numbers: pre-failure baseline, depth of the throughput dip,
 * and the sustained time-to-reconverge.
 */
#ifndef RFC_ANALYSIS_FAULT_SWEEP_HPP
#define RFC_ANALYSIS_FAULT_SWEEP_HPP

#include <memory>
#include <vector>

#include "clos/faults.hpp"
#include "clos/folded_clos.hpp"
#include "routing/updown.hpp"
#include "util/rng.hpp"

namespace rfc {

/** Nested fault snapshots of one topology (level 0 = intact). */
struct FaultLevels
{
    std::vector<FoldedClos> cuts;  //!< cuts[b]: first b * step links removed
    /** Fresh oracle per level (empty unless build_oracles was set). */
    std::vector<std::unique_ptr<UpDownOracle>> oracles;
    std::vector<ClosLink> order;   //!< the removal order the levels share
    std::size_t step = 0;          //!< links removed per level

    /** Links removed at @p level. */
    long long
    removedAt(std::size_t level) const
    {
        return static_cast<long long>(level * step);
    }
};

/**
 * Materialize @p num_levels nested snapshots of @p fc: one random
 * removal order is drawn from @p order_rng (a single randomLinkOrder
 * call, so sharing the Rng across topologies reproduces the legacy
 * hand-rolled sequence draw-for-draw) and level b removes its first
 * b * step links.  With @p build_oracles, a fresh UpDownOracle is
 * built per level.
 */
FaultLevels nestedFaultLevels(const FoldedClos &fc,
                              std::size_t num_levels, std::size_t step,
                              Rng &order_rng, bool build_oracles);

/** Headline numbers of one fault-recovery telemetry series. */
struct RecoveryStats
{
    double baseline = 0.0;       //!< delivered/cycle before the failure
    double dip_fraction = 1.0;   //!< min post-failure rate / baseline
    /** First cycle from which throughput stays >= frac * baseline for
     *  the rest of the run; -1 when it never reconverges (or no
     *  pre-failure baseline exists). */
    long long reconverge_cycle = -1;
    long long time_to_reconverge = -1;  //!< reconverge - fail cycle
};

/**
 * Analyze a delivered-per-bin series (SimResult::delivered_bins) from
 * a run whose first link failure fired at @p fail_cycle.  The
 * pre-failure bins define the baseline rate; reconvergence is
 * *sustained*: the first bin from which every later full bin stays at
 * or above @p frac of the baseline (a partial final bin - when
 * @p total_cycles is not a bin multiple - is excluded throughout).
 */
RecoveryStats computeRecovery(const std::vector<long long> &bins,
                              long long bin_width, long long total_cycles,
                              long long fail_cycle, double frac = 0.9);

} // namespace rfc

#endif // RFC_ANALYSIS_FAULT_SWEEP_HPP
