/**
 * @file
 * Queue-model latency sweep: the third engine tier.
 *
 * The fluid solver (src/flow) answers *where* a network saturates; the
 * VCT engine (src/sim/core) answers *how* latency grows toward that
 * point, but at cycle-accurate cost.  This module sits between them:
 * it reuses the flow tier's problem representation (demand matrix +
 * ECMP candidate paths + per-port directed links) and replaces packet
 * simulation with analytic per-port queueing:
 *
 *  1. `ecmpLinkUtilization` (the link half of `ecmpFluid`) gives every
 *     link's relative load at unit injection;
 *     at offered load lambda, port utilization is rho_l = lambda u_l.
 *  2. A QueueModel maps rho_l to waiting-time moments at that port.
 *  3. Per candidate path, waiting moments add up hop by hop (the
 *     Kleinrock independence approximation) on top of the zero-load
 *     floor len * link_latency + pkt_phits - the exact pipelined
 *     cut-through latency the VCT engine reports at vanishing load.
 *  4. Each path's end-to-end latency becomes one component of a
 *     shifted-gamma mixture (weight = its ECMP flow share); the
 *     mixture's mean/p50/p99 are the sweep outputs, via the
 *     util/stats quantile machinery.
 *
 * A load point at which any used port reaches rho >= 1 has no steady
 * state: it is reported with `saturated = true` and zeroed latency
 * fields (the blow-up happens exactly at the fluid saturation point,
 * which tier-2 properties assert).
 *
 * Determinism: identical inputs give bit-identical results at any
 * pool size - work is partitioned into 32 fixed demand ranges, built
 * in waves as wide as the pool and merged in index order
 * (util/threadpool parallelWaves), like the flow problem's paths.
 * Components with equal (shift, mean, variance) merge into one whose
 * weight is the sum over ranges, in range order, of each range's sum
 * over its paths, in path order; the unique components are then
 * sorted by that key.  The association is fixed by the range
 * partition, not by the pool.
 *
 * Cost per load point: one waiting() call per link, O(paths * hops)
 * table lookups to build the mixture, a hash merge of equal
 * components inside each range and one across ranges, one sort of
 * the unique components, and then - the dominant term at scale - p50
 * and p99 from one prepared copy of the mixture (util/stats).  Each
 * quantile costs a few full-mixture passes of safeguarded Newton, each
 * with a cbrt, an erfc and an exp per distinct component.  The result
 * reports the wall time of the mixture build and of the quantiles,
 * and each point its pass count.
 *
 * Memory: loads are processed one at a time.  Besides the problem, a
 * sweep holds 10 B per link for the whole sweep (utilization and the
 * injection/ejection flags); per load, a 16 B per link waiting table
 * until the mixture is merged, one wave of range partials, and the
 * merged mixture at 32 B per unique component (`mixture_components`;
 * its capacity, extrapolated from the first partials merged, is about
 * 32 B per range-partial component) with its merge table at 8-16 B
 * per component, then the quantiles' prepared copy at 41 B per
 * component.  This is typically 10-100x
 * faster than a VCT sweep at sandbox scale and the only affordable
 * option at the million-terminal tier.
 */
#ifndef RFC_QUEUE_LATENCY_HPP
#define RFC_QUEUE_LATENCY_HPP

#include <cstddef>
#include <vector>

#include "flow/solver.hpp"
#include "queue/queue_model.hpp"

namespace rfc {

class ThreadPool;

/** Knobs of one latency sweep over a built FlowProblem. */
struct QueueSweepOptions
{
    /** Offered injection fractions, each in (0, 1]. */
    std::vector<double> loads;
    int pkt_phits = 16;    //!< packet size = port service time (cycles)
    int link_latency = 1;  //!< per-hop wire latency (cycles)
    ThreadPool *pool = nullptr;  //!< optional workers (deterministic)
};

/** Latency distribution at one offered load. */
struct QueueLoadPoint
{
    double load = 0.0;
    /** Some used port at rho >= 1: no steady state, latencies zeroed. */
    bool saturated = false;
    double mean_latency = 0.0;
    double p50_latency = 0.0;
    double p99_latency = 0.0;
    /** Max port utilization at this load (= load / saturation). */
    double max_utilization = 0.0;
    /**
     * Full-mixture CDF passes that p50 and p99 took (util/stats
     * shiftedGammaMixtureQuantiles).  Identical at any pool size; zero
     * at a saturated load.
     */
    std::size_t cdf_passes = 0;
    /**
     * Unique (shift, mean, variance) components of the merged mixture
     * the quantiles ran over: the size of the load's largest live
     * buffer.  Identical at any pool size; zero at a saturated load.
     */
    std::size_t mixture_components = 0;
};

/** One sweep: load-independent structure plus the per-load curve. */
struct QueueSweepResult
{
    /** ECMP fluid saturation load (curve blows up approaching it). */
    double saturation = 0.0;
    /** Flow-weighted mean zero-load latency (the hop-latency floor). */
    double zero_load_latency = 0.0;
    /** Total routed demand weight (= offered phits/cycle at load 1). */
    double offered_weight = 0.0;
    /**
     * Unit-injection utilization summed over the first / last links of
     * all routed paths (the injection and ejection ports for problems
     * built by buildClosFlowProblem).  Flow conservation makes both
     * equal offered_weight; tier-2 properties assert it.
     */
    double injection_util = 0.0;
    double ejection_util = 0.0;
    std::size_t routed = 0;
    std::size_t unrouted = 0;
    std::vector<QueueLoadPoint> points;  //!< one per requested load
    /**
     * Wall-clock seconds, summed over the unsaturated loads, spent
     * building and merging the mixtures and extracting p50/p99 (not
     * deterministic; for reporting only).
     */
    double mixture_seconds = 0.0;
    double quantile_seconds = 0.0;
};

/**
 * Sweep @p problem over opt.loads with per-port contention from
 * @p model, whose waiting() is evaluated from worker threads.  Throws
 * std::invalid_argument on an empty or out-of-range load list,
 * pkt_phits < 1, or link_latency < 0.
 */
QueueSweepResult queueLatencySweep(const FlowProblem &problem,
                                   const QueueModel &model,
                                   const QueueSweepOptions &opt);

} // namespace rfc

#endif // RFC_QUEUE_LATENCY_HPP
