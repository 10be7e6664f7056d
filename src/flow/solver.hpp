/**
 * @file
 * LP-free maximum concurrent flow over explicit candidate paths.
 *
 * The throughput question behind Figures 8-10 and 12 - at what fraction
 * of full injection does the network saturate, and who saturates first -
 * is a *maximum concurrent flow* problem: maximize lambda such that
 * every demand d can route lambda * w_d simultaneously within link
 * capacities.  The topology-design literature the paper argues against
 * (Jellyfish, "High Throughput Data Center Topology Design") answers it
 * with an LP; this module answers it with the Garg-Konemann
 * multiplicative-weights approximation restricted to each demand's
 * candidate path set, which needs no external solver and runs at
 * paper scale (hundreds of thousands of demands) in seconds:
 *
 *  - phases repeatedly route each demand along its currently cheapest
 *    candidate path under exponential link weights (weight grows with
 *    accumulated relative load);
 *  - after t phases, scaling all flow by the worst link congestion
 *    yields a *feasible* solution delivering lambda = t / congestion of
 *    every demand - a primal lower bound that holds unconditionally;
 *  - LP weak duality gives a certificate: for any positive link costs
 *    w, sum(cap_l * w_l) / sum_d(w_d * mindist_w(d)) bounds the
 *    path-restricted optimum from above.  The solver tracks the best
 *    such bound and stops when primal >= (1 - epsilon) * dual.
 *
 * The returned per-path flows are the explicit feasibility
 * certificate: tests recompute link loads from them and verify both
 * capacity feasibility and per-demand delivery at lambda.
 *
 * Path format: links a demand crosses on every candidate path - a
 * Clos demand's injection and ejection links - are stored once, as the
 * demand's two end links, and a path stores only the links between
 * them (at Fig 10 scale the ends were a quarter to a third of all
 * path entries).  `FlowProblem::forEachLink` visits a path's whole
 * sequence, ends included, in order; the solver, the ECMP fluid and
 * the queue sweep (queue/latency) read paths only through it, so they
 * see the same links in the same order as when every path held its
 * ends, and their sums are the same bits.
 *
 * A one-pass ECMP fluid model (`ecmpFluid`) complements the optimal
 * split: every demand divides evenly over its candidate paths - what
 * per-hop random ECMP does in expectation - giving the per-demand
 * throughput distribution ("who saturates first") that the
 * concurrent optimum, which equalizes all demands, cannot show.
 *
 * Parallelism: path assembly and cheapest-path selection run across
 * demands on a `util/threadpool`, partitioned by fixed demand ranges
 * and merged in index order, so results are bit-identical at any
 * thread count (the src/exp determinism contract).  The ECMP fluid is
 * one serial pass.  The solver's serial weight update takes its
 * exp() values from a per-call memo keyed by the exact argument, so
 * its results are the same bits as calling exp() each time.
 */
#ifndef RFC_FLOW_SOLVER_HPP
#define RFC_FLOW_SOLVER_HPP

#include <cstdint>
#include <vector>

#include "clos/folded_clos.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "util/bitset.hpp"

namespace rfc {

class ThreadPool;

/**
 * A capacitated directed-link network with per-demand candidate paths.
 *
 * Links are abstract ids with a capacity.  A demand may carry two end
 * links, a source end and a destination end, that every one of its
 * candidate paths crosses; a path stores only the links between them.
 * A path's link sequence is therefore its demand's source end (if
 * any), the path's own links, then the destination end (if any), and
 * `forEachLink` is the one way to read it.  Build directly for
 * hand-crafted instances (tests; demands without ends, paths holding
 * every link), or via `buildClosFlowProblem`, which translates a
 * folded Clos + its ECMP paths + a demand matrix into link ids: one
 * directed unit-capacity link per switch port plus one injection and
 * one ejection link per terminal that appears in the demand matrix,
 * which are its demands' ends.
 */
class FlowProblem
{
  public:
    /**
     * Add a link with finite @p capacity > 0; returns its id.  Throws
     * std::invalid_argument otherwise (NaN and infinities included).
     */
    std::int32_t addLink(double capacity);

    /**
     * Add a demand with finite @p weight > 0 (else throws like
     * addLink) whose every path starts with link @p src_link and ends
     * with link @p dst_link (-1 = no such end); paths are added
     * afterwards.  Throws std::out_of_range for an end outside
     * [0, numLinks()) other than -1.
     */
    std::size_t addDemand(double weight, std::int32_t src_link = -1,
                          std::int32_t dst_link = -1);

    /**
     * Add a candidate path to the most recently added demand: the
     * link ids between its ends.  The list may be empty only when the
     * demand has an end link (a path must cross at least one link);
     * throws std::invalid_argument otherwise.  Throws
     * std::length_error once the problem would hold more than
     * INT32_MAX paths or stored link entries (path offsets are
     * 32-bit).
     */
    void addPath(const std::vector<std::int32_t> &links);

    /** addPath over the @p n link ids at @p links. */
    void addPath(const std::int32_t *links, std::size_t n);

    std::int32_t numLinks() const
    {
        return static_cast<std::int32_t>(cap_.size());
    }
    std::size_t numDemands() const { return weight_.size(); }
    std::size_t numPathsTotal() const { return path_off_.size() - 1; }

    double capacity(std::int32_t l) const { return cap_[l]; }
    double weight(std::size_t d) const { return weight_[d]; }

    /** Source end link of demand @p d (-1 = none). */
    std::int32_t srcLink(std::size_t d) const { return src_link_[d]; }
    /** Destination end link of demand @p d (-1 = none). */
    std::int32_t dstLink(std::size_t d) const { return dst_link_[d]; }

    /** Global id of demand @p d's first path. */
    std::size_t
    pathBegin(std::size_t d) const
    {
        return static_cast<std::size_t>(first_path_[d]);
    }
    /** Number of candidate paths of demand @p d (0 = unroutable). */
    std::size_t
    numPaths(std::size_t d) const
    {
        return (d + 1 < first_path_.size() ? pathBegin(d + 1)
                                           : numPathsTotal()) -
               pathBegin(d);
    }

    /**
     * Links of demand @p d's global path @p q (pathBegin(d) <= q <
     * pathBegin(d) + numPaths(d)), in order: f(link) for the source
     * end, each link stored with the path, then the destination end.
     */
    template <class F>
    void
    forEachLink(std::size_t d, std::size_t q, F &&f) const
    {
        if (src_link_[d] >= 0)
            f(src_link_[d]);
        const std::int32_t *ls = path_links_.data() + path_off_[q];
        const std::int32_t *end = path_links_.data() + path_off_[q + 1];
        for (; ls != end; ++ls)
            f(*ls);
        if (dst_link_[d] >= 0)
            f(dst_link_[d]);
    }

  private:
    std::vector<double> cap_;
    std::vector<double> weight_;
    std::vector<std::int32_t> src_link_;     //!< per demand, -1 = none
    std::vector<std::int32_t> dst_link_;     //!< per demand, -1 = none
    // addPath keeps both the path count and the stored link entries
    // within 32 bits.
    std::vector<std::int32_t> first_path_;   //!< per demand
    std::vector<std::int32_t> path_off_ = {0};  //!< per path, +sentinel
    std::vector<std::int32_t> path_links_;
};

/**
 * Build the flow problem for a folded Clos: demands route over
 * @p paths between their endpoint leaves, every switch port becomes a
 * directed unit-capacity link, and each terminal appearing in @p dm
 * gets a unit injection/ejection link, registered at its first demand
 * and set as the demand's source/destination end; paths hold only
 * switch links (a same-leaf demand gets one path of none).  Demand
 * order (and therefore every solver output) follows dm.demands.  Path
 * enumeration runs over fixed demand ranges in waves on @p pool
 * (util/threadpool parallelWaves; nullptr = one range at a time),
 * each wave appended in demand order and freed, so the problem is the
 * same bits at any pool size.  Throws std::invalid_argument, naming
 * the demand, when an endpoint is not a terminal of @p fc.
 */
FlowProblem buildClosFlowProblem(const FoldedClos &fc,
                                 const UpDownEcmpPaths &paths,
                                 const DemandMatrix &dm,
                                 ThreadPool *pool = nullptr);

/**
 * Solver knobs; the defaults suit every bench in this repository.
 * solveMaxConcurrentFlow throws std::invalid_argument, naming the
 * field, unless 0 < epsilon < 1 and both counts are >= 1.
 */
struct SolveOptions
{
    double epsilon = 0.05;  //!< stop when primal >= (1-eps) * dual
    int max_phases = 400;   //!< phase cap (each routes every demand once)
    int block = 2048;       //!< demands per frozen-weight update block
    ThreadPool *pool = nullptr;  //!< optional worker pool (deterministic)
};

/** Certified approximate maximum concurrent flow. */
struct FlowSolution
{
    /**
     * Feasible concurrent throughput lambda: every routed demand d
     * simultaneously receives lambda * w_d within link capacities.
     * For demand matrices normalized to unit injection this is
     * directly comparable to the packet simulator's accepted
     * phits/node/cycle at saturation.
     */
    double throughput = 0.0;
    double dual_bound = 0.0;  //!< upper bound on path-restricted optimum
    bool converged = false;   //!< primal >= (1-eps) * dual reached
    int phases = 0;

    std::size_t routed_demands = 0;
    std::size_t unrouted_demands = 0;  //!< demands with no candidate path

    /** Per link: load / capacity at lambda (the bottlenecks are 1.0). */
    std::vector<double> utilization;

    /**
     * Per global path: feasible flow at lambda (the certificate:
     * summing over a demand's paths gives lambda * w_d; summing over
     * paths crossing a link stays within its capacity).
     */
    std::vector<double> path_flow;
};

FlowSolution solveMaxConcurrentFlow(const FlowProblem &problem,
                                    const SolveOptions &opt = {});

/** One-pass ECMP fluid model: even split over candidate paths. */
struct EcmpFluidResult
{
    /**
     * Saturation throughput under even ECMP splitting: the injection
     * fraction at which the hottest link reaches capacity.  Never
     * exceeds the concurrent-flow dual bound.
     */
    double saturation = 0.0;

    /**
     * Per demand: the injection fraction at which some link this
     * demand's flow crosses saturates - its personal saturation point.
     * 0 for unroutable demands.
     */
    std::vector<double> demand_throughput;

    /** Per link: relative load at unit injection (before scaling). */
    std::vector<double> utilization;

    double worst = 0.0;    //!< min demand_throughput over routed demands
    double average = 0.0;  //!< mean over routed demands
};

EcmpFluidResult ecmpFluid(const FlowProblem &problem);

/**
 * Per link: relative load at unit injection under even ECMP splitting,
 * divided by capacity - ecmpFluid's utilization, without the
 * per-demand results.
 */
std::vector<double> ecmpLinkUtilization(const FlowProblem &problem);

/**
 * Cut-based throughput upper bound (the Section 4.2 bisection argument
 * at leaf granularity).  @p leaf_in_a partitions the leaves; upper
 * switches side with the majority of the leaves below them.  Every
 * unit of A-to-B demand must cross an A-to-B directed link, so
 * lambda <= cut capacity / cut demand; the returned value is the
 * tighter of the two directions.  Feed it the partition found by
 * `empiricalBisectionParts` (graph/bisection) to turn the paper's
 * bisection estimates into a checkable bound on the flow solver.
 * Returns +infinity when no demand crosses the cut.  Throws
 * std::invalid_argument, naming the demand, when an endpoint is not a
 * terminal of @p fc.
 */
double cutThroughputBound(const FoldedClos &fc, const UpDownOracle &oracle,
                          const DemandMatrix &dm,
                          const DynBitset &leaf_in_a);

} // namespace rfc

#endif // RFC_FLOW_SOLVER_HPP
