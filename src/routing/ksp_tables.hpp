/**
 * @file
 * k-shortest-path routing tables for direct networks (Jellyfish/RRN).
 *
 * Section 6 of the paper argues that random regular networks need
 * k-shortest-path routing (single shortest paths underuse the random
 * links) and deadlock-avoidance machinery, and excludes them from the
 * simulations on those grounds.  This module materializes exactly that
 * cost: all-pairs k-shortest loopless paths over the switch graph,
 * with the table sizes and maximum hop counts (= virtual channels
 * required for hop-escalating deadlock freedom) made explicit.
 */
#ifndef RFC_ROUTING_KSP_TABLES_HPP
#define RFC_ROUTING_KSP_TABLES_HPP

#include <vector>

#include "graph/graph.hpp"
#include "graph/ksp.hpp"
#include "util/rng.hpp"

namespace rfc {

/** All-pairs k-shortest-path tables over a switch graph. */
class KspRoutes
{
  public:
    /**
     * Precompute up to @p k loopless paths per ordered switch pair.
     * O(n^2 k) Yen invocations; intended for the n <= a few hundred
     * switch graphs the direct-network experiments use.
     */
    KspRoutes(const Graph &g, int k);

    /** Paths from src to dst (possibly fewer than k; empty if none). */
    const std::vector<Path> &
    paths(int src, int dst) const
    {
        return table_[static_cast<std::size_t>(src) * n_ + dst];
    }

    /** Pick one path uniformly at random; nullptr if disconnected. */
    const Path *pickPath(int src, int dst, Rng &rng) const;

    /**
     * Pick uniformly among the *minimal-length* stored paths (ECMP
     * over shortest paths only); nullptr if disconnected.
     */
    const Path *pickShortest(int src, int dst, Rng &rng) const;

    /** Largest hop count over all stored paths (VC requirement). */
    int maxHops() const { return max_hops_; }

    /** Total stored path-hops (table mass). */
    long long totalHops() const { return total_hops_; }

    /** Ordered pairs with at least one path. */
    long long connectedPairs() const { return connected_pairs_; }

  private:
    int n_ = 0;
    int max_hops_ = 0;
    long long total_hops_ = 0;
    long long connected_pairs_ = 0;
    std::vector<std::vector<Path>> table_;
};

} // namespace rfc

#endif // RFC_ROUTING_KSP_TABLES_HPP
