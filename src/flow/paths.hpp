/**
 * @file
 * Candidate paths for the flow-level throughput engine.
 *
 * The max-concurrent-flow solver is path-based: each demand routes over
 * an explicit set of candidate switch paths.  `UpDownEcmpPaths`
 * enumerates the minimal up/down ECMP paths that CFT/OFT/RFC switches
 * actually use (driven by the `UpDownOracle`, the same next-hop sets as
 * the packet simulator's kMinimal mode).
 *
 * ECMP fan-outs multiply across levels (a radix-36 3-level Clos has up
 * to 324 minimal paths per leaf pair), so enumeration is capped: when
 * the full set fits the cap it is returned exactly, otherwise a
 * deterministic random sample of distinct minimal paths (seeded per
 * leaf pair) stands in for it.  The enumerator is immutable after
 * construction and safe to share across solver threads.
 */
#ifndef RFC_FLOW_PATHS_HPP
#define RFC_FLOW_PATHS_HPP

#include <cstdint>
#include <vector>

#include "clos/folded_clos.hpp"
#include "graph/ksp.hpp"
#include "routing/updown.hpp"

namespace rfc {

/**
 * Minimal up/down ECMP paths between leaf switches of a folded Clos,
 * enumerated from the reachability oracle.
 */
class UpDownEcmpPaths
{
  public:
    /**
     * @param max_paths Cap per leaf pair; pairs with a larger ECMP set
     *        get a deterministic seeded sample of distinct paths.
     * @param seed Base seed for the per-pair sampling streams.
     * @throws std::invalid_argument if max_paths < 1.
     */
    UpDownEcmpPaths(const FoldedClos &fc, const UpDownOracle &oracle,
                    int max_paths = 16, std::uint64_t seed = 1);

    /**
     * Candidate paths from leaf @p src to leaf @p dst, as visited
     * switch sequences (src first, dst last; a single-element path when
     * src == dst).  Empty when no up/down route exists.
     */
    void paths(int src, int dst, std::vector<Path> &out) const;

  private:
    /**
     * Exhaustive DFS; returns false once more than max_paths_ exist.
     * @p choices holds one next-hop list per path position, reused
     * across the nodes at that depth.
     */
    bool enumerate(int s, int ups, int dst, Path &prefix,
                   std::vector<std::vector<int>> &choices,
                   std::vector<Path> &out) const;

    /**
     * One random minimal up/down path (never fails when routable);
     * @p choices is scratch.
     */
    void samplePath(int src, int ups, int dst, Rng &rng,
                    std::vector<int> &choices, Path &out) const;

    const FoldedClos &fc_;
    const UpDownOracle &oracle_;
    int max_paths_;
    std::uint64_t seed_;
};

} // namespace rfc

#endif // RFC_FLOW_PATHS_HPP
