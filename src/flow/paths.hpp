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
 * construction and safe to share across solver threads; each thread
 * passes its own `LeafPairPaths`, which holds the output and the
 * per-pair scratch.
 *
 * Each hop's choices come from `UpDownOracle::nextHops` as a port mask
 * of `maskWords()` words, one mask row per depth, at any radix; the DFS
 * and the samples re-read a revisited switch's reach bits rather than
 * keep its set.  Every path reports the port each hop leaves by, so a
 * caller maps a hop to its link without searching the port lists.
 */
#ifndef RFC_FLOW_PATHS_HPP
#define RFC_FLOW_PATHS_HPP

#include <cstdint>
#include <vector>

#include "clos/folded_clos.hpp"
#include "graph/ksp.hpp"
#include "routing/updown.hpp"

namespace rfc {

class UpDownEcmpPaths;

/**
 * The candidate paths of one leaf pair, all of one length, plus the
 * enumerator's reusable scratch (reuse one object across calls to
 * avoid allocating per pair).  Path i visits hops() + 1 switches,
 * switches(i)[0] being the source leaf, and leaves switch j through
 * port ports(i)[j] of that switch, numbered up ports first, then down
 * ports: fc.up(s)[k] is port k and fc.down(s)[k] is port
 * fc.up(s).size() + k.
 */
class LeafPairPaths
{
  public:
    /** Number of paths (0 = no up/down route). */
    std::size_t size() const { return count_; }

    /** Hops per path (switches per path minus one). */
    int hops() const { return hops_; }

    const int *
    switches(std::size_t i) const
    {
        return sw_.data() + i * static_cast<std::size_t>(hops_ + 1);
    }

    const int *
    ports(std::size_t i) const
    {
        return port_.data() + i * static_cast<std::size_t>(hops_);
    }

  private:
    friend class UpDownEcmpPaths;

    int hops_ = 0;
    std::size_t count_ = 0;
    std::vector<int> sw_, port_;  //!< rows of hops_ + 1 and hops_
    std::vector<int> at_, via_;   //!< the path being built
    //! nextHops mask of at_[depth], maskWords() words per depth
    std::vector<std::uint64_t> mask_;
};

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
     * Candidate paths from leaf @p src to leaf @p dst into @p out: a
     * single zero-hop path when src == dst, none when no up/down route
     * exists.  Enumerated paths come in DFS order over ascending ports;
     * sampled ones sorted by switch sequence.
     * @throws std::invalid_argument if either leaf is outside
     *         [0, numLeaves()).
     */
    void paths(int src, int dst, LeafPairPaths &out) const;

  private:
    /**
     * Exhaustive DFS from out.at_[depth] = @p s; returns false once
     * more than max_paths_ paths exist.
     */
    bool enumerate(std::size_t depth, int s, int dst,
                   LeafPairPaths &out) const;

    /** One random minimal up/down path into out.at_ / out.via_. */
    void samplePath(int src, int dst, Rng &rng, LeafPairPaths &out) const;

    const FoldedClos &fc_;
    const UpDownOracle &oracle_;
    int max_paths_;
    std::uint64_t seed_;
};

} // namespace rfc

#endif // RFC_FLOW_PATHS_HPP
