/**
 * @file
 * Up/down routing oracle for folded Clos networks (Section 4.1).
 *
 * Up/down routing sends a packet up some number of levels to a common
 * ancestor of source and destination leaf, then down; it is deadlock
 * free without virtual channels because the channel dependency graph is
 * acyclic.  In a fat-tree the ancestor structure is implicit in the
 * wiring; in a *random* folded Clos it must be discovered.  The oracle
 * stores, per switch s and ascent budget j, the bitset reach_j[s] of
 * leaves reachable by at most j up hops followed by down hops only.
 * This yields:
 *
 *  - exact minimal up/down ECMP next-hop choices in O(degree) per hop,
 *    as one port mask of maskWords() words at any radix (nextHops: the
 *    form the packet engine, the table meter and the flow-path
 *    enumerator all read),
 *  - the network-wide routability predicate of Theorem 4.2
 *    (reach_{l-1}[leaf] = all leaves, for every leaf), and
 *  - minimal up/down path lengths for latency accounting.
 *
 * The list methods (downChoices, upChoices, feasibleUpChoices) give
 * the same sets as port-index lists, each from its own per-entry
 * scan; no routing path uses them.  They stay as the independent
 * reference the checkers (src/check), the tests and the benchmark's
 * self-check compare nextHops and the table rows against.
 *
 * Dynamic faults: bind a LinkFaultState overlay at build time and the
 * oracle sees only alive links - both in the reachability tables and
 * in every next-hop choice.  After the overlay flips links, build()
 * again against it: a live run flips every link of a topology barrier
 * first and then rebuilds once (sim/simulator.cpp).
 */
#ifndef RFC_ROUTING_UPDOWN_HPP
#define RFC_ROUTING_UPDOWN_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "clos/faults.hpp"
#include "clos/folded_clos.hpp"
#include "util/bitset.hpp"

namespace rfc {

/** Reachability oracle and ECMP chooser for up/down routing. */
class UpDownOracle
{
  public:
    UpDownOracle() = default;

    /** Build the oracle for @p fc (O(l * switches * leaves / 64) time). */
    explicit UpDownOracle(const FoldedClos &fc) { build(fc); }

    /** (Re)build for a (possibly modified) topology, all links alive. */
    void build(const FoldedClos &fc) { build(fc, nullptr); }

    /**
     * (Re)build with a link-state overlay: dead links do not
     * contribute reachability and are never offered as next hops.
     * @p faults (may be null = all alive) must outlive the oracle and
     * stay bound to @p fc; copies of the oracle share the overlay.
     */
    void build(const FoldedClos &fc, const LinkFaultState *faults);

    /** Exact table equality (tests compare against a fresh build). */
    bool sameTables(const UpDownOracle &o) const;

    /** The bound link-state overlay (null = all links alive). */
    const LinkFaultState *faultOverlay() const { return faults_; }

    /** Leaves reachable from @p s going only down. */
    const DynBitset &below(int s) const { return reach_[0][s]; }

    /** Leaves reachable from @p s with at most @p ups up hops. */
    const DynBitset &
    reach(int s, int ups) const
    {
        return reach_[ups][s];
    }

    /**
     * Minimum number of up hops needed from switch @p s to reach leaf
     * @p dest_leaf (0 if dest is below s); -1 if unreachable by any
     * up/down continuation.
     */
    int minUps(int s, int dest_leaf) const;

    /** Minimal up/down distance between two leaves (0 if equal). */
    int leafDistance(int a, int b) const;

    /**
     * Mean minimal up/down distance over all ordered leaf pairs with a
     * route (the oracle-level counterpart of the simulator's avg-hops
     * statistic at zero load).
     */
    double averageLeafDistance() const;

    /** True iff every leaf pair has a common ancestor (Theorem 4.2). */
    bool routable() const;

    /** Fraction of unordered leaf pairs with a common ancestor. */
    double routablePairFraction() const;

    /**
     * Minimal next-hop down choices: indices into fc.down(s) of children
     * c with dest below c.  Only valid when minUps(s, dest) == 0 and s
     * is not the destination leaf.
     */
    void downChoices(const FoldedClos &fc, int s, int dest_leaf,
                     std::vector<int> &out) const;

    /**
     * Minimal next-hop up choices: indices into fc.up(s) of parents p
     * with minUps(p, dest) == minUps(s, dest) - 1.  Only valid when
     * minUps(s, dest) >= 1.
     */
    void upChoices(const FoldedClos &fc, int s, int dest_leaf,
                   std::vector<int> &out) const;

    /**
     * All feasible up choices ("request mode up/down random"): indices
     * into fc.up(s) of parents from which the destination remains
     * reachable by some up*down* continuation - not necessarily the
     * minimal one.  Spreads adversarial point-to-point load over every
     * usable parent at the cost of occasionally longer paths; still
     * deadlock free and bounded by 2(l-1) hops.
     */
    void feasibleUpChoices(const FoldedClos &fc, int s, int dest_leaf,
                           std::vector<int> &out) const;

    /**
     * The next hops of one (switch, leaf) pair as a port mask: returns
     * minUps(s, dest_leaf) (-1 = unreachable) and writes the choice set
     * of downChoices (need 0), upChoices or, with @p feasible,
     * feasibleUpChoices to @p mask[0, maskWords()): bit i % 64 of word
     * i / 64 is port index i.  An unreachable leaf leaves it empty.
     * Tests one reach word per level and per alive port.
     */
    int nextHops(const FoldedClos &fc, int s, int dest_leaf, bool feasible,
                 std::uint64_t *mask) const;

    /** Words of a nextHops mask: ceil(widest up or down list / 64). */
    int maskWords() const { return mask_words_; }

    /** Number of choices in @p mask of @p words words. */
    static int
    maskCount(const std::uint64_t *mask, int words)
    {
        int count = 0;
        for (int w = 0; w < words; ++w)
            count += __builtin_popcountll(mask[w]);
        return count;
    }

    /**
     * Port index of choice @p k (0-based, ascending) of @p mask: the
     * k-th entry the list methods would return.  @p k must be below the
     * mask's maskCount.
     */
    static int
    maskSelect(const std::uint64_t *mask, std::uint64_t k)
    {
        int w = 0;
        for (;; ++w) {
            const auto c =
                static_cast<std::uint64_t>(__builtin_popcountll(mask[w]));
            if (k < c)
                break;
            k -= c;
        }
        std::uint64_t m = mask[w];
        while (k--)
            m &= m - 1;
        return 64 * w + __builtin_ctzll(m);
    }

    int numLeaves() const { return num_leaves_; }

    /**
     * Measured bytes held by the reachability tables: levels x switches
     * bitsets of numLeaves bits each, plus the bitset headers.
     */
    std::int64_t
    memoryBytes() const
    {
        if (reach_.empty() || reach_[0].empty())
            return 0;
        const std::int64_t words =
            (static_cast<std::int64_t>(num_leaves_) + 63) / 64;
        const std::int64_t per =
            words * 8 + static_cast<std::int64_t>(sizeof(DynBitset));
        return static_cast<std::int64_t>(reach_.size()) *
               static_cast<std::int64_t>(reach_[0].size()) * per;
    }

  private:
    bool upAlive(int s, std::size_t i) const
    {
        return !faults_ || !faults_->upDead(s, i);
    }

    bool downAlive(int s, std::size_t i) const
    {
        return !faults_ || !faults_->downDead(s, i);
    }

    int levels_ = 0;
    int num_leaves_ = 0;
    int mask_words_ = 1;
    // reach_[j][s]: leaves reachable from s with <= j up hops.
    std::vector<std::vector<DynBitset>> reach_;
    const LinkFaultState *faults_ = nullptr;
};

// Inline: the packet engine calls it on every up/down routing visit.
inline int
UpDownOracle::nextHops(const FoldedClos &fc, int s, int dest_leaf,
                       bool feasible, std::uint64_t *mask) const
{
    std::fill_n(mask, mask_words_, std::uint64_t{0});
    const auto d = static_cast<std::size_t>(dest_leaf);
    int need = 0;
    while (!reach_[need][s].test(d))
        if (++need == levels_)
            return -1;

    if (need == 0) {
        const auto down = fc.down(s);
        for (std::size_t i = 0; i < down.size(); ++i)
            if (downAlive(s, i) && reach_[0][down[i]].test(d))
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
        return need;
    }
    // Minimal parents reach dest in need - 1 more ups; feasible ones
    // in whatever budget remains above them (see feasibleUpChoices).
    const auto up = fc.up(s);
    const int budget = feasible ? levels_ - fc.levelOf(s) - 1 : need - 1;
    for (std::size_t i = 0; i < up.size(); ++i)
        if (upAlive(s, i) && reach_[budget][up[i]].test(d))
            mask[i / 64] |= std::uint64_t{1} << (i % 64);
    return need;
}

} // namespace rfc

#endif // RFC_ROUTING_UPDOWN_HPP
