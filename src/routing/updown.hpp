/**
 * @file
 * Up/down routing oracle for folded Clos networks (Section 4.1).
 *
 * Up/down routing sends a packet up some number of levels to a common
 * ancestor of source and destination leaf, then down; it is deadlock
 * free without virtual channels because the channel dependency graph is
 * acyclic.  In a fat-tree the ancestor structure is implicit in the
 * wiring; in a *random* folded Clos it must be discovered.  The oracle
 * stores, per switch s and ascent budget j, the set reach_j[s] of
 * leaves reachable by at most j up hops followed by down hops only.
 *
 * Layout: one contiguous array of 64-bit words, level-major.  A switch
 * at level L (1-based) of an l-level network can climb at most l - L
 * hops (its ceiling), so every budget above that repeats the ceiling's
 * set; it stores only budgets 0..l-L.  Level L holds
 * switchesAtLevel(L) x (l - L + 1) rows of ceil(N1 / 64) words, budget
 * by budget, each budget's rows in switch order, so row (s, j) starts
 * at the level's base + j x the level's stride (one budget's rows) +
 * (s - first switch) x the row width.  (The packet engine measured
 * slower with each switch's budgets side by side; DESIGN.md section 4
 * item 2.)  The tables hold
 *     8 x ceil(N1 / 64) x sum_L switchesAtLevel(L) x (l - L + 1)
 * bytes (memoryBytes), and reach(s, j) for j above s's ceiling returns
 * the ceiling row.
 *
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

    /** Leaves reachable from @p s going only down (a copy). */
    DynBitset below(int s) const { return reach(s, 0); }

    /**
     * Leaves reachable from @p s with at most @p ups up hops (a copy);
     * a budget above s's ceiling gives the ceiling's set.
     */
    DynBitset
    reach(int s, int ups) const
    {
        return DynBitset(static_cast<std::size_t>(num_leaves_),
                         reachWords(s, ups));
    }

    /**
     * The ceil(numLeaves / 64) words of reach(s, ups) in place: bit
     * d % 64 of word d / 64 is leaf d.  The same ceiling rule applies.
     */
    const std::uint64_t *
    reachWords(int s, int ups) const
    {
        const int lv = levelIndex(s);
        return rows(s, lv) +
               static_cast<std::size_t>(std::min(ups, levels_ - 1 - lv)) *
                   level_[static_cast<std::size_t>(lv)].stride;
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
     * Finds the switch's level once, then tests one word of each of
     * its rows up to minUps and one word of each alive neighbour's row
     * at the budget the port needs.
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
     * Bytes of the reach array: 8 x ceil(N1 / 64) x sum over levels L
     * of switchesAtLevel(L) x (levels - L + 1), one row per switch and
     * stored budget (0 before a build).
     */
    std::int64_t
    memoryBytes() const
    {
        return static_cast<std::int64_t>(words_.size()) *
               static_cast<std::int64_t>(sizeof(std::uint64_t));
    }

  private:
    /** Where one level's rows sit in words_. */
    struct Level
    {
        int first = 0;           //!< id of the level's first switch
        std::size_t base = 0;    //!< word offset of its first row
        std::size_t stride = 0;  //!< words per budget: switches x row width
        bool operator==(const Level &) const = default;
    };

    /** 0-based level of switch @p s (levels are few: a short scan). */
    int
    levelIndex(int s) const
    {
        int lv = levels_ - 1;
        while (s < level_[static_cast<std::size_t>(lv)].first)
            --lv;
        return lv;
    }

    /** Budget-0 row of switch @p s at 0-based level @p lv; budget j is
     *  j x the level's stride on, up to the ceiling levels_ - 1 - lv. */
    const std::uint64_t *
    rows(int s, int lv) const
    {
        const Level &l = level_[static_cast<std::size_t>(lv)];
        return words_.data() + l.base +
               static_cast<std::size_t>(s - l.first) * row_words_;
    }

    std::uint64_t *
    rows(int s, int lv)
    {
        return const_cast<std::uint64_t *>(
            static_cast<const UpDownOracle *>(this)->rows(s, lv));
    }

    static bool
    hasLeaf(const std::uint64_t *row, int leaf)
    {
        return (row[static_cast<std::size_t>(leaf) >> 6] >> (leaf & 63)) & 1;
    }

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
    std::size_t row_words_ = 0;  // ceil(num_leaves_ / 64)
    std::vector<Level> level_;   // by 0-based level
    // The rows of reach_j[s] for j <= s's ceiling, laid out as level_.
    std::vector<std::uint64_t> words_;
    const LinkFaultState *faults_ = nullptr;
};

// Inline: the packet engine calls it on every up/down routing visit.
inline int
UpDownOracle::nextHops(const FoldedClos &fc, int s, int dest_leaf,
                       bool feasible, std::uint64_t *mask) const
{
    std::fill_n(mask, mask_words_, std::uint64_t{0});
    const int lv = levelIndex(s);
    const int ceiling = levels_ - 1 - lv;
    const std::size_t own_stride = level_[static_cast<std::size_t>(lv)].stride;
    const std::uint64_t *own = rows(s, lv);
    int need = 0;
    while (!hasLeaf(own + static_cast<std::size_t>(need) * own_stride,
                    dest_leaf))
        if (++need > ceiling)
            return -1;

    if (need == 0) {
        // Children sit one level down; their budget-0 rows.
        const auto down = fc.down(s);
        if (down.empty())
            return need;
        const Level &c = level_[static_cast<std::size_t>(lv - 1)];
        const std::uint64_t *c_rows = words_.data() + c.base;
        for (std::size_t i = 0; i < down.size(); ++i)
            if (downAlive(s, i) &&
                hasLeaf(c_rows + static_cast<std::size_t>(down[i] - c.first) *
                                     row_words_,
                        dest_leaf))
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
        return need;
    }
    // Minimal parents reach dest in need - 1 more ups; feasible ones
    // in whatever budget remains above them, their own ceiling (see
    // feasibleUpChoices).
    const auto up = fc.up(s);
    const Level &p = level_[static_cast<std::size_t>(lv + 1)];
    const std::uint64_t *p_rows =
        words_.data() + p.base +
        static_cast<std::size_t>(feasible ? ceiling - 1 : need - 1) *
            p.stride;
    for (std::size_t i = 0; i < up.size(); ++i)
        if (upAlive(s, i) &&
            hasLeaf(p_rows + static_cast<std::size_t>(up[i] - p.first) *
                                 row_words_,
                    dest_leaf))
            mask[i / 64] |= std::uint64_t{1} << (i % 64);
    return need;
}

} // namespace rfc

#endif // RFC_ROUTING_UPDOWN_HPP
